#include "workload/queueing.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "util/error.hpp"

namespace ltsc::workload {

namespace {

/// Pending future event in the DES.
struct des_event {
    double time = 0.0;
    enum class kind : std::uint8_t { arrival, departure } type = kind::arrival;

    friend bool operator>(const des_event& a, const des_event& b) { return a.time > b.time; }
};

}  // namespace

mmc_result simulate_mmc(const mmc_config& config, util::seconds_t horizon,
                        util::seconds_t sample_dt) {
    util::ensure(config.arrival_rate_hz > 0.0, "simulate_mmc: non-positive arrival rate");
    util::ensure(config.service_rate_hz > 0.0, "simulate_mmc: non-positive service rate");
    util::ensure(config.servers >= 1, "simulate_mmc: need at least one server");
    util::ensure(horizon.value() > 0.0, "simulate_mmc: non-positive horizon");
    util::ensure(sample_dt.value() > 0.0, "simulate_mmc: non-positive sample step");

    if (config.modulation.enabled) {
        util::ensure(config.modulation.burst_arrival_rate_hz > 0.0,
                     "simulate_mmc: non-positive burst arrival rate");
        util::ensure(config.modulation.mean_calm_dwell_s > 0.0 &&
                         config.modulation.mean_burst_dwell_s > 0.0,
                     "simulate_mmc: non-positive modulation dwell time");
    }

    util::pcg32 rng(config.seed, 0x9e3779b97f4a7c15ULL);
    std::priority_queue<des_event, std::vector<des_event>, std::greater<>> events;
    // FIFO of arrival times of jobs waiting for a context.
    std::queue<double> waiting;

    // Arrival-rate modulation via Lewis-Shedler thinning: candidates fire
    // at the maximum rate and are accepted with probability
    // lambda(t) / lambda_max, which is exact for any piecewise rate.
    bool bursting = false;
    double mode_switch_at = config.modulation.enabled
                                ? rng.exponential(1.0 / config.modulation.mean_calm_dwell_s)
                                : 1e300;
    const double lambda_max = config.modulation.enabled
                                  ? std::max(config.arrival_rate_hz,
                                             config.modulation.burst_arrival_rate_hz)
                                  : config.arrival_rate_hz;
    const auto current_lambda = [&](double t) {
        while (config.modulation.enabled && t >= mode_switch_at) {
            bursting = !bursting;
            const double dwell = bursting ? config.modulation.mean_burst_dwell_s
                                          : config.modulation.mean_calm_dwell_s;
            mode_switch_at += rng.exponential(1.0 / dwell);
        }
        return bursting ? config.modulation.burst_arrival_rate_hz : config.arrival_rate_hz;
    };

    const double end = horizon.value();
    std::uint32_t busy = 0;
    double now = 0.0;
    double last_event_time = 0.0;
    double busy_time_integral = 0.0;   // busy-servers * seconds
    double queue_time_integral = 0.0;  // waiting-jobs * seconds
    double total_response_time = 0.0;
    std::uint64_t completed = 0;

    // In-service jobs are anonymous (exponential service is memoryless);
    // response-time accounting tracks the arrival stamps of jobs entering
    // service through a second FIFO.
    std::queue<double> in_service_arrivals;

    events.push(des_event{rng.exponential(lambda_max), des_event::kind::arrival});

    mmc_result out;
    double next_sample = 0.0;

    const auto record_until = [&](double t) {
        busy_time_integral += busy * (t - last_event_time);
        queue_time_integral += static_cast<double>(waiting.size()) * (t - last_event_time);
        last_event_time = t;
    };

    const auto sample_up_to = [&](double t) {
        while (next_sample <= t && next_sample <= end) {
            const double busy_pct =
                100.0 * static_cast<double>(busy) / static_cast<double>(config.servers);
            out.utilization.push_back(next_sample, busy_pct);
            next_sample += sample_dt.value();
        }
    };

    while (!events.empty()) {
        const des_event ev = events.top();
        if (ev.time > end) {
            break;
        }
        events.pop();
        sample_up_to(ev.time);
        record_until(ev.time);
        now = ev.time;

        if (ev.type == des_event::kind::arrival) {
            // Schedule the next candidate of the (possibly modulated)
            // Poisson stream, then thin the current one.
            events.push(des_event{now + rng.exponential(lambda_max), des_event::kind::arrival});
            if (config.modulation.enabled &&
                rng.next_double() * lambda_max > current_lambda(now)) {
                continue;  // thinned out: no job arrives
            }
            if (busy < config.servers) {
                ++busy;
                in_service_arrivals.push(now);
                events.push(des_event{now + rng.exponential(config.service_rate_hz),
                                      des_event::kind::departure});
            } else {
                waiting.push(now);
            }
        } else {
            // A context frees up; the job's total response time is its
            // sojourn from arrival to departure.
            util::ensure(busy > 0, "simulate_mmc: departure with no busy server");
            util::ensure(!in_service_arrivals.empty(), "simulate_mmc: accounting underflow");
            total_response_time += now - in_service_arrivals.front();
            in_service_arrivals.pop();
            ++completed;
            if (!waiting.empty()) {
                in_service_arrivals.push(waiting.front());
                waiting.pop();
                events.push(des_event{now + rng.exponential(config.service_rate_hz),
                                      des_event::kind::departure});
            } else {
                --busy;
            }
        }
    }
    sample_up_to(end);
    record_until(end);

    out.stats.mean_utilization_pct =
        100.0 * busy_time_integral / (end * static_cast<double>(config.servers));
    out.stats.mean_queue_length = queue_time_integral / end;
    out.stats.mean_response_time_s =
        completed > 0 ? total_response_time / static_cast<double>(completed) : 0.0;
    out.stats.completed_jobs = completed;
    return out;
}

double erlang_c(std::uint32_t servers, double offered_erlangs) {
    util::ensure(servers >= 1, "erlang_c: need at least one server");
    util::ensure(offered_erlangs >= 0.0, "erlang_c: negative offered load");
    util::ensure(offered_erlangs < static_cast<double>(servers), "erlang_c: unstable system");
    // Iterative Erlang-B, then convert to Erlang-C.
    double b = 1.0;
    for (std::uint32_t k = 1; k <= servers; ++k) {
        b = offered_erlangs * b / (static_cast<double>(k) + offered_erlangs * b);
    }
    const double rho = offered_erlangs / static_cast<double>(servers);
    return b / (1.0 - rho + rho * b);
}

utilization_profile mmc_profile(std::string name, const mmc_config& config,
                                util::seconds_t horizon) {
    const mmc_result r = simulate_mmc(config, horizon);
    return profile_from_trace(std::move(name), r.utilization);
}

}  // namespace ltsc::workload
