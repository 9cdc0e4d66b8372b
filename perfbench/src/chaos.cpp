// chaos: seeded fault-campaign sweeps over a parallel_runner.
//
// Every campaign is a 900 s healthy/faulted twin pair on the scalar
// server_simulator under Failsafe(Bang).  Campaigns alternate between
// the survivable class with the residual monitor off and the
// drifting_sensor class with it on, so the monitor's cost shows from
// outside.  It is the only workload on server_simulator, fault_schedule,
// core::fault_monitor and failsafe_controller; server_batch and the
// rollout layers do nothing here.
#include <cstring>
#include <vector>

#include "bench.hpp"
#include "sim/fault_campaign.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/server_simulator.hpp"
#include "util/log.hpp"

namespace perfbench {

namespace {

using namespace ltsc;

// Campaigns per parallel_runner round.  Round 0 is the warm-up whose
// detection statistics are reported (a fixed set of campaigns, so they
// are a function of the seed alone); it is checked but not timed.
constexpr std::size_t kRoundCampaigns = 1024;
constexpr std::size_t kSetups = 101;
// Campaign seeds come from the ranges the campaign limits were
// calibrated over (sim/fault_campaign.hpp: 5000 survivable seeds, 1000
// drifting_sensor seeds); --seed picks where in each range a run starts.
// Arbitrary 64-bit seeds can breach the fan-fault envelope (see
// perfbench/README.md), which would make the output check fail.
constexpr std::uint64_t kSurvivableSeeds = 5000;
constexpr std::uint64_t kDriftingSeeds = 1000;

/// Campaign seed of the run's g-th campaign (even: survivable, odd:
/// drifting_sensor).
std::uint64_t campaign_seed(std::uint64_t seed, std::size_t g) {
    const bool drifting = g % 2 == 1;
    const std::uint64_t range = drifting ? kDriftingSeeds : kSurvivableSeeds;
    const std::uint64_t offset = derive_seed(seed, drifting ? 1 : 0) % range;
    return 1 + (offset + g / 2) % range;
}

struct campaign_out {
    sim::fault_campaign_result result;
    bool monitored = false;
    double wall_s = 0.0;
};

campaign_out run_one(std::uint64_t seed, bool drifting) {
    sim::fault_campaign_options options;
    options.fault_class =
        drifting ? sim::campaign_class::drifting_sensor : sim::campaign_class::survivable;
    options.monitored = drifting;
    campaign_out out;
    out.monitored = drifting;
    const double t0 = now_s();
    {
        scoped_span span(drifting ? "sim.fault_campaign.run.drifting_sensor"
                                  : "sim.fault_campaign.run.survivable");
        out.result = sim::run_fault_campaign(seed, options);
    }
    out.wall_s = now_s() - t0;
    return out;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool same_detection(const sim::detection_summary& a, const sim::detection_summary& b) {
    return a.samples == b.samples && a.alarm_steps == b.alarm_steps &&
           a.fault_onsets == b.fault_onsets && a.detected == b.detected &&
           same_bits(a.mean_time_to_detect_s, b.mean_time_to_detect_s) &&
           same_bits(a.max_time_to_detect_s, b.max_time_to_detect_s);
}

bool same_outputs(const std::vector<campaign_out>& a, const std::vector<campaign_out>& b) {
    for (std::size_t i = 0; i < a.size(); ++i) {
        const sim::fault_campaign_result& x = a[i].result;
        const sim::fault_campaign_result& y = b[i].result;
        if (x.schedule.size() != y.schedule.size() ||
            !same_bits(x.healthy.energy_kwh, y.healthy.energy_kwh) ||
            !same_bits(x.faulted.energy_kwh, y.faulted.energy_kwh) ||
            !same_bits(x.healthy_max_die_c, y.healthy_max_die_c) ||
            !same_bits(x.faulted_max_die_c, y.faulted_max_die_c) ||
            !same_detection(x.healthy_detection, y.healthy_detection) ||
            !same_detection(x.faulted_detection, y.faulted_detection)) {
            return false;
        }
    }
    return true;
}

struct phase_out {
    std::size_t campaigns = 0;  ///< Timed campaigns.
    double wall_s = 0.0;        ///< Host seconds of the timed rounds.
    chunk_stats rounds;         ///< Per timed round: server-s/s and campaign wall [ms].
    std::vector<double> wall_ms[2];      ///< Timed campaign walls: [0] monitor off, [1] on.
    std::vector<double> task_imbalance;  ///< Per timed round: slowest / mean campaign wall.
    std::vector<campaign_out> first_round;
    std::vector<double> detect_s;  ///< Warm-up drifting campaigns' mean time to detect.
    std::size_t onsets = 0;
    std::size_t detected = 0;
    std::string first_failure;
};

phase_out run_phase(const run_options& options, double budget_s, check_tally& checks) {
    sim::parallel_runner runner(worker_threads());
    const sim::fault_campaign_limits limits;
    phase_out out;
    double timed_s = 0.0;
    for (std::size_t r = 0; r == 0 || timed_s < budget_s; ++r) {
        set_run_id(static_cast<std::uint32_t>(r));
        const std::size_t base = r * kRoundCampaigns;
        const double t0 = now_s();
        std::vector<campaign_out> round =
            runner.map<campaign_out>(kRoundCampaigns, [&](std::size_t i) {
                return run_one(campaign_seed(options.seed, base + i), i % 2 == 1);
            });
        const double wall = now_s() - t0;
        double server_s = 0.0;
        double slowest = 0.0;
        double total = 0.0;
        std::vector<double> wall_ms;
        for (std::size_t i = 0; i < round.size(); ++i) {
            const campaign_out& c = round[i];
            // Output checks: the calibrated envelope and regret limits
            // hold, and the healthy twin raises no alarm.
            const auto violation = sim::campaign_violation(c.result, limits);
            const bool quiet = c.result.healthy_detection.alarm_steps == 0;
            const bool within = checks.check(!violation.has_value());
            if (!(checks.check(quiet) && within) && out.first_failure.empty()) {
                out.first_failure = format(
                    "campaign %zu (seed %llu, %s): %s", base + i,
                    static_cast<unsigned long long>(campaign_seed(options.seed, base + i)),
                    sim::to_string(c.result.fault_class),
                    violation.has_value() ? violation->c_str() : "healthy-leg false alarm");
            }
            server_s += c.result.healthy.duration_s + c.result.faulted.duration_s;
            wall_ms.push_back(c.wall_s * 1e3);
            slowest = std::max(slowest, c.wall_s);
            total += c.wall_s;
            if (r == 0 && c.monitored) {
                out.onsets += c.result.faulted_detection.fault_onsets;
                out.detected += c.result.faulted_detection.detected;
                if (c.result.faulted_detection.detected > 0) {
                    out.detect_s.push_back(c.result.faulted_detection.mean_time_to_detect_s);
                }
            }
        }
        if (r == 0) {
            out.first_round = std::move(round);
            continue;
        }
        timed_s += wall;
        out.wall_s += wall;
        out.campaigns += round.size();
        std::vector<double> monitored_ms;
        for (std::size_t i = 0; i < round.size(); ++i) {
            out.wall_ms[round[i].monitored ? 1 : 0].push_back(wall_ms[i]);
            if (round[i].monitored) {
                monitored_ms.push_back(wall_ms[i]);
            }
        }
        // The unit operation is a monitored campaign: the two classes
        // differ in cost, and a percentile over the mix would sit on the
        // boundary between them.
        out.rounds.add(server_s, wall, monitored_ms);
        out.task_imbalance.push_back(slowest / (total / static_cast<double>(round.size())));
    }
    return out;
}

}  // namespace

workload_result run_chaos(const run_options& options) {
    util::set_log_level(util::log_level::warn);
    workload_result res;
    // Setup: everything before the first campaign — the worker pool and
    // a first build of the monitored plant the legs construct.
    std::vector<double> setup_s;
    for (std::size_t i = 0; i < kSetups; ++i) {
        const double t0 = now_s();
        sim::parallel_runner runner(worker_threads());
        sim::server_config config;
        config.monitor.enabled = true;
        const sim::server_simulator plant(config);
        setup_s.push_back(now_s() - t0);
        res.pool_threads = runner.thread_count();
    }

    phase_out measured;
    if (!options.trace) {
        measured = run_phase(options, options.seconds, res.checks);
    } else {
        const phase_out plain = run_phase(options, options.seconds / 2.0, res.checks);
        set_tracing(true);
        measured = run_phase(options, options.seconds / 2.0, res.checks);
        set_tracing(false);
        res.checks.check(same_outputs(plain.first_round, measured.first_round));
        res.layer["trace.overhead_ratio"] =
            measured.rounds.best_rate() / plain.rounds.best_rate();
    }

    const chunk_stats& rounds = measured.rounds;
    const double detect_p50 = median(measured.detect_s);
    res.end_to_end["setup_s"] = quantile(setup_s, 0.25);
    res.end_to_end["sim_server_s_per_s"] = rounds.best_rate();
    res.end_to_end["peak_rss_mb"] = peak_rss_mb();
    res.end_to_end["op_p50_ms"] = rounds.best_p50();

    res.notes.push_back(format("%zu timed campaigns in %zu rounds after a %zu-campaign warm-up, "
                               "host %.3f s",
                               measured.campaigns, rounds.rate.size(), kRoundCampaigns,
                               measured.wall_s));
    const tail_stat p99 = rounds.pooled_tail(0.99);
    res.notes.push_back(format("monitored campaign_p50_ms %.4f (best quartile of rounds), "
                               "campaign_p90_ms %.4f (median of rounds); campaign_p99_ms %.4f "
                               "(p%.2f of all %zu monitored campaigns)",
                               rounds.best_p50(), rounds.median_p90(), p99.value,
                               100.0 * p99.quantile, p99.samples));
    res.notes.push_back(format("detect_p50_s %.4f over %zu detecting drifting_sensor campaigns; "
                               "%zu/%zu onsets detected (simulated, warm-up round)",
                               detect_p50, measured.detect_s.size(), measured.detected,
                               measured.onsets));
    if (!measured.first_failure.empty()) {
        res.notes.push_back("first failure: " + measured.first_failure);
    }

    if (options.trace) {
        const span_set spans(collect_spans());
        auto& L = res.layer;
        const tail_stat off50 = tail_percentile(measured.wall_ms[0], 0.50);
        const tail_stat off99 = tail_percentile(measured.wall_ms[0], 0.99);
        const tail_stat on50 = tail_percentile(measured.wall_ms[1], 0.50);
        const tail_stat on99 = tail_percentile(measured.wall_ms[1], 0.99);
        L["sim.fault_campaign.run.survivable.p50_ms"] = off50.value;
        L["sim.fault_campaign.run.survivable.p99_ms"] = off99.value;
        L["sim.fault_campaign.run.drifting_sensor.p50_ms"] = on50.value;
        L["sim.fault_campaign.run.drifting_sensor.p99_ms"] = on99.value;
        L["core.fault_monitor.overhead_ratio"] =
            mean(measured.wall_ms[1]) / mean(measured.wall_ms[0]);
        L["core.fault_monitor.onsets"] = static_cast<double>(measured.onsets);
        L["core.fault_monitor.detected"] = static_cast<double>(measured.detected);
        L["core.fault_monitor.detect_ratio"] =
            static_cast<double>(measured.detected) /
            static_cast<double>(std::max<std::size_t>(1, measured.onsets));
        L["sim.parallel_runner.task_imbalance"] = mean(measured.task_imbalance);
        L["sim.detect_p50_s"] = detect_p50;
        L["trace.spans"] = static_cast<double>(spans.spans().size());
        if (!options.spans_path.empty() && !write_spans_csv(spans.spans(), options.spans_path)) {
            res.notes.push_back("warning: could not write " + options.spans_path);
        }
    }
    return res;
}

}  // namespace perfbench
