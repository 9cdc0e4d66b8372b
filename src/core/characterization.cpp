#include "core/characterization.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>

#include "fit/nlls.hpp"
#include "power/fan_model.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/time_series.hpp"

namespace ltsc::core {

double power_model_fit::predict(double utilization_pct, double cpu_temp_c) const {
    return c0_w + k1_w_per_pct * utilization_pct + k2_w * std::exp(k3_per_c * cpu_temp_c);
}

double power_model_fit::leakage_at(double cpu_temp_c) const {
    return k2_w * std::exp(k3_per_c * cpu_temp_c);
}

power_model_fit fit_power_model(const std::vector<sim::steady_point>& points) {
    util::ensure(points.size() >= 8, "fit_power_model: need >= 8 sweep points");
    {
        double u_min = points.front().utilization_pct;
        double u_max = u_min;
        double t_min = points.front().avg_cpu_temp_c;
        double t_max = t_min;
        for (const auto& p : points) {
            u_min = std::min(u_min, p.utilization_pct);
            u_max = std::max(u_max, p.utilization_pct);
            t_min = std::min(t_min, p.avg_cpu_temp_c);
            t_max = std::max(t_max, p.avg_cpu_temp_c);
        }
        util::ensure(u_max - u_min > 1.0, "fit_power_model: no utilization spread");
        util::ensure(t_max - t_min > 1.0, "fit_power_model: no temperature spread");
    }

    // Residuals of P_total - P_fan against c0 + k1 U + k2 e^(k3 T).
    const auto residuals = [&points](const std::vector<double>& p) {
        std::vector<double> r;
        r.reserve(points.size());
        for (const auto& pt : points) {
            const double target = pt.total_power_w - pt.fan_power_w;
            const double model =
                p[0] + p[1] * pt.utilization_pct + p[2] * std::exp(p[3] * pt.avg_cpu_temp_c);
            r.push_back(model - target);
        }
        return r;
    };

    // Starting point: slope from the utilization extremes, a small
    // exponential seed; LM handles the rest.
    const std::vector<double> initial{300.0, 2.0, 0.1, 0.03};
    const fit::nlls_result res = fit::levenberg_marquardt(residuals, initial);

    power_model_fit out;
    out.c0_w = res.parameters[0];
    out.k1_w_per_pct = res.parameters[1];
    out.k2_w = res.parameters[2];
    out.k3_per_c = res.parameters[3];
    out.rmse_w = res.rmse;
    out.converged = res.converged;

    std::vector<double> actual;
    std::vector<double> predicted;
    actual.reserve(points.size());
    predicted.reserve(points.size());
    for (const auto& pt : points) {
        actual.push_back(pt.total_power_w - pt.fan_power_w);
        predicted.push_back(out.predict(pt.utilization_pct, pt.avg_cpu_temp_c));
    }
    out.r_squared = util::r_squared(actual, predicted);
    return out;
}

fan_lut build_lut(const std::vector<sim::steady_point>& points, const power_model_fit& fit,
                  const lut_build_options& options) {
    util::ensure(!points.empty(), "build_lut: no sweep points");
    const std::vector<util::rpm_t> candidates =
        options.candidate_rpms.empty() ? power::paper_rpm_settings() : options.candidate_rpms;
    util::ensure(!candidates.empty(), "build_lut: no candidate RPMs");

    // Group the sweep by utilization level.
    std::map<double, std::vector<const sim::steady_point*>> by_util;
    for (const auto& p : points) {
        by_util[p.utilization_pct].push_back(&p);
    }

    std::vector<lut_entry> entries;
    for (const auto& [util_pct, group] : by_util) {
        const sim::steady_point* best = nullptr;
        double best_cost = 0.0;
        const sim::steady_point* fastest = nullptr;
        for (util::rpm_t rpm : candidates) {
            // Find the sweep point at this (utilization, rpm).
            const sim::steady_point* match = nullptr;
            for (const sim::steady_point* p : group) {
                if (std::fabs(p->fan_rpm - rpm.value()) < 1.0) {
                    match = p;
                    break;
                }
            }
            if (match == nullptr) {
                continue;
            }
            if (fastest == nullptr || match->fan_rpm > fastest->fan_rpm) {
                fastest = match;
            }
            if (match->avg_cpu_temp_c > options.max_cpu_temp_c) {
                continue;  // violates the reliability cap
            }
            const double cost = match->fan_power_w + fit.leakage_at(match->avg_cpu_temp_c);
            if (best == nullptr || cost < best_cost) {
                best = match;
                best_cost = cost;
            }
        }
        const sim::steady_point* chosen = best != nullptr ? best : fastest;
        util::ensure(chosen != nullptr, "build_lut: no candidate matched the sweep grid");
        lut_entry e;
        e.utilization_pct = util_pct;
        e.rpm = util::rpm_t{chosen->fan_rpm};
        e.expected_cpu_temp_c = chosen->avg_cpu_temp_c;
        e.expected_fan_leak_w = chosen->fan_power_w + fit.leakage_at(chosen->avg_cpu_temp_c);
        entries.push_back(e);
    }
    return fan_lut(std::move(entries));
}

std::vector<sim::steady_point> measure_protocol_sweep(sim::server_simulator& sim,
                                                      const std::vector<double>& utilizations,
                                                      const std::vector<util::rpm_t>& fan_speeds,
                                                      const sim::protocol_timing& timing) {
    util::ensure(!utilizations.empty() && !fan_speeds.empty(),
                 "measure_protocol_sweep: empty sweep axes");
    const workload::loadgen_config lg{};
    // What CSTH logs at each poll: the 4 CPU sensors, system power and
    // fan power.  The plant keeps only the latest poll, so the sweep
    // samples every poll itself (a step that polled leaves age 0).
    std::array<util::time_series, 6> polls;
    const auto sample_poll = [&sim, &polls] {
        const double t = sim.now().value();
        for (std::size_t i = 0; i < 4; ++i) {
            polls[i].push_back(t, sim.cpu_sensor_temps()[i]);
        }
        const power::power_breakdown p = sim.current_power();
        polls[4].push_back(t, p.total().value());
        polls[5].push_back(t, p.fan.value());
    };
    std::vector<sim::steady_point> out;
    out.reserve(utilizations.size() * fan_speeds.size());
    for (double u : utilizations) {
        for (util::rpm_t rpm : fan_speeds) {
            // run_protocol_experiment's timeline, sampling each poll.
            sim.bind_workload(sim::protocol_workload(u, timing, lg));
            sim.force_cold_start();
            polls = {};
            sample_poll();  // the cold-start poll, taken before the fans move
            sim.set_all_fans(rpm);
            double remaining = timing.total().value();
            while (remaining > 1e-9) {
                const double h = std::min(remaining, 1.0);
                sim.step(util::seconds_t{h});
                remaining -= h;
                if (sim.telemetry_age_s() == 0.0) {
                    sample_poll();
                }
            }
            // Measurement window: the settled tail of the load phase.  The
            // span must be an integer number of LoadGen PWM periods or the
            // duty-cycle average is biased by the partial period.
            const double w1 = timing.stabilization.value() + timing.load_window.value();
            const double periods =
                std::floor(std::min(600.0, timing.load_window.value() * 0.4) /
                           lg.pwm_period.value());
            const double span = std::max(1.0, periods) * lg.pwm_period.value();
            const double w0 = std::max(timing.stabilization.value(), w1 - span);

            sim::steady_point p;
            p.utilization_pct = u;
            p.fan_rpm = rpm.value();
            p.avg_cpu_temp_c = 0.25 * (polls[0].mean(w0, w1) + polls[1].mean(w0, w1) +
                                       polls[2].mean(w0, w1) + polls[3].mean(w0, w1));
            p.dimm_temp_c = sim.trace().dimm_temp().mean(w0, w1);
            p.fan_power_w = polls[5].mean(w0, w1);
            p.total_power_w = polls[4].mean(w0, w1);
            out.push_back(p);
        }
    }
    return out;
}

characterization_result characterize(sim::server_simulator& sim,
                                     const lut_build_options& options) {
    characterization_result out;
    std::vector<double> utils = sim::paper_utilization_levels();
    // Include idle so the LUT has an entry for near-zero utilization.
    utils.insert(utils.begin(), 0.0);
    const std::vector<util::rpm_t> rpms =
        options.candidate_rpms.empty() ? power::paper_rpm_settings() : options.candidate_rpms;
    out.sweep = sim::run_steady_sweep(sim, utils, rpms);
    out.fit = fit_power_model(out.sweep);
    out.lut = build_lut(out.sweep, out.fit, options);
    return out;
}

}  // namespace ltsc::core
