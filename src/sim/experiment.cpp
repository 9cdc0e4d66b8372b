#include "sim/experiment.hpp"

#include "util/error.hpp"
#include "workload/profile.hpp"

namespace ltsc::sim {

workload::loadgen protocol_workload(double duty_pct, const protocol_timing& timing,
                                   const workload::loadgen_config& lg) {
    util::ensure(duty_pct >= 0.0 && duty_pct <= 100.0, "protocol_workload: duty out of [0, 100]");
    workload::utilization_profile profile("protocol");
    profile.idle(timing.stabilization);
    if (duty_pct > 0.0) {
        profile.constant(duty_pct, timing.load_window);
    } else {
        profile.idle(timing.load_window);
    }
    profile.idle(timing.cooldown);
    return workload::loadgen(std::move(profile), lg);
}

void run_protocol_experiment(server_simulator& sim, util::rpm_t fan_rpm, double duty_pct,
                             const protocol_timing& timing, const workload::loadgen_config& lg) {
    sim.bind_workload(protocol_workload(duty_pct, timing, lg));
    sim.force_cold_start();
    sim.set_all_fans(fan_rpm);
    sim.advance(timing.total());
}

steady_point measure_steady_point(server_simulator& sim, double utilization_pct,
                                  util::rpm_t fan_rpm) {
    util::ensure(utilization_pct >= 0.0 && utilization_pct <= 100.0,
                 "measure_steady_point: utilization out of [0, 100]");
    sim.set_all_fans(fan_rpm);
    sim.settle_at(utilization_pct);

    steady_point p;
    p.utilization_pct = utilization_pct;
    p.fan_rpm = sim.average_fan_rpm().value();
    p.avg_cpu_temp_c = sim.true_avg_cpu_temp().value();
    p.dimm_temp_c = sim.true_dimm_temp().value();

    // Build the breakdown at the settled temperatures.  The simulator's
    // breakdown uses the bound workload's instantaneous utilization, so we
    // assemble the steady numbers from the component models directly.
    const power::power_breakdown live = sim.current_power();
    p.fan_power_w = live.fan.value();
    p.leakage_power_w = live.leakage.value();
    p.active_power_w = sim.config().active_coeff_w_per_pct * utilization_pct;
    p.total_power_w = sim.config().base_power_w + p.active_power_w + p.leakage_power_w +
                      p.fan_power_w;
    return p;
}

std::vector<steady_point> run_steady_sweep(server_simulator& sim,
                                           const std::vector<double>& utilizations,
                                           const std::vector<util::rpm_t>& fan_speeds) {
    util::ensure(!utilizations.empty() && !fan_speeds.empty(),
                 "run_steady_sweep: empty sweep axes");
    std::vector<steady_point> out;
    out.reserve(utilizations.size() * fan_speeds.size());
    for (double u : utilizations) {
        for (util::rpm_t rpm : fan_speeds) {
            out.push_back(measure_steady_point(sim, u, rpm));
        }
    }
    return out;
}

std::vector<double> paper_utilization_levels() {
    return {10.0, 25.0, 40.0, 50.0, 60.0, 75.0, 90.0, 100.0};
}

}  // namespace ltsc::sim
