#include "sim/server_simulator.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ltsc::sim {

server_simulator::server_simulator(const server_config& config)
    : lane_(config, [this](std::size_t s) { return thermal_.cpu_die_temp(s); },
            [this] { return thermal_.dimm_temp(); }),
      thermal_(config.thermal) {
    apply_airflow();
}

void server_simulator::bind_workload(workload::loadgen generator) {
    lane_.bind_workload(std::move(generator));
    trace_.clear();
}

void server_simulator::bind_workload(const workload::utilization_profile& profile) {
    bind_workload(workload::loadgen(profile));
}

void server_simulator::set_fan_speed(std::size_t pair_index, util::rpm_t rpm) {
    if (lane_.set_fan_speed(pair_index, rpm)) {
        apply_airflow();
    }
}

void server_simulator::set_all_fans(util::rpm_t rpm) {
    if (lane_.set_all_fans(rpm)) {
        apply_airflow();
    }
}

void server_simulator::apply_heat(double u_inst) {
    const lane_heat heat = lane_.heat_at(u_inst, dies());
    for (std::size_t s = 0; s < thermal::server_thermal_model::socket_count(); ++s) {
        thermal_.set_cpu_heat(s, util::watts_t{heat.cpu_w[s]});
    }
    thermal_.set_dimm_heat(util::watts_t{heat.dimm_w});
    thermal_.set_other_heat(util::watts_t{heat.other_w});
}

void server_simulator::step(util::seconds_t dt) {
    util::ensure(dt.value() > 0.0, "server_simulator::step: non-positive dt");
    while (lane_.apply_due_faults()) {
        apply_airflow();
    }
    const double u_target = lane_.target_utilization();
    const double u_inst = lane_.instantaneous_utilization();
    apply_heat(u_inst);
    thermal_.step(dt);
    lane_.advance_clock(dt, u_inst, thermal_.ambient());
    trace_.append(lane_.now_s(), lane_.make_row(u_target, u_inst, dies(), thermal_.dimm_temp()));
    lane_.poll();
}

void server_simulator::advance(util::seconds_t duration, util::seconds_t dt) {
    util::ensure(duration.value() >= 0.0, "server_simulator::advance: negative duration");
    double remaining = duration.value();
    while (remaining > 1e-9) {
        const double h = std::min(remaining, dt.value());
        step(util::seconds_t{h});
        remaining -= h;
    }
}

void server_simulator::force_cold_start() {
    lane_.begin_cold_start();
    apply_airflow();
    // Leakage depends on temperature, which depends on leakage; iterate
    // the outer fixed point until the idle state is self-consistent.
    for (int i = 0; i < 12; ++i) {
        apply_heat(0.0);
        thermal_.settle_to_steady_state();
    }
    trace_.clear();
    lane_.finish_cold_start(thermal_.ambient());
}

void server_simulator::settle_at(double u_pct) {
    for (int i = 0; i < 12; ++i) {
        apply_heat(u_pct);
        thermal_.settle_to_steady_state();
    }
    lane_.settle_monitor(u_pct, thermal_.ambient());
}

util::watts_t server_simulator::idle_power(util::rpm_t fan_rpm) const {
    return steady_idle_power(config(), fan_rpm);
}

void server_simulator::snapshot_state(server_state& out) const {
    lane_.save_state(out);
    thermal_.save_state(out.thermal);
}

server_state server_simulator::snapshot_state() const {
    server_state out;
    snapshot_state(out);
    return out;
}

void server_simulator::restore_state(const server_state& state) {
    lane_.restore_state(state);
    trace_.clear();
    // Airflow-derived conductances recompute from the restored speeds to
    // the exact values the snapshot carries; restore_state then reloads
    // them (a no-op value-wise) along with temperatures and powers.
    apply_airflow();
    thermal_.restore_state(state.thermal);
}

void server_simulator::clear_trace() {
    trace_.clear();
    lane_.clear_telemetry_history();
}

util::watts_t steady_idle_power(const server_config& config, util::rpm_t fan_rpm) {
    // Build a scratch plant so the query does not disturb any live one.
    const power::leakage_model leakage(config.leakage);
    thermal::server_thermal_model scratch(config.thermal);
    power::fan_bank scratch_fans(config.fan_pairs, config.fan, fan_rpm);
    std::vector<util::cfm_t> per_zone;
    for (std::size_t i = 0; i < scratch_fans.pair_count(); ++i) {
        per_zone.push_back(scratch_fans.pair().airflow(scratch_fans.speed(i)));
    }
    scratch.set_zone_airflow(per_zone);
    for (int i = 0; i < 12; ++i) {
        for (std::size_t s = 0; s < thermal::server_thermal_model::socket_count(); ++s) {
            scratch.set_cpu_heat(s, util::watts_t{config.cpu_idle_each_w} +
                                        leakage.share_at(scratch.cpu_die_temp(s), 2));
        }
        scratch.set_dimm_heat(util::watts_t{config.dimm_idle_total_w});
        scratch.set_other_heat(util::watts_t{0.0});
        scratch.settle_to_steady_state();
    }
    util::watts_t leak{0.0};
    for (std::size_t s = 0; s < thermal::server_thermal_model::socket_count(); ++s) {
        leak += leakage.share_at(scratch.cpu_die_temp(s), 2);
    }
    return util::watts_t{config.base_power_w} + leak + scratch_fans.total_power();
}

}  // namespace ltsc::sim
