#include "sim/server_simulator.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ltsc::sim {

server_simulator::server_simulator(const server_config& config)
    : lane_(config, [this](std::size_t s) { return thermal_.cpu_die_temp(0, s); },
            [this] { return thermal_.dimm_temp(0); }),
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

void server_simulator::step(util::seconds_t dt) {
    util::ensure(dt.value() > 0.0, "server_simulator::step: non-positive dt");
    while (lane_.apply_due_faults()) {
        apply_airflow();
    }
    const double u_target = lane_.target_utilization();
    const double u_inst = lane_.instantaneous_utilization();
    lane_.power().apply_heat(thermal_, 0, u_inst, lane_.load_imbalance());
    thermal_.step(dt);
    lane_.advance_clock(dt, u_inst, thermal_.ambient(0));
    trace_.append(lane_.now_s(), lane_.make_row(u_target, u_inst, thermal_.die_temps(0),
                                                thermal_.dimm_temp(0)));
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
    lane_.power().settle(thermal_, 0, 0.0, lane_.load_imbalance());
    trace_.clear();
    lane_.finish_cold_start(thermal_.ambient(0));
}

void server_simulator::settle_at(double u_pct) {
    lane_.power().settle(thermal_, 0, u_pct, lane_.load_imbalance());
    lane_.settle_monitor(u_pct, thermal_.ambient(0));
}

util::watts_t server_simulator::idle_power(util::rpm_t fan_rpm) const {
    return steady_idle_power(config(), fan_rpm);
}

void server_simulator::snapshot_state(server_state& out) const {
    lane_.save_state(out);
    thermal_.save_state(0, out.thermal);
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
    thermal_.restore_state(0, state.thermal);
}

void server_simulator::clear_trace() {
    trace_.clear();
    lane_.clear_telemetry_history();
}

util::watts_t steady_idle_power(const server_config& config, util::rpm_t fan_rpm) {
    // A scratch thermal half, so the query does not disturb any live plant.
    const power::server_power_model power = power_model_for(config);
    const power::fan_bank fans(config.fan_pairs, config.fan, fan_rpm);
    thermal::server_thermal_model scratch(config.thermal);
    std::vector<util::cfm_t> per_zone;
    for (std::size_t i = 0; i < fans.pair_count(); ++i) {
        per_zone.push_back(fans.pair_airflow(i));
    }
    scratch.set_zone_airflow(0, per_zone);
    power.settle(scratch, 0, 0.0, 0.5);  // no CPU load, so the split is moot
    return power.breakdown_at(0.0, scratch.die_temps(0), fans.total_power()).total();
}

}  // namespace ltsc::sim
