#include "sim/server_batch.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ltsc::sim {

namespace {

std::vector<thermal::server_thermal_config> thermal_configs(
    const std::vector<server_config>& configs) {
    util::ensure(!configs.empty(), "server_batch: need at least one lane");
    std::vector<thermal::server_thermal_config> out;
    out.reserve(configs.size());
    for (const server_config& c : configs) {
        out.push_back(c.thermal);
    }
    return out;
}

}  // namespace

server_batch::server_batch(std::vector<server_config> configs)
    : thermal_(thermal_configs(configs)), traces_(configs.size()), active_(configs.size(), 1) {
    lanes_.reserve(configs.size());
    for (std::size_t l = 0; l < configs.size(); ++l) {
        lanes_.emplace_back(configs[l]);
        thermal_.set_zone_airflow(l, lanes_[l].zone_airflow());
    }
}

server_batch::server_batch(const server_config& config, std::size_t lanes)
    : server_batch(std::vector<server_config>(lanes, config)) {}

server_lane& server_batch::at(std::size_t lane) {
    util::ensure(lane < lanes_.size(), "server_batch: lane out of range");
    return lanes_[lane];
}

const server_lane& server_batch::at(std::size_t lane) const {
    util::ensure(lane < lanes_.size(), "server_batch: lane out of range");
    return lanes_[lane];
}

void server_batch::bind_workload(std::size_t lane, workload::loadgen generator) {
    at(lane).bind_workload(std::move(generator));
    traces_.clear(lane);
    set_lane_active(lane, true);
}

void server_batch::bind_workload(std::size_t lane, const workload::utilization_profile& profile) {
    bind_workload(lane, workload::loadgen(profile));
}

void server_batch::set_fan_speed(std::size_t lane, std::size_t pair_index, util::rpm_t rpm) {
    server_lane& ln = at(lane);
    if (ln.set_fan_speed(pair_index, rpm)) {
        thermal_.set_zone_airflow(lane, ln.zone_airflow());
    }
}

void server_batch::set_all_fans(std::size_t lane, util::rpm_t rpm) {
    server_lane& ln = at(lane);
    if (ln.set_all_fans(rpm)) {
        thermal_.set_zone_airflow(lane, ln.zone_airflow());
    }
}

void server_batch::bind_fault_schedule(std::size_t lane, fault_schedule schedule) {
    server_lane& ln = at(lane);
    if (ln.bind_fault_schedule(std::move(schedule))) {
        thermal_.set_zone_airflow(lane, ln.zone_airflow());
    }
}

void server_batch::clear_fault_schedule(std::size_t lane) {
    server_lane& ln = at(lane);
    if (ln.clear_fault_schedule()) {
        thermal_.set_zone_airflow(lane, ln.zone_airflow());
    }
}

void server_batch::snapshot_lane_state(std::size_t lane, server_state& out) const {
    at(lane).save_state(out);
    thermal_.save_state(lane, out.thermal);
}

void server_batch::load_lane_state(std::size_t lane, const server_state& state) {
    server_lane& ln = at(lane);
    ln.restore_state(state);
    traces_.clear(lane);
    // Recompute the airflow-derived conductances from the restored speeds
    // (bitwise-identical to the snapshot's), then reload the thermal lane
    // on top.
    thermal_.set_zone_airflow(lane, ln.zone_airflow());
    thermal_.restore_state(lane, state.thermal);
    set_lane_active(lane, true);
}

void server_batch::step(util::seconds_t dt) {
    util::ensure(dt.value() > 0.0, "server_batch::step: non-positive dt");
    const std::size_t n = lanes_.size();
    if (inert_count_ == n) {
        return;
    }
    u_target_scratch_.resize(n);
    u_inst_scratch_.resize(n);
    for (std::size_t l = 0; l < n; ++l) {
        if (active_[l] == 0) {
            continue;
        }
        server_lane& ln = lanes_[l];
        while (ln.apply_due_faults()) {
            thermal_.set_zone_airflow(l, ln.zone_airflow());
        }
        u_target_scratch_[l] = ln.target_utilization();
        u_inst_scratch_[l] = ln.instantaneous_utilization();
        ln.power().apply_heat(thermal_, l, u_inst_scratch_[l], ln.load_imbalance());
    }
    thermal_.step(dt, inert_count_ == 0 ? nullptr : active_.data());
    for (std::size_t l = 0; l < n; ++l) {
        if (active_[l] == 0) {
            continue;
        }
        server_lane& ln = lanes_[l];
        ln.advance_clock(dt, u_inst_scratch_[l], thermal_.ambient(l));
        const die_temps die = thermal_.die_temps(l);
        const util::celsius_t dimm = thermal_.dimm_temp(l);
        traces_.append(l, ln.now_s(),
                       ln.make_row(u_target_scratch_[l], u_inst_scratch_[l], die, dimm));
        ln.poll(die, dimm);
    }
}

void server_batch::set_lane_active(std::size_t lane, bool active) {
    static_cast<void>(at(lane));
    const unsigned char flag = active ? 1 : 0;
    if (active_[lane] == flag) {
        return;
    }
    active_[lane] = flag;
    if (active) {
        --inert_count_;
    } else {
        ++inert_count_;
    }
}

bool server_batch::lane_active(std::size_t lane) const {
    static_cast<void>(at(lane));
    return active_[lane] != 0;
}

void server_batch::advance(util::seconds_t duration, util::seconds_t dt) {
    util::ensure(duration.value() >= 0.0, "server_batch::advance: negative duration");
    double remaining = duration.value();
    while (remaining > 1e-9) {
        const double h = std::min(remaining, dt.value());
        step(util::seconds_t{h});
        remaining -= h;
    }
}

void server_batch::force_cold_start(std::size_t lane) {
    server_lane& ln = at(lane);
    ln.begin_cold_start();
    thermal_.set_zone_airflow(lane, ln.zone_airflow());
    ln.power().settle(thermal_, lane, 0.0, ln.load_imbalance());
    traces_.clear(lane);
    set_lane_active(lane, true);
    ln.finish_cold_start(thermal_.ambient(lane), thermal_.die_temps(lane),
                         thermal_.dimm_temp(lane));
}

void server_batch::force_cold_start() {
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
        force_cold_start(l);
    }
}

void server_batch::settle_at(std::size_t lane, double u_pct) {
    server_lane& ln = at(lane);
    ln.power().settle(thermal_, lane, u_pct, ln.load_imbalance());
    ln.settle_monitor(u_pct, thermal_.ambient(lane));
}

util::watts_t server_batch::idle_power(std::size_t lane, util::rpm_t fan_rpm) const {
    return steady_idle_power(at(lane).config(), fan_rpm);
}

trace_view server_batch::trace(std::size_t lane) const {
    static_cast<void>(at(lane));
    return traces_.lane(lane);
}

void server_batch::clear_trace(std::size_t lane) {
    at(lane).clear_telemetry_history();
    traces_.clear(lane);
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
