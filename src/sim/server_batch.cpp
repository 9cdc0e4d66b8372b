#include "sim/server_batch.hpp"

#include <algorithm>
#include <array>

#include "util/error.hpp"

namespace ltsc::sim {

namespace {

const server_config& front_checked(const std::vector<server_config>& configs) {
    util::ensure(!configs.empty(), "server_batch: need at least one lane");
    return configs.front();
}

}  // namespace

server_batch::server_batch(std::vector<server_config> configs)
    : proto_(front_checked(configs).thermal),
      batch_(proto_.network(), configs.size(), thermal::integration_scheme::rk4),
      traces_(configs.size()),
      active_(configs.size(), 1) {
    lanes_.reserve(configs.size());
    airflow_.reserve(configs.size());
    for (std::size_t l = 0; l < configs.size(); ++l) {
        init_lane(l, configs[l]);
    }
}

server_batch::server_batch(const server_config& config, std::size_t lanes)
    : server_batch(std::vector<server_config>(lanes, config)) {}

server_lane& server_batch::at(std::size_t lane) {
    util::ensure(lane < lanes_.size(), "server_batch: lane out of range");
    return *lanes_[lane];
}

const server_lane& server_batch::at(std::size_t lane) const {
    util::ensure(lane < lanes_.size(), "server_batch: lane out of range");
    return *lanes_[lane];
}

die_temps server_batch::dies(std::size_t lane) const {
    return {batch_.temperature(proto_.die_node(0), lane).value(),
            batch_.temperature(proto_.die_node(1), lane).value()};
}

void server_batch::init_lane(std::size_t lane, const server_config& config) {
    // Sensor channel registration order inside the lane fixes the RNG
    // draw order, exactly as in the scalar plant.
    lanes_.push_back(std::make_unique<server_lane>(
        config,
        [this, lane](std::size_t s) { return batch_.temperature(proto_.die_node(s), lane); },
        [this, lane] { return batch_.temperature(proto_.dimm_node(), lane); }));
    const thermal::server_thermal_config& th = config.thermal;
    airflow_.emplace_back(th);

    // Thermal lane state as the server_thermal_model constructor builds
    // it: nodes at ambient, per-lane capacities and die-sink conduction.
    // The convective edges follow the lane's fans below.
    batch_.set_ambient(lane, util::celsius_t{th.ambient_c});
    for (std::size_t s = 0; s < thermal::server_thermal_model::socket_count(); ++s) {
        batch_.set_heat_capacity(proto_.die_node(s), lane, th.c_die);
        batch_.set_heat_capacity(proto_.sink_node(s), lane, th.c_sink);
        batch_.set_temperature(proto_.die_node(s), lane, util::celsius_t{th.ambient_c});
        batch_.set_temperature(proto_.sink_node(s), lane, util::celsius_t{th.ambient_c});
        batch_.set_conductance(proto_.die_sink_edge(s), lane, 1.0 / th.r_junction_sink);
    }
    batch_.set_heat_capacity(proto_.dimm_node(), lane, th.c_dimm);
    batch_.set_temperature(proto_.dimm_node(), lane, util::celsius_t{th.ambient_c});
    apply_airflow(lane);
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
    if (at(lane).set_fan_speed(pair_index, rpm)) {
        apply_airflow(lane);
    }
}

void server_batch::set_all_fans(std::size_t lane, util::rpm_t rpm) {
    if (at(lane).set_all_fans(rpm)) {
        apply_airflow(lane);
    }
}

void server_batch::bind_fault_schedule(std::size_t lane, fault_schedule schedule) {
    if (at(lane).bind_fault_schedule(std::move(schedule))) {
        apply_airflow(lane);
    }
}

void server_batch::clear_fault_schedule(std::size_t lane) {
    if (at(lane).clear_fault_schedule()) {
        apply_airflow(lane);
    }
}

void server_batch::snapshot_lane_state(std::size_t lane, server_state& out) const {
    at(lane).save_state(out);
    batch_.save_lane_state(lane, out.thermal);
}

void server_batch::load_lane_state(std::size_t lane, const server_state& state) {
    at(lane).restore_state(state);
    traces_.clear(lane);
    // Recompute the airflow-derived conductances from the restored speeds
    // (bitwise-identical to the snapshot's), then reload the thermal lane
    // on top.
    apply_airflow(lane);
    batch_.load_lane_state(lane, state.thermal);
    set_lane_active(lane, true);
}

void server_batch::apply_airflow(std::size_t lane) {
    thermal::server_airflow& air = airflow_[lane];
    air.set_zone_airflow(lanes_[lane]->zone_airflow());
    for (std::size_t s = 0; s < thermal::server_thermal_model::socket_count(); ++s) {
        batch_.set_conductance(proto_.sink_ambient_edge(s), lane, air.sink_conductance(s));
    }
    batch_.set_conductance(proto_.dimm_ambient_edge(), lane, air.dimm_conductance());
}

void server_batch::apply_heat(std::size_t lane, double u_inst) {
    // The batch exposes no exhaust-air query, so "other" heat has nowhere
    // to go; heat_at still validates it like the scalar plant.
    const server_lane& ln = *lanes_[lane];
    const power::server_heat heat = ln.power().heat_at(u_inst, ln.load_imbalance(), dies(lane));
    for (std::size_t s = 0; s < thermal::server_thermal_model::socket_count(); ++s) {
        batch_.set_power(proto_.die_node(s), lane, util::watts_t{heat.cpu_w[s]});
    }
    batch_.set_power(proto_.dimm_node(), lane, util::watts_t{heat.dimm_w});
}

void server_batch::update_preheat(std::size_t lane) {
    const std::array<double, 2> preheat_w = airflow_[lane].sink_preheat_w(
        batch_.diagonal(proto_.dimm_node(), lane), batch_.temperature(proto_.dimm_node(), lane),
        batch_.ambient(lane));
    for (std::size_t s = 0; s < thermal::server_thermal_model::socket_count(); ++s) {
        batch_.set_power(proto_.sink_node(s), lane, util::watts_t{preheat_w[s]});
    }
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
        server_lane& ln = *lanes_[l];
        while (ln.apply_due_faults()) {
            apply_airflow(l);
        }
        u_target_scratch_[l] = ln.target_utilization();
        u_inst_scratch_[l] = ln.instantaneous_utilization();
        apply_heat(l, u_inst_scratch_[l]);
        update_preheat(l);
    }
    batch_.step(dt, inert_count_ == 0 ? nullptr : active_.data());
    for (std::size_t l = 0; l < n; ++l) {
        if (active_[l] == 0) {
            continue;
        }
        server_lane& ln = *lanes_[l];
        ln.advance_clock(dt, u_inst_scratch_[l], batch_.ambient(l));
        traces_.append(l, ln.now_s(),
                       ln.make_row(u_target_scratch_[l], u_inst_scratch_[l], dies(l),
                                   batch_.temperature(proto_.dimm_node(), l)));
        ln.poll();
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

void server_batch::settle(std::size_t lane, double u_pct) {
    // The scalar plant's nesting: power::server_power_model::settle around
    // server_thermal_model::settle_to_steady_state.
    for (int i = 0; i < power::server_power_model::settle_rounds; ++i) {
        apply_heat(lane, u_pct);
        for (int j = 0; j < thermal::server_airflow::preheat_rounds; ++j) {
            update_preheat(lane);
            batch_.settle_lane(lane);
        }
    }
}

void server_batch::force_cold_start(std::size_t lane) {
    server_lane& ln = at(lane);
    ln.begin_cold_start();
    apply_airflow(lane);
    settle(lane, 0.0);
    traces_.clear(lane);
    set_lane_active(lane, true);
    ln.finish_cold_start(batch_.ambient(lane));
}

void server_batch::force_cold_start() {
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
        force_cold_start(l);
    }
}

void server_batch::settle_at(std::size_t lane, double u_pct) {
    settle(lane, u_pct);
    at(lane).settle_monitor(u_pct, batch_.ambient(lane));
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

}  // namespace ltsc::sim
