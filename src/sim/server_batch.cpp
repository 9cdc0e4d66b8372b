#include "sim/server_batch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "thermal/airflow.hpp"
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
    for (std::size_t l = 0; l < configs.size(); ++l) {
        init_lane(l, validated(configs[l]));
    }
}

server_batch::server_batch(const server_config& config, std::size_t lanes)
    : server_batch(std::vector<server_config>(lanes, config)) {}

server_batch::lane_state& server_batch::at(std::size_t lane) {
    util::ensure(lane < lanes_.size(), "server_batch: lane out of range");
    return *lanes_[lane];
}

const server_batch::lane_state& server_batch::at(std::size_t lane) const {
    util::ensure(lane < lanes_.size(), "server_batch: lane out of range");
    return *lanes_[lane];
}

double server_batch::die_temp(std::size_t lane, std::size_t socket) const {
    return batch_.temperature(proto_.die_node(socket), lane).value();
}

void server_batch::init_lane(std::size_t lane, const server_config& config) {
    const thermal::server_thermal_config& th = config.thermal;
    // Same invariants server_thermal_model enforces for the scalar plant.
    util::ensure(th.fan_zones >= 1, "server_batch: need at least one fan zone");
    util::ensure(th.r_junction_sink > 0.0, "server_batch: bad junction resistance");
    util::ensure(th.zone_mixing >= 0.0 && th.zone_mixing <= 1.0,
                 "server_batch: zone_mixing out of [0, 1]");
    util::ensure(th.ref_airflow_cfm > 0.0, "server_batch: bad reference airflow");

    lanes_.push_back(std::make_unique<lane_state>(config));
    lane_state& ln = *lanes_[lane];

    // Thermal lane state, mirroring the server_thermal_model constructor:
    // nodes start at ambient, convective edges at their reference values.
    batch_.set_ambient(lane, util::celsius_t{th.ambient_c});
    for (std::size_t s = 0; s < thermal::server_thermal_model::socket_count(); ++s) {
        batch_.set_heat_capacity(proto_.die_node(s), lane, th.c_die);
        batch_.set_heat_capacity(proto_.sink_node(s), lane, th.c_sink);
        batch_.set_temperature(proto_.die_node(s), lane, util::celsius_t{th.ambient_c});
        batch_.set_temperature(proto_.sink_node(s), lane, util::celsius_t{th.ambient_c});
        batch_.set_conductance(proto_.die_sink_edge(s), lane, 1.0 / th.r_junction_sink);
        batch_.set_conductance(proto_.sink_ambient_edge(s), lane, th.g_sink_ref);
    }
    batch_.set_heat_capacity(proto_.dimm_node(), lane, th.c_dimm);
    batch_.set_temperature(proto_.dimm_node(), lane, util::celsius_t{th.ambient_c});
    batch_.set_conductance(proto_.dimm_ambient_edge(), lane, th.g_dimm_ref);

    ln.zone_airflow_cfm.assign(th.fan_zones, th.ref_airflow_cfm / th.fan_zones);
    update_conductances(lane);
    update_preheat(lane);

    // Sensor complement and telemetry, mirroring the server_simulator
    // constructor (channel registration order fixes the RNG draw order).
    ln.sensors = thermal::make_server_sensors(
        [this, lane](std::size_t s) { return batch_.temperature(proto_.die_node(s), lane); },
        [this, lane] { return batch_.temperature(proto_.dimm_node(), lane); }, config.dimm_count,
        ln.rng, config.sensor_noise_sigma, config.sensor_quantum);
    ln.last_cpu_sensor_reads.assign(ln.sensors.cpu.size(), config.thermal.ambient_c);
    ln.fault.reset(ln.fans.pair_count(), ln.sensors.cpu.size());
    register_telemetry(lane);
    apply_airflow(lane);
    apply_heat(lane, 0.0);
    if (config.monitor.enabled) {
        ln.monitor.emplace(config.monitor, monitor_plant_for(config));
        ln.monitor->reset(ln.fans, batch_.ambient(lane));
    }
}

void server_batch::register_telemetry(std::size_t lane) {
    lane_state& ln = *lanes_[lane];
    for (std::size_t i = 0; i < ln.sensors.cpu.size(); ++i) {
        ln.telemetry.add_channel(ln.sensors.cpu[i].name(), "degC", [this, lane, i] {
            // Mirror of the scalar channel: true read first (keeps the
            // noise stream aligned), corruption between sensor and value.
            const double raw = lanes_[lane]->sensors.cpu[i].read().value();
            const double v = corrupt_sensor_reading(lane, i, raw);
            lanes_[lane]->last_cpu_sensor_reads[i] = v;
            return v;
        });
    }
    for (std::size_t i = 0; i < ln.sensors.dimm.size(); ++i) {
        ln.telemetry.add_channel(ln.sensors.dimm[i].name(), "degC",
                                 [this, lane, i] {
                                     return lanes_[lane]->sensors.dimm[i].read().value();
                                 },
                                 /*ring_capacity=*/512, /*record_history=*/false);
    }
    for (std::size_t s = 0; s < thermal::server_thermal_model::socket_count(); ++s) {
        ln.telemetry.add_channel("cpu" + std::to_string(s) + "_voltage", "V",
                                 [] { return 1.0; }, 16, false);
        ln.telemetry.add_channel("cpu" + std::to_string(s) + "_current", "A", [this, lane, s] {
            const lane_state& l = *lanes_[lane];
            const double u =
                l.workload ? l.workload->instantaneous_utilization(now(lane)) : 0.0;
            const double share = s == 0 ? l.imbalance : 1.0 - l.imbalance;
            const double rail_w =
                l.config.cpu_idle_each_w + l.active.cpu(u).value() * share +
                l.leakage.share_at(util::celsius_t{die_temp(lane, s)}, 2).value();
            return rail_w / 1.0;
        });
    }
    ln.telemetry.add_channel("system_power", "W", [this, lane] {
        const lane_state& l = *lanes_[lane];
        const double u = l.workload ? l.workload->instantaneous_utilization(now(lane)) : 0.0;
        return breakdown_at(lane, u).total().value();
    });
    ln.telemetry.add_channel("fan_power", "W",
                             [this, lane] { return lanes_[lane]->fans.total_power().value(); });
}

void server_batch::bind_workload(std::size_t lane, workload::loadgen generator) {
    lane_state& ln = at(lane);
    ln.workload = std::move(generator);
    ln.now_s = 0.0;
    clear_trace(lane);
    set_lane_active(lane, true);
}

void server_batch::bind_workload(std::size_t lane, const workload::utilization_profile& profile) {
    bind_workload(lane, workload::loadgen(profile));
}

void server_batch::set_load_imbalance(std::size_t lane, double fraction_socket0) {
    util::ensure(fraction_socket0 >= 0.0 && fraction_socket0 <= 1.0,
                 "server_batch::set_load_imbalance: fraction out of [0, 1]");
    at(lane).imbalance = fraction_socket0;
}

double server_batch::load_imbalance(std::size_t lane) const { return at(lane).imbalance; }

double server_batch::measured_socket_utilization(std::size_t lane, std::size_t socket,
                                                 util::seconds_t window) const {
    util::ensure(socket < thermal::server_thermal_model::socket_count(),
                 "server_batch::measured_socket_utilization: bad socket");
    const lane_state& ln = at(lane);
    const double share = socket == 0 ? ln.imbalance : 1.0 - ln.imbalance;
    return std::min(100.0, measured_utilization(lane, window) * 2.0 * share);
}

void server_batch::set_fan_speed(std::size_t lane, std::size_t pair_index, util::rpm_t rpm) {
    lane_state& ln = at(lane);
    if (ln.monitor) {
        // Capture the command at the actuation boundary, before any
        // degraded pair latches it (see server_simulator::set_fan_speed).
        ln.monitor->observe_fan_command(pair_index, ln.fans.pair().clamp(rpm));
    }
    if (ln.fault.fan_mode[pair_index] != fault_state::fan_ok) {
        ln.fault.fan_commanded_rpm[pair_index] = ln.fans.pair().clamp(rpm).value();
        if (ln.fault.fan_mode[pair_index] == fault_state::fan_tach) {
            ln.fans.set_speed(pair_index, rpm);  // lying tach tracks the command
        }
        return;
    }
    const util::rpm_t before = ln.fans.speed(pair_index);
    ln.fans.set_speed(pair_index, rpm);
    if (ln.fans.speed(pair_index).value() != before.value()) {
        ++ln.fan_changes;
        apply_airflow(lane);
    }
}

void server_batch::set_all_fans(std::size_t lane, util::rpm_t rpm) {
    lane_state& ln = at(lane);
    if (ln.monitor) {
        ln.monitor->observe_all_fan_commands(ln.fans.pair().clamp(rpm));
    }
    if (!ln.fault.any_fan_fault()) {
        const double target = ln.fans.pair().clamp(rpm).value();
        bool changed = false;
        for (std::size_t i = 0; i < ln.fans.pair_count() && !changed; ++i) {
            changed = ln.fans.speed(i).value() != target;
        }
        if (!changed) {
            return;
        }
        ln.fans.set_all(rpm);
        ++ln.fan_changes;
        apply_airflow(lane);
        return;
    }
    const double target = ln.fans.pair().clamp(rpm).value();
    bool changed = false;
    for (std::size_t i = 0; i < ln.fans.pair_count(); ++i) {
        if (ln.fault.fan_mode[i] != fault_state::fan_ok) {
            ln.fault.fan_commanded_rpm[i] = target;
            if (ln.fault.fan_mode[i] == fault_state::fan_tach) {
                ln.fans.set_speed(i, rpm);  // lying tach tracks the command
            }
            continue;
        }
        if (ln.fans.speed(i).value() != target) {
            ln.fans.set_speed(i, rpm);
            changed = true;
        }
    }
    if (changed) {
        ++ln.fan_changes;
        apply_airflow(lane);
    }
}

util::rpm_t server_batch::fan_speed(std::size_t lane, std::size_t pair_index) const {
    return at(lane).fans.effective_speed(pair_index);
}

util::rpm_t server_batch::average_fan_rpm(std::size_t lane) const {
    return at(lane).fans.average_speed();
}

std::size_t server_batch::fan_change_count(std::size_t lane) const {
    return at(lane).fan_changes;
}

void server_batch::reset_fan_change_counter(std::size_t lane) { at(lane).fan_changes = 0; }

double server_batch::measured_utilization(std::size_t lane, util::seconds_t window) const {
    const lane_state& ln = at(lane);
    if (!ln.workload) {
        return 0.0;
    }
    return ln.workload->measured_utilization(now(lane), window);
}

std::vector<double> server_batch::cpu_sensor_temps(std::size_t lane) const {
    return at(lane).last_cpu_sensor_reads;
}

util::celsius_t server_batch::max_cpu_sensor_temp(std::size_t lane) const {
    const lane_state& ln = at(lane);
    util::ensure(!ln.last_cpu_sensor_reads.empty(), "server_batch: no CPU sensors");
    return util::celsius_t{*std::max_element(ln.last_cpu_sensor_reads.begin(),
                                             ln.last_cpu_sensor_reads.end())};
}

util::watts_t server_batch::system_power_reading(std::size_t lane) const {
    const lane_state& ln = at(lane);
    const double u = ln.workload ? ln.workload->instantaneous_utilization(now(lane)) : 0.0;
    return breakdown_at(lane, u).total();
}

const telemetry::harness& server_batch::telemetry(std::size_t lane) const {
    return at(lane).telemetry;
}

util::celsius_t server_batch::true_cpu_temp(std::size_t lane, std::size_t socket) const {
    util::ensure(socket < thermal::server_thermal_model::socket_count(),
                 "server_batch::true_cpu_temp: bad socket");
    return batch_.temperature(proto_.die_node(socket), lane);
}

util::celsius_t server_batch::true_avg_cpu_temp(std::size_t lane) const {
    return util::celsius_t{0.5 * (die_temp(lane, 0) + die_temp(lane, 1))};
}

util::celsius_t server_batch::true_dimm_temp(std::size_t lane) const {
    return batch_.temperature(proto_.dimm_node(), lane);
}

power::power_breakdown server_batch::current_power(std::size_t lane) const {
    const lane_state& ln = at(lane);
    const double u = ln.workload ? ln.workload->instantaneous_utilization(now(lane)) : 0.0;
    return breakdown_at(lane, u);
}

void server_batch::set_ambient(std::size_t lane, util::celsius_t t) {
    static_cast<void>(at(lane));
    batch_.set_ambient(lane, t);
}

util::celsius_t server_batch::ambient(std::size_t lane) const {
    static_cast<void>(at(lane));
    return batch_.ambient(lane);
}

void server_batch::snapshot_lane_state(std::size_t lane, server_state& out) const {
    const lane_state& ln = at(lane);
    out.now_s = ln.now_s;
    out.imbalance = ln.imbalance;
    out.fan_changes = ln.fan_changes;
    out.fan_rpm.resize(ln.fans.pair_count());
    for (std::size_t i = 0; i < ln.fans.pair_count(); ++i) {
        out.fan_rpm[i] = ln.fans.speed(i).value();
    }
    out.rng = ln.rng;
    batch_.save_lane_state(lane, out.thermal);
    out.sensor_reads = ln.last_cpu_sensor_reads;
    out.telemetry_last_poll_s = ln.telemetry.last_poll_time();
    out.telemetry_polled = ln.telemetry.ever_polled();
    out.fault = ln.fault;
    if (ln.monitor) {
        ln.monitor->save_state(out.monitor);
    } else {
        out.monitor = core::fault_monitor_state{};
    }
}

void server_batch::load_lane_state(std::size_t lane, const server_state& state) {
    lane_state& ln = at(lane);
    util::ensure(state.fan_rpm.size() == ln.fans.pair_count(),
                 "server_batch::load_lane_state: fan pair count mismatch");
    util::ensure(state.sensor_reads.size() == ln.last_cpu_sensor_reads.size(),
                 "server_batch::load_lane_state: sensor count mismatch");
    util::ensure(state.fault.sized_for(ln.fans.pair_count(), ln.sensors.cpu.size()),
                 "server_batch::load_lane_state: fault state shape mismatch");
    ln.now_s = state.now_s;
    ln.imbalance = state.imbalance;
    ln.fan_changes = state.fan_changes;
    ln.rng = state.rng;
    ln.fault = state.fault;
    for (std::size_t i = 0; i < ln.fans.pair_count(); ++i) {
        ln.fans.set_speed(i, util::rpm_t{state.fan_rpm[i]});
        ln.fans.set_failed(i, ln.fault.fan_mode[i] == fault_state::fan_failed);
        ln.fans.set_tach_stuck(i, ln.fault.fan_mode[i] == fault_state::fan_tach);
    }
    // Recompute airflow-derived conductances/stream capacity from the
    // restored speeds (bitwise-identical to the snapshot's), then reload
    // the thermal lane on top.
    apply_airflow(lane);
    batch_.load_lane_state(lane, state.thermal);
    ln.last_cpu_sensor_reads = state.sensor_reads;
    clear_trace(lane);
    ln.telemetry.reset();
    ln.telemetry.restore_poll_clock(state.telemetry_last_poll_s, state.telemetry_polled);
    if (ln.monitor) {
        ln.monitor->restore_state(state.monitor, ln.fans);
    }
    set_lane_active(lane, true);
}

power::power_breakdown server_batch::breakdown_at(std::size_t lane, double u_inst) const {
    const lane_state& ln = *lanes_[lane];
    power::power_breakdown out;
    out.base = util::watts_t{ln.config.base_power_w};
    out.active = ln.active.total(u_inst);
    util::watts_t leak{0.0};
    for (std::size_t s = 0; s < thermal::server_thermal_model::socket_count(); ++s) {
        leak += ln.leakage.share_at(util::celsius_t{die_temp(lane, s)}, 2);
    }
    out.leakage = leak;
    out.fan = ln.fans.total_power();
    return out;
}

double server_batch::total_airflow_cfm(std::size_t lane) const {
    double acc = 0.0;
    for (double q : lanes_[lane]->zone_airflow_cfm) {
        acc += q;
    }
    return acc;
}

double server_batch::effective_airflow_cfm(std::size_t lane, std::size_t component_zone) const {
    const lane_state& ln = *lanes_[lane];
    const double total = total_airflow_cfm(lane);
    const double zones = static_cast<double>(ln.zone_airflow_cfm.size());
    if (component_zone >= ln.zone_airflow_cfm.size()) {
        return total;
    }
    const double own = ln.zone_airflow_cfm[component_zone] * zones;
    return (1.0 - ln.config.thermal.zone_mixing) * own + ln.config.thermal.zone_mixing * total;
}

void server_batch::apply_airflow(std::size_t lane) {
    lane_state& ln = *lanes_[lane];
    util::ensure(ln.fans.pair_count() == ln.zone_airflow_cfm.size(),
                 "server_batch::apply_airflow: zone count mismatch");
    for (std::size_t i = 0; i < ln.fans.pair_count(); ++i) {
        const double q = ln.fans.pair_airflow(i).value();
        util::ensure(q >= 0.0, "server_batch::apply_airflow: negative airflow");
        ln.zone_airflow_cfm[i] = q;
    }
    util::ensure(total_airflow_cfm(lane) > 0.0,
                 "server_batch::apply_airflow: zero total airflow");
    update_conductances(lane);
}

void server_batch::update_conductances(std::size_t lane) {
    lane_state& ln = *lanes_[lane];
    const thermal::server_thermal_config& th = ln.config.thermal;
    const double q_ref = th.ref_airflow_cfm;
    for (std::size_t s = 0; s < thermal::server_thermal_model::socket_count(); ++s) {
        const double q = effective_airflow_cfm(lane, s);
        const double scale = std::pow(q / q_ref, th.airflow_exponent);
        ln.sink_g_w_per_k[s] = th.g_sink_ref * scale;
        batch_.set_conductance(proto_.sink_ambient_edge(s), lane, ln.sink_g_w_per_k[s]);
    }
    const double q_dimm = total_airflow_cfm(lane);
    const double scale = std::pow(q_dimm / q_ref, th.airflow_exponent);
    batch_.set_conductance(proto_.dimm_ambient_edge(), lane, th.g_dimm_ref * scale);
    ln.stream_capacity_w_per_k =
        q_dimm > 0.0 ? thermal::stream_capacity_w_per_k(util::cfm_t{q_dimm}) : 0.0;
}

void server_batch::update_preheat(std::size_t lane) {
    lane_state& ln = *lanes_[lane];
    const double q_total = total_airflow_cfm(lane);
    double preheat_c = 0.0;
    if (q_total > 0.0) {
        const double dimm_to_air =
            batch_.diagonal(proto_.dimm_node(), lane) *
            (batch_.temperature(proto_.dimm_node(), lane).value() -
             batch_.ambient(lane).value());
        const double picked_up = std::max(0.0, dimm_to_air);
        preheat_c = picked_up / ln.stream_capacity_w_per_k;
    }
    for (std::size_t s = 0; s < thermal::server_thermal_model::socket_count(); ++s) {
        batch_.set_power(proto_.sink_node(s), lane,
                         util::watts_t{ln.sink_g_w_per_k[s] * preheat_c});
        batch_.set_power(proto_.die_node(s), lane, util::watts_t{ln.cpu_heat_w[s]});
    }
    batch_.set_power(proto_.dimm_node(), lane, util::watts_t{ln.dimm_heat_w});
}

void server_batch::apply_heat(std::size_t lane, double u_inst) {
    lane_state& ln = *lanes_[lane];
    const double shares[2] = {ln.imbalance, 1.0 - ln.imbalance};
    for (std::size_t s = 0; s < thermal::server_thermal_model::socket_count(); ++s) {
        const util::watts_t die_heat =
            util::watts_t{ln.config.cpu_idle_each_w} + ln.active.cpu(u_inst) * shares[s] +
            ln.leakage.share_at(util::celsius_t{die_temp(lane, s)}, 2);
        util::ensure(die_heat.value() >= 0.0, "server_batch::apply_heat: negative heat");
        ln.cpu_heat_w[s] = die_heat.value();
    }
    const util::watts_t dimm_heat =
        util::watts_t{ln.config.dimm_idle_total_w} + ln.active.memory(u_inst);
    util::ensure(dimm_heat.value() >= 0.0, "server_batch::apply_heat: negative heat");
    ln.dimm_heat_w = dimm_heat.value();
    // "Other" heat only influences the exhaust-air query, which the
    // batch does not expose; validate it like the scalar plant does but
    // carry no state for it.
    util::ensure(ln.active.other(u_inst).value() >= 0.0,
                 "server_batch::apply_heat: negative heat");
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
        lane_state& ln = *lanes_[l];
        if (ln.faults) {
            apply_due_faults(l);
        }
        u_target_scratch_[l] =
            ln.workload ? ln.workload->target_utilization(now(l)) : 0.0;
        u_inst_scratch_[l] =
            ln.workload ? ln.workload->instantaneous_utilization(now(l)) : 0.0;
        apply_heat(l, u_inst_scratch_[l]);
        update_preheat(l);
    }
    batch_.step(dt, inert_count_ == 0 ? nullptr : active_.data());
    for (std::size_t l = 0; l < n; ++l) {
        if (active_[l] == 0) {
            continue;
        }
        lane_state& ln = *lanes_[l];
        ln.now_s += dt.value();
        if (ln.monitor) {
            ln.monitor->step(dt, u_inst_scratch_[l], ln.imbalance, batch_.ambient(l), ln.fans);
        }
        record(l, u_target_scratch_[l], u_inst_scratch_[l]);
        ln.telemetry.set_poll_suppressed(ln.fault.telemetry_lost(ln.now_s));
        if (ln.telemetry.poll_due(now(l)) && ln.monitor) {
            ln.monitor->on_poll(ln.last_cpu_sensor_reads);
        }
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

void server_batch::settle_to_steady_state(std::size_t lane) {
    for (int i = 0; i < 8; ++i) {
        update_preheat(lane);
        batch_.settle_lane(lane);
    }
}

void server_batch::force_cold_start(std::size_t lane) {
    lane_state& ln = at(lane);
    clear_fault_effects(lane);
    ln.fans.set_all(ln.config.cold_start_fan_rpm);
    apply_airflow(lane);
    for (int i = 0; i < 12; ++i) {
        apply_heat(lane, 0.0);
        settle_to_steady_state(lane);
    }
    if (ln.monitor) {
        // The twin restarts with the plant (see server_simulator).
        ln.monitor->reset(ln.fans, batch_.ambient(lane));
        ln.monitor->settle(0.0, ln.imbalance, batch_.ambient(lane), ln.fans);
    }
    ln.now_s = 0.0;
    ln.fan_changes = 0;
    clear_trace(lane);
    set_lane_active(lane, true);
    ln.telemetry.reset();
    ln.telemetry.poll_now(now(lane));
    if (ln.monitor) {
        ln.monitor->on_poll(ln.last_cpu_sensor_reads);
    }
}

void server_batch::force_cold_start() {
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
        force_cold_start(l);
    }
}

void server_batch::settle_at(std::size_t lane, double u_pct) {
    lane_state& ln = at(lane);
    for (int i = 0; i < 12; ++i) {
        apply_heat(lane, u_pct);
        settle_to_steady_state(lane);
    }
    if (ln.monitor) {
        ln.monitor->settle(u_pct, ln.imbalance, batch_.ambient(lane), ln.fans);
    }
}

util::watts_t server_batch::idle_power(std::size_t lane, util::rpm_t fan_rpm) const {
    return steady_idle_power(at(lane).config, fan_rpm);
}

util::seconds_t server_batch::now(std::size_t lane) const {
    return util::seconds_t{at(lane).now_s};
}

void server_batch::record(std::size_t lane, double u_target, double u_inst) {
    lane_state& ln = *lanes_[lane];
    const power::power_breakdown p = breakdown_at(lane, u_inst);
    trace_row row;
    row[trace_channel::target_util] = u_target;
    row[trace_channel::instant_util] = u_inst;
    row[trace_channel::cpu0_temp] = die_temp(lane, 0);
    row[trace_channel::cpu1_temp] = die_temp(lane, 1);
    row[trace_channel::avg_cpu_temp] = true_avg_cpu_temp(lane).value();
    double max_sensor = ln.last_cpu_sensor_reads.empty() ? true_avg_cpu_temp(lane).value()
                                                         : ln.last_cpu_sensor_reads[0];
    for (double v : ln.last_cpu_sensor_reads) {
        max_sensor = std::max(max_sensor, v);
    }
    row[trace_channel::max_sensor_temp] = max_sensor;
    row[trace_channel::dimm_temp] = true_dimm_temp(lane).value();
    row[trace_channel::total_power] = p.total().value();
    row[trace_channel::fan_power] = p.fan.value();
    row[trace_channel::leakage_power] = p.leakage.value();
    row[trace_channel::active_power] = p.active.value();
    row[trace_channel::avg_fan_rpm] = ln.fans.average_speed().value();
    // record() runs before the step's poll check, so the age here is
    // always finite after a cold start and grows to the poll period.
    row[trace_channel::sensor_age] = ln.telemetry.ever_polled()
                                         ? ln.now_s - ln.telemetry.last_poll_time()
                                         : ln.now_s;
    row[trace_channel::monitor_sensor_health] =
        ln.monitor ? static_cast<double>(static_cast<int>(ln.monitor->worst_sensor_health()))
                   : 0.0;
    row[trace_channel::monitor_fan_health] =
        ln.monitor ? static_cast<double>(static_cast<int>(ln.monitor->worst_fan_health())) : 0.0;
    row[trace_channel::monitor_die_estimate] = ln.monitor ? ln.monitor->max_die_estimate_c() : 0.0;
    traces_.append(lane, ln.now_s, row);
}

trace_view server_batch::trace(std::size_t lane) const {
    static_cast<void>(at(lane));
    return traces_.lane(lane);
}

void server_batch::clear_trace(std::size_t lane) {
    at(lane).telemetry.clear_history();
    traces_.clear(lane);
}

const server_config& server_batch::config(std::size_t lane) const { return at(lane).config; }

void server_batch::bind_fault_schedule(std::size_t lane, fault_schedule schedule) {
    lane_state& ln = at(lane);
    if (!schedule.empty()) {
        util::ensure(schedule.max_fan_target() < ln.fans.pair_count(),
                     "server_batch::bind_fault_schedule: fan target out of range");
        util::ensure(schedule.max_sensor_target() < ln.sensors.cpu.size(),
                     "server_batch::bind_fault_schedule: sensor target out of range");
    }
    ln.faults = std::move(schedule);
    clear_fault_effects(lane);
}

void server_batch::clear_fault_schedule(std::size_t lane) {
    at(lane).faults.reset();
    clear_fault_effects(lane);
}

void server_batch::clear_fault_effects(std::size_t lane) {
    lane_state& ln = *lanes_[lane];
    ln.fault.reset(ln.fans.pair_count(), ln.sensors.cpu.size());
    for (std::size_t i = 0; i < ln.fans.pair_count(); ++i) {
        ln.fans.set_failed(i, false);
        ln.fans.set_tach_stuck(i, false);
    }
    ln.telemetry.set_poll_suppressed(false);
}

double server_batch::telemetry_age_s(std::size_t lane) const {
    const lane_state& ln = at(lane);
    return ln.telemetry.ever_polled() ? ln.now_s - ln.telemetry.last_poll_time()
                                      : std::numeric_limits<double>::infinity();
}

void server_batch::apply_due_faults(std::size_t lane) {
    lane_state& ln = *lanes_[lane];
    const std::vector<fault_event>& events = ln.faults->events();
    while (ln.fault.next_event < events.size() &&
           events[ln.fault.next_event].t_s <= ln.now_s + 1e-9) {
        apply_fault_event(lane, events[ln.fault.next_event]);
        ++ln.fault.next_event;
    }
}

void server_batch::apply_fault_event(std::size_t lane, const fault_event& event) {
    lane_state& ln = *lanes_[lane];
    switch (event.kind) {
        case fault_kind::fan_failure:
            ln.fault.fan_commanded_rpm[event.target] = ln.fans.speed(event.target).value();
            ln.fault.fan_mode[event.target] = fault_state::fan_failed;
            ln.fans.set_failed(event.target, true);
            apply_airflow(lane);
            break;
        case fault_kind::fan_stuck_pwm:
            ln.fault.fan_commanded_rpm[event.target] = ln.fans.speed(event.target).value();
            ln.fault.fan_mode[event.target] = fault_state::fan_stuck;
            if (!std::isnan(event.value)) {
                ln.fans.set_speed(event.target, util::rpm_t{event.value});
                apply_airflow(lane);
            }
            break;
        case fault_kind::fan_tach_stuck:
            ln.fault.fan_commanded_rpm[event.target] = ln.fans.speed(event.target).value();
            ln.fault.fan_mode[event.target] = fault_state::fan_tach;
            ln.fans.set_tach_stuck(event.target, true);
            apply_airflow(lane);
            break;
        case fault_kind::fan_recover:
            ln.fault.fan_mode[event.target] = fault_state::fan_ok;
            ln.fans.set_failed(event.target, false);
            ln.fans.set_tach_stuck(event.target, false);
            ln.fans.set_speed(event.target,
                              util::rpm_t{ln.fault.fan_commanded_rpm[event.target]});
            apply_airflow(lane);
            break;
        case fault_kind::sensor_stuck:
            ln.fault.sensor_stuck[event.target] = 1;
            ln.fault.sensor_stuck_c[event.target] =
                std::isnan(event.value) ? ln.last_cpu_sensor_reads[event.target] : event.value;
            break;
        case fault_kind::sensor_bias:
            ln.fault.sensor_bias_c[event.target] = event.value;
            break;
        case fault_kind::sensor_dropout:
            ln.fault.sensor_dropout_until_s[event.target] = event.t_s + event.duration_s;
            break;
        case fault_kind::sensor_drift:
            ln.fault.sensor_drift_c_per_s[event.target] = event.value;
            ln.fault.sensor_drift_start_s[event.target] = event.t_s;
            break;
        case fault_kind::sensor_intermittent:
            ln.fault.sensor_intermittent_c[event.target] = event.value;
            ln.fault.sensor_intermittent_start_s[event.target] = event.t_s;
            ln.fault.sensor_intermittent_until_s[event.target] = event.t_s + event.duration_s;
            break;
        case fault_kind::sensor_recover:
            ln.fault.sensor_stuck[event.target] = 0;
            ln.fault.sensor_bias_c[event.target] = 0.0;
            ln.fault.sensor_dropout_until_s[event.target] = 0.0;
            ln.fault.sensor_drift_c_per_s[event.target] = 0.0;
            ln.fault.sensor_drift_start_s[event.target] = 0.0;
            ln.fault.sensor_intermittent_c[event.target] = 0.0;
            ln.fault.sensor_intermittent_start_s[event.target] = 0.0;
            ln.fault.sensor_intermittent_until_s[event.target] = 0.0;
            break;
        case fault_kind::telemetry_loss:
            ln.fault.telemetry_lost_until_s = event.t_s + event.duration_s;
            break;
    }
}

double server_batch::corrupt_sensor_reading(std::size_t lane, std::size_t sensor,
                                            double raw) const {
    const lane_state& ln = *lanes_[lane];
    if (ln.fault.sensor_stuck[sensor] != 0) {
        return ln.fault.sensor_stuck_c[sensor];
    }
    if (ln.now_s < ln.fault.sensor_dropout_until_s[sensor] - 1e-9) {
        return ln.last_cpu_sensor_reads[sensor];
    }
    double offset = ln.fault.sensor_bias_c[sensor];
    if (ln.fault.sensor_drift_c_per_s[sensor] != 0.0) {
        offset += ln.fault.sensor_drift_c_per_s[sensor] *
                  (ln.now_s - ln.fault.sensor_drift_start_s[sensor]);
    }
    if (ln.fault.intermittent_burst_live(sensor, ln.now_s)) {
        offset += ln.fault.sensor_intermittent_c[sensor];
    }
    return offset == 0.0 ? raw : raw + offset;
}

}  // namespace ltsc::sim
