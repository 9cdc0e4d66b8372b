#include "sim/server_batch.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"

namespace ltsc::sim {

namespace {

/// The thermal lanes of a batch: one per server, then one twin per
/// monitored server, in server order.
std::vector<thermal::server_thermal_config> thermal_lanes(
    const std::vector<server_config>& configs) {
    util::ensure(!configs.empty(), "server_batch: need at least one lane");
    std::vector<thermal::server_thermal_config> out;
    out.reserve(configs.size());
    for (const server_config& c : configs) {
        out.push_back(c.thermal);
    }
    for (const server_config& c : configs) {
        if (c.monitor.enabled) {
            out.push_back(c.thermal);
        }
    }
    return out;
}

}  // namespace

server_batch::server_batch(std::vector<server_config> configs)
    : thermal_(thermal_lanes(configs)),
      twin_(configs.size(), no_twin),
      twin_live_(configs.size(), 0),
      traces_(configs.size()),
      active_(thermal_.lane_count(), 1) {
    lanes_.reserve(configs.size());
    std::size_t next_twin = configs.size();
    for (std::size_t l = 0; l < configs.size(); ++l) {
        lanes_.emplace_back(configs[l]);
        thermal_.set_zone_airflow(l, lanes_[l].zone_airflow());
        if (lanes_[l].monitor() != nullptr) {
            twin_[l] = next_twin++;
            active_[twin_[l]] = 0;
            static_cast<void>(lanes_[l].moved_tach_airflow());
        }
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
    server_lane& ln = at(lane);
    if (ln.bind_workload(std::move(generator))) {
        thermal_.set_zone_airflow(lane, ln.zone_airflow());
    }
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

util::celsius_t server_batch::model_die_temp(std::size_t lane, std::size_t socket) const {
    static_cast<void>(at(lane));
    util::ensure(twin_[lane] != no_twin, "server_batch::model_die_temp: lane is not monitored");
    return thermal_.cpu_die_temp(model_lane(lane), socket);
}

void server_batch::set_ambient(std::size_t lane, util::celsius_t t) {
    static_cast<void>(at(lane));
    thermal_.set_ambient(lane, t);
    if (twin_[lane] != no_twin) {
        thermal_.set_ambient(twin_[lane], t);
    }
}

void server_batch::snapshot_lane_state(std::size_t lane, server_state& out) const {
    at(lane).save_state(out);
    thermal_.save_state(lane, out.thermal);
    if (twin_[lane] != no_twin) {
        thermal_.save_state(model_lane(lane), out.monitor.twin);
    }
}

void server_batch::load_lane_state(std::size_t lane, const server_state& state) {
    server_lane& ln = at(lane);
    const std::size_t twin = twin_[lane];
    // Check the whole snapshot before changing anything: the thermal
    // halves here, the lane's and its monitor's shapes in restore_state.
    thermal_.check_state(state.thermal);
    if (twin != no_twin) {
        thermal_.check_state(state.monitor.twin);
    }
    ln.restore_state(state);
    traces_.clear(lane);
    // Recompute the airflow-derived conductances from the restored speeds
    // (bitwise-identical to the snapshot's), then reload the thermal lane
    // on top; the twin likewise, then under the restored tachs' airflow (a
    // live twin saved before a fan command's first step lacks the command).
    thermal_.set_zone_airflow(lane, ln.zone_airflow());
    thermal_.restore_state(lane, state.thermal);
    if (twin != no_twin) {
        wake_twin(lane);
        thermal_.restore_state(twin, state.monitor.twin);
        static_cast<void>(ln.moved_tach_airflow());
        thermal_.set_zone_airflow(twin, ln.tach_airflow());
        doze_twin(lane);
    }
    set_lane_active(lane, true);
}

bool server_batch::sync_twin(std::size_t lane) {
    server_lane& ln = lanes_[lane];
    const std::vector<util::cfm_t>* tach = ln.moved_tach_airflow();
    if (twin_live_[lane] != 0 && tach != nullptr) {
        thermal_.set_zone_airflow(twin_[lane], *tach);
    } else if (twin_live_[lane] == 0 && !thermal_.runs_under(lane, ln.tach_airflow())) {
        wake_twin(lane);
    }
    return twin_live_[lane] != 0;
}

void server_batch::wake_twin(std::size_t lane) {
    if (twin_[lane] == no_twin || twin_live_[lane] != 0) {
        return;
    }
    thermal_.save_state(lane, plant_scratch_);
    thermal_.restore_state(twin_[lane], plant_scratch_);
    thermal_.set_zone_airflow(twin_[lane], lanes_[lane].tach_airflow());
    twin_live_[lane] = 1;
    ++live_twins_;
    active_[twin_[lane]] = active_[lane];
}

void server_batch::doze_twin(std::size_t lane) {
    const auto same = [](const std::vector<double>& a, const std::vector<double>& b) {
        return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
    };
    thermal_.save_state(lane, plant_scratch_);
    thermal_.save_state(twin_[lane], twin_scratch_);
    const thermal::rc_state& p = plant_scratch_;
    const thermal::rc_state& t = twin_scratch_;
    if (thermal_.runs_under(lane, lanes_[lane].tach_airflow()) && same(p.temps, t.temps) &&
        same(p.powers, t.powers) && same(p.edge_g, t.edge_g) && p.ambient_c == t.ambient_c) {
        twin_live_[lane] = 0;
        --live_twins_;
        active_[twin_[lane]] = 0;
    }
}

std::size_t server_batch::model_lane(std::size_t lane) const {
    return twin_live_[lane] != 0 ? twin_[lane] : lane;
}

die_temps server_batch::twin_die_temps(std::size_t lane) const {
    return twin_[lane] == no_twin ? die_temps{} : thermal_.die_temps(model_lane(lane));
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
        if (twin_[l] != no_twin && sync_twin(l)) {
            // A live twin heats at the plant's utilization and split,
            // under the airflow its tachs report.
            ln.power().apply_heat(thermal_, twin_[l], u_inst_scratch_[l], ln.load_imbalance());
        }
    }
    // With no twin live, the twin block after the servers is skipped.
    const std::size_t twins = thermal_.lane_count() - n;
    const bool masked = inert_count_ != 0 || (live_twins_ != 0 && live_twins_ != twins);
    thermal_.step_prefix(live_twins_ == 0 ? n : n + twins, dt, masked ? active_.data() : nullptr);
    for (std::size_t l = 0; l < n; ++l) {
        if (active_[l] == 0) {
            continue;
        }
        server_lane& ln = lanes_[l];
        ln.advance_clock(dt);
        const die_temps die = thermal_.die_temps(l);
        const util::celsius_t dimm = thermal_.dimm_temp(l);
        const die_temps twin_die = twin_die_temps(l);
        traces_.append(l, ln.now_s(),
                       ln.make_row(u_target_scratch_[l], u_inst_scratch_[l], die, dimm, twin_die));
        ln.poll(die, twin_die);
    }
}

void server_batch::set_lane_active(std::size_t lane, bool active) {
    static_cast<void>(at(lane));
    const unsigned char flag = active ? 1 : 0;
    if (active_[lane] == flag) {
        return;
    }
    active_[lane] = flag;
    if (twin_[lane] != no_twin) {
        active_[twin_[lane]] = flag & twin_live_[lane];  // inert or dormant: masked
    }
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
    wake_twin(lane);
    ln.begin_cold_start();
    thermal_.set_zone_airflow(lane, ln.zone_airflow());
    ln.power().settle(thermal_, lane, 0.0, ln.load_imbalance());
    if (twin_[lane] != no_twin) {
        // The twin restarts cold under its tach airflow while the plant
        // settles from where it was: it sleeps again only if they agree.
        thermal_.reset(twin_[lane]);
        static_cast<void>(sync_twin(lane));
        ln.power().settle(thermal_, twin_[lane], 0.0, ln.load_imbalance());
        doze_twin(lane);
    }
    traces_.clear(lane);
    set_lane_active(lane, true);
    ln.finish_cold_start(thermal_.die_temps(lane), twin_die_temps(lane));
}

void server_batch::force_cold_start() {
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
        force_cold_start(l);
    }
}

void server_batch::settle_at(std::size_t lane, double u_pct) {
    server_lane& ln = at(lane);
    wake_twin(lane);
    ln.power().settle(thermal_, lane, u_pct, ln.load_imbalance());
    if (twin_[lane] != no_twin) {
        static_cast<void>(sync_twin(lane));
        ln.power().settle(thermal_, twin_[lane], u_pct, ln.load_imbalance());
        doze_twin(lane);
    }
}

util::watts_t server_batch::idle_power(std::size_t lane, util::rpm_t fan_rpm) const {
    return steady_idle_power(at(lane).config(), fan_rpm);
}

trace_view server_batch::trace(std::size_t lane) const {
    static_cast<void>(at(lane));
    return traces_.lane(lane);
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
