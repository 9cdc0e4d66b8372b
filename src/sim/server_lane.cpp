#include "sim/server_lane.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/error.hpp"

namespace ltsc::sim {

namespace {

/// Fan speed the paper's protocol uses to force the cold start.
constexpr util::rpm_t k_cold_start_fan_rpm{3600.0};

}  // namespace

server_lane::server_lane(const server_config& config)
    : config_(validated(config)),
      rng_(config.seed, 0xda3e39cb94b95bdbULL),
      fans_(config.fan_pairs, config.fan, config.default_fan_rpm),
      power_(power_model_for(config)),
      sensors_(thermal::make_server_sensors(config.dimm_count, config.sensor_noise_sigma,
                                            config.sensor_quantum)) {
    last_cpu_sensor_reads_.assign(sensors_.cpu.size(), config.thermal.ambient_c);
    fault_.reset(fans_.bank().pair_count(), sensors_.cpu.size());
    if (config_.monitor.enabled) {
        arm_monitor();
        tach_rpm_.assign(fans_.bank().pair_count(), -1.0);
        tach_airflow_.resize(fans_.bank().pair_count());
    }
}

void server_lane::arm_monitor() {
    std::vector<double> commanded;
    fans_.save(commanded);
    monitor_.emplace(config_.monitor, commanded);
}

void server_lane::take_poll(const die_temps& die, const die_temps& twin_die) {
    // Sensors 2s and 2s+1 sit on die s.
    for (std::size_t i = 0; i < sensors_.cpu.size(); ++i) {
        // The true sensor is always read first so the noise stream
        // stays aligned with a healthy run; corruption (stuck, bias,
        // dropout) applies between the sensor and the delivered value.
        const double raw = sensors_.cpu[i].read(util::celsius_t{die[i / 2]}, rng_).value();
        last_cpu_sensor_reads_[i] = corrupt_sensor_reading(i, raw);
    }
    // Nothing keeps the DIMM readings, but each noisy one draws a normal
    // from the same stream after the CPU sensors, so the draws are
    // skipped bitwise instead (every DIMM sensor has the config's noise).
    rng_.skip_normals(config_.sensor_noise_sigma > 0.0 ? sensors_.dimm.size() : 0);
    last_poll_s_ = now_s_;
    polled_ = true;
    if (monitor_) {
        monitor_->on_poll(last_cpu_sensor_reads_, twin_die);
    }
}

bool server_lane::bind_workload(workload::loadgen generator) {
    workload_ = std::move(generator);
    if (polled_) {
        last_poll_s_ -= now_s_;  // rewind the poll clock with the lane clock
    }
    now_s_ = 0.0;
    // The fault timeline restarts with the clock: live effects hold
    // old-clock expiry times, and the cursor replays from the top.
    return clear_fault_effects();
}

double server_lane::target_utilization() const {
    return workload_ ? workload_->target_utilization(util::seconds_t{now_s_}) : 0.0;
}

double server_lane::instantaneous_utilization() const {
    return workload_ ? workload_->instantaneous_utilization(util::seconds_t{now_s_}) : 0.0;
}

double server_lane::measured_utilization(util::seconds_t window) const {
    return workload_ ? workload_->measured_utilization(util::seconds_t{now_s_}, window) : 0.0;
}

double server_lane::measured_socket_utilization(std::size_t socket,
                                                util::seconds_t window) const {
    util::ensure(socket < 2, "server_lane::measured_socket_utilization: bad socket");
    const double share = socket == 0 ? imbalance_ : 1.0 - imbalance_;
    // System utilization counts both sockets; one socket carrying `share`
    // of it runs at 2 * share of its own capacity.
    return std::min(100.0, measured_utilization(window) * 2.0 * share);
}

void server_lane::set_load_imbalance(double fraction_socket0) {
    util::ensure(fraction_socket0 >= 0.0 && fraction_socket0 <= 1.0,
                 "server_lane::set_load_imbalance: fraction out of [0, 1]");
    imbalance_ = fraction_socket0;
}

bool server_lane::set_fan_speed(std::size_t pair_index, util::rpm_t rpm) {
    // The actuator validates the pair and the command before any
    // mutation, so a rejected command leaves the lane untouched.
    const bool changed = fans_.command(pair_index, rpm, fault_);
    if (monitor_) {
        // The monitor sees what the controller *asked for*, even when a
        // degraded pair only latched it: that is its command/tach residual.
        monitor_->observe_fan_command(pair_index, fans_.bank().pair().clamp(rpm));
    }
    if (changed) {
        ++fan_changes_;  // latched commands count nothing
    }
    return changed;
}

bool server_lane::set_all_fans(util::rpm_t rpm) {
    // Any physical change counts as one command; none skips the airflow
    // update entirely.
    const bool changed = fans_.command_all(rpm, fault_);
    if (monitor_) {
        monitor_->observe_all_fan_commands(fans_.bank().pair().clamp(rpm));
    }
    if (changed) {
        ++fan_changes_;
    }
    return changed;
}

util::celsius_t server_lane::max_cpu_sensor_temp() const {
    util::ensure(!last_cpu_sensor_reads_.empty(), "server_lane: no CPU sensors");
    return util::celsius_t{
        *std::max_element(last_cpu_sensor_reads_.begin(), last_cpu_sensor_reads_.end())};
}

double server_lane::telemetry_age_s() const {
    return polled_ ? now_s_ - last_poll_s_ : std::numeric_limits<double>::infinity();
}

const std::vector<util::cfm_t>* server_lane::moved_tach_airflow() {
    bool moved = false;
    for (std::size_t i = 0; i < tach_rpm_.size(); ++i) {
        const double tach = fans_.bank().effective_speed(i).value();
        moved = moved || tach != tach_rpm_[i];
        tach_rpm_[i] = tach;
    }
    if (!moved) {
        return nullptr;
    }
    // The twin's airflow comes from the TACH reading, not the plant's
    // true delivery: on honest tachs the two are identical (a stopped
    // rotor reads 0 -> 0 CFM; a spinning one reads its clamped speed),
    // but a lying tach feeds the twin phantom airflow — which is exactly
    // the divergence the monitor's thermal cross-check detects.
    for (std::size_t i = 0; i < tach_airflow_.size(); ++i) {
        tach_airflow_[i] = fans_.bank().tach_airflow(i);
    }
    return &tach_airflow_;
}

void server_lane::advance_clock(util::seconds_t dt) {
    now_s_ += dt.value();
    if (monitor_) {
        monitor_->step(tach_rpm_);
    }
}

trace_row server_lane::make_row(double u_target, double u_inst, const die_temps& die,
                                util::celsius_t dimm, const die_temps& twin_die) const {
    const power::power_breakdown p = breakdown_at(u_inst, die);
    const double avg_die = 0.5 * (die[0] + die[1]);
    trace_row row;
    row[trace_channel::target_util] = u_target;
    row[trace_channel::instant_util] = u_inst;
    row[trace_channel::cpu0_temp] = die[0];
    row[trace_channel::cpu1_temp] = die[1];
    row[trace_channel::avg_cpu_temp] = avg_die;
    double max_sensor = last_cpu_sensor_reads_.empty() ? avg_die : last_cpu_sensor_reads_[0];
    for (double v : last_cpu_sensor_reads_) {
        max_sensor = std::max(max_sensor, v);
    }
    row[trace_channel::max_sensor_temp] = max_sensor;
    row[trace_channel::dimm_temp] = dimm.value();
    row[trace_channel::total_power] = p.total().value();
    row[trace_channel::fan_power] = p.fan.value();
    row[trace_channel::leakage_power] = p.leakage.value();
    row[trace_channel::active_power] = p.active.value();
    row[trace_channel::avg_fan_rpm] = fans_.bank().average_speed().value();
    // Rows are built before the step's poll check, so the age here is
    // always finite after a cold start and grows to the poll period.
    row[trace_channel::sensor_age] = polled_ ? now_s_ - last_poll_s_ : now_s_;
    row[trace_channel::monitor_sensor_health] =
        monitor_ ? static_cast<double>(static_cast<int>(monitor_->worst_sensor_health())) : 0.0;
    row[trace_channel::monitor_fan_health] =
        monitor_ ? static_cast<double>(static_cast<int>(monitor_->worst_fan_health())) : 0.0;
    row[trace_channel::monitor_die_estimate] = monitor_ ? std::max(twin_die[0], twin_die[1]) : 0.0;
    return row;
}

void server_lane::poll(const die_temps& die, const die_temps& twin_die) {
    // A lost poller drops every due poll: nothing is sampled and the poll
    // clock does not advance, so observers see the last delivered values
    // ageing, as with a crashed CSTH poller.
    const bool due = !polled_ || now_s_ - last_poll_s_ >= config_.telemetry_period_s - 1e-9;
    if (due && !fault_.telemetry_lost(now_s_)) {
        take_poll(die, twin_die);
    }
}

void server_lane::begin_cold_start() {
    // Faults are part of the run being restarted: clear live effects and
    // rewind the campaign cursor with the clock.
    static_cast<void>(clear_fault_effects());  // the owner pushes airflow next
    fans_.set_all(k_cold_start_fan_rpm);
}

void server_lane::finish_cold_start(const die_temps& die, const die_temps& twin_die) {
    if (monitor_) {
        arm_monitor();  // re-latch the cold-start commands, clear verdicts
    }
    now_s_ = 0.0;
    fan_changes_ = 0;
    take_poll(die, twin_die);
}

void server_lane::save_state(server_state& out) const {
    out.now_s = now_s_;
    out.imbalance = imbalance_;
    out.fan_changes = fan_changes_;
    fans_.save(out.fan_rpm);
    out.rng = rng_;
    out.sensor_reads = last_cpu_sensor_reads_;
    out.telemetry_last_poll_s = last_poll_s_;
    out.telemetry_polled = polled_;
    out.fault = fault_;
    if (monitor_) {
        monitor_->save_state(out.monitor);
    } else {
        out.monitor = monitor_state{};
    }
}

void server_lane::restore_state(const server_state& state) {
    const std::size_t pairs = fans_.bank().pair_count();
    util::ensure(state.fan_rpm.size() == pairs,
                 "server_lane::restore_state: fan pair count mismatch");
    for (const double rpm : state.fan_rpm) {
        util::ensure(std::isfinite(rpm), "server_lane::restore_state: non-finite fan speed");
    }
    util::ensure(state.sensor_reads.size() == last_cpu_sensor_reads_.size(),
                 "server_lane::restore_state: sensor count mismatch");
    util::ensure(state.fault.sized_for(pairs, sensors_.cpu.size()),
                 "server_lane::restore_state: fault state shape mismatch");
    // The thermal model rejects zero total airflow, and a stopped rotor
    // (failed or tach-stuck) delivers none.
    const std::vector<unsigned char>& modes = state.fault.fan_mode;
    const auto stopped = std::count(modes.begin(), modes.end(), fault_state::fan_failed) +
                         std::count(modes.begin(), modes.end(), fault_state::fan_tach);
    util::ensure(static_cast<std::size_t>(stopped) < pairs,
                 "server_lane::restore_state: no fan pair delivers airflow");
    if (monitor_) {
        monitor_->restore_state(state.monitor);  // the last check; nothing after throws
    }
    now_s_ = state.now_s;
    imbalance_ = state.imbalance;
    fan_changes_ = state.fan_changes;
    rng_ = state.rng;
    fault_ = state.fault;
    fans_.restore(state.fan_rpm, fault_);
    last_cpu_sensor_reads_ = state.sensor_reads;
    last_poll_s_ = state.telemetry_last_poll_s;
    polled_ = state.telemetry_polled;
}

bool server_lane::bind_fault_schedule(fault_schedule schedule) {
    if (!schedule.empty()) {
        util::ensure(schedule.max_fan_target() < fans_.bank().pair_count(),
                     "server_lane::bind_fault_schedule: fan target out of range");
        util::ensure(schedule.max_sensor_target() < sensors_.cpu.size(),
                     "server_lane::bind_fault_schedule: sensor target out of range");
    }
    schedule_ = std::move(schedule);
    return clear_fault_effects();
}

bool server_lane::clear_fault_schedule() {
    schedule_.reset();
    return clear_fault_effects();
}

bool server_lane::clear_fault_effects() {
    const bool recovered = fans_.recover_all(fault_);
    fault_.reset(fans_.bank().pair_count(), sensors_.cpu.size());
    return recovered;
}

bool server_lane::apply_due_faults() {
    if (!schedule_) {
        return false;
    }
    const std::vector<fault_event>& events = schedule_->events();
    while (fault_.next_event < events.size() &&
           events[fault_.next_event].t_s <= now_s_ + 1e-9) {
        const bool airflow_changed = apply_fault_event(events[fault_.next_event]);
        ++fault_.next_event;
        if (airflow_changed) {
            return true;
        }
    }
    return false;
}

bool server_lane::apply_fault_event(const fault_event& event) {
    switch (event.kind) {
        case fault_kind::fan_failure:
        case fault_kind::fan_stuck_pwm:
        case fault_kind::fan_tach_stuck:
        case fault_kind::fan_recover:
            return fans_.apply(event, fault_);
        case fault_kind::sensor_stuck:
            fault_.sensor_stuck[event.target] = 1;
            fault_.sensor_stuck_c[event.target] = std::isnan(event.value)
                                                      ? last_cpu_sensor_reads_[event.target]
                                                      : event.value;
            return false;
        case fault_kind::sensor_bias:
            fault_.sensor_bias_c[event.target] = event.value;
            return false;
        case fault_kind::sensor_dropout:
            // Windows anchor on the scheduled time, not the (step-
            // quantized) fire time, so replays at a different sim_dt see
            // the same span.
            fault_.sensor_dropout_until_s[event.target] = event.t_s + event.duration_s;
            return false;
        case fault_kind::sensor_drift:
            // The ramp anchors on the scheduled onset, like dropout
            // windows, so the grown bias is dt-invariant.
            fault_.sensor_drift_c_per_s[event.target] = event.value;
            fault_.sensor_drift_start_s[event.target] = event.t_s;
            return false;
        case fault_kind::sensor_intermittent:
            fault_.sensor_intermittent_c[event.target] = event.value;
            fault_.sensor_intermittent_start_s[event.target] = event.t_s;
            fault_.sensor_intermittent_until_s[event.target] = event.t_s + event.duration_s;
            return false;
        case fault_kind::sensor_recover:
            fault_.sensor_stuck[event.target] = 0;
            fault_.sensor_bias_c[event.target] = 0.0;
            fault_.sensor_dropout_until_s[event.target] = 0.0;
            fault_.sensor_drift_c_per_s[event.target] = 0.0;
            fault_.sensor_drift_start_s[event.target] = 0.0;
            fault_.sensor_intermittent_c[event.target] = 0.0;
            fault_.sensor_intermittent_start_s[event.target] = 0.0;
            fault_.sensor_intermittent_until_s[event.target] = 0.0;
            return false;
        case fault_kind::telemetry_loss:
            fault_.telemetry_lost_until_s = event.t_s + event.duration_s;
            return false;
    }
    return false;
}

double server_lane::corrupt_sensor_reading(std::size_t sensor, double raw) const {
    if (fault_.sensor_stuck[sensor] != 0) {
        return fault_.sensor_stuck_c[sensor];
    }
    if (now_s_ < fault_.sensor_dropout_until_s[sensor] - 1e-9) {
        return last_cpu_sensor_reads_[sensor];  // hold the last delivered value
    }
    double offset = fault_.sensor_bias_c[sensor];
    if (fault_.sensor_drift_c_per_s[sensor] != 0.0) {
        offset += fault_.sensor_drift_c_per_s[sensor] *
                  (now_s_ - fault_.sensor_drift_start_s[sensor]);
    }
    if (fault_.intermittent_burst_live(sensor, now_s_)) {
        offset += fault_.sensor_intermittent_c[sensor];
    }
    // Exact pass-through when unbiased, so healthy runs stay bitwise.
    return offset == 0.0 ? raw : raw + offset;
}

}  // namespace ltsc::sim
