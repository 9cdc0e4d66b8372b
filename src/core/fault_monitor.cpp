#include "core/fault_monitor.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ltsc::core {

namespace {

// Shared hysteresis: consecutive out-of-band observations escalate
// healthy -> suspect -> failed; consecutive in-band ones clear back to
// healthy.  Counters saturate so snapshots stay bounded.
void update_health(std::uint8_t& health, int& bad, int& good, bool out_of_band, int suspect_after,
                   int fail_after, int clear_after) {
    if (out_of_band) {
        bad = std::min(bad + 1, fail_after);
        good = 0;
    } else {
        good = std::min(good + 1, clear_after);
        bad = 0;
    }
    if (bad >= fail_after) {
        health = static_cast<std::uint8_t>(component_health::failed);
    } else if (bad >= suspect_after && health == static_cast<std::uint8_t>(component_health::healthy)) {
        health = static_cast<std::uint8_t>(component_health::suspect);
    }
    if (good >= clear_after) {
        health = static_cast<std::uint8_t>(component_health::healthy);
    }
}

}  // namespace

const char* to_string(component_health health) {
    switch (health) {
        case component_health::healthy:
            return "healthy";
        case component_health::suspect:
            return "suspect";
        case component_health::failed:
            return "failed";
    }
    return "unknown";
}

void validate(const fault_monitor_config& config) {
    // An infinite threshold passes every positivity check and silently
    // disables its detector, so every floating-point field must be finite.
    for (const double v : {config.sensor_residual_c, config.fan_residual_rpm,
                           config.sensor_cusum_k_c, config.sensor_cusum_h_c,
                           config.fan_thermal_residual_c}) {
        util::ensure(std::isfinite(v), "fault_monitor: non-finite threshold");
    }
    util::ensure(config.sensor_residual_c > 0.0, "fault_monitor: non-positive sensor threshold");
    util::ensure(config.fan_residual_rpm > 0.0, "fault_monitor: non-positive fan threshold");
    util::ensure(config.sensor_suspect_polls >= 1 &&
                     config.sensor_fail_polls >= config.sensor_suspect_polls &&
                     config.sensor_clear_polls >= 1,
                 "fault_monitor: bad sensor hysteresis depths");
    util::ensure(config.fan_suspect_steps >= 1 &&
                     config.fan_fail_steps >= config.fan_suspect_steps &&
                     config.fan_clear_steps >= 1,
                 "fault_monitor: bad fan hysteresis depths");
    util::ensure(config.sensor_cusum_k_c > 0.0 && config.sensor_cusum_h_c > 0.0,
                 "fault_monitor: non-positive CUSUM parameters");
    util::ensure(config.fan_command_grace_steps >= 0, "fault_monitor: negative fan command grace");
    util::ensure(config.fan_thermal_residual_c > 0.0,
                 "fault_monitor: non-positive fan thermal threshold");
    util::ensure(config.fan_thermal_suspect_polls >= 1 &&
                     config.fan_thermal_fail_polls >= config.fan_thermal_suspect_polls &&
                     config.fan_thermal_clear_polls >= 1,
                 "fault_monitor: bad fan thermal hysteresis depths");
}

fault_monitor::fault_monitor(const fault_monitor_config& config,
                             const thermal::server_thermal_config& thermal,
                             const power::server_power_model& power)
    : config_(config), power_(power), twin_(thermal) {
    validate(config_);
    const std::size_t pairs = thermal.fan_zones;
    const std::size_t sensors = 2 * thermal::server_thermal_model::socket_count();
    // Command latches start at 0 until reset() reads the plant's fans.
    commanded_rpm_.assign(pairs, 0.0);
    fan_prev_rpm_.assign(pairs, 0.0);
    fan_grace_steps_.assign(pairs, 0);
    fan_health_.assign(pairs, 0);
    fan_bad_steps_.assign(pairs, 0);
    fan_good_steps_.assign(pairs, 0);
    fan_thermal_health_.assign(pairs, 0);
    fan_thermal_bad_polls_.assign(pairs, 0);
    fan_thermal_good_polls_.assign(pairs, 0);
    sensor_health_.assign(sensors, 0);
    sensor_bad_polls_.assign(sensors, 0);
    sensor_good_polls_.assign(sensors, 0);
    sensor_residual_.assign(sensors, 0.0);
    sensor_cusum_pos_.assign(sensors, 0.0);
    sensor_cusum_neg_.assign(sensors, 0.0);
    effective_rpm_cache_.assign(pairs, -1.0);
    zone_airflow_scratch_.resize(pairs);
    die_hot_scratch_.assign(sensors / 2, 0);
}

void fault_monitor::reset(const power::fan_bank& fans, util::celsius_t ambient) {
    util::ensure(fans.pair_count() == commanded_rpm_.size(),
                 "fault_monitor::reset: fan pair count mismatch");
    for (std::size_t i = 0; i < commanded_rpm_.size(); ++i) {
        commanded_rpm_[i] = fans.speed(i).value();
        fan_prev_rpm_[i] = commanded_rpm_[i];
    }
    clear_health();
    sync_ambient(ambient);
    twin_.reset(0);
    sync_airflow(fans, /*force=*/true);
}

void fault_monitor::settle(double u_pct, double imbalance, util::celsius_t ambient,
                           const power::fan_bank& fans) {
    sync_ambient(ambient);
    sync_airflow(fans, /*force=*/true);
    power_.settle(twin_, 0, u_pct, imbalance);
}

void fault_monitor::observe_fan_command(std::size_t pair_index, util::rpm_t clamped) {
    util::ensure(pair_index < commanded_rpm_.size(),
                 "fault_monitor::observe_fan_command: bad pair");
    if (clamped.value() != commanded_rpm_[pair_index]) {
        fan_prev_rpm_[pair_index] = commanded_rpm_[pair_index];
        fan_grace_steps_[pair_index] = config_.fan_command_grace_steps;
    }
    commanded_rpm_[pair_index] = clamped.value();
}

void fault_monitor::observe_all_fan_commands(util::rpm_t clamped) {
    for (std::size_t i = 0; i < commanded_rpm_.size(); ++i) {
        observe_fan_command(i, clamped);
    }
}

void fault_monitor::step(util::seconds_t dt, double u_inst, double imbalance,
                         util::celsius_t ambient, const power::fan_bank& fans) {
    sync_ambient(ambient);
    sync_airflow(fans, /*force=*/false);
    power_.apply_heat(twin_, 0, u_inst, imbalance);
    twin_.step(dt);
    for (std::size_t i = 0; i < fan_health_.size(); ++i) {
        const double tach = fans.effective_speed(i).value();
        double residual = std::fabs(commanded_rpm_[i] - tach);
        // During the grace window after a command change, a tach still
        // reporting the previous command is lag, not a fault.  A rotor
        // matching neither command (dead) keeps counting bad.
        if (fan_grace_steps_[i] > 0) {
            --fan_grace_steps_[i];
            residual = std::min(residual, std::fabs(fan_prev_rpm_[i] - tach));
        }
        update_health(fan_health_[i], fan_bad_steps_[i], fan_good_steps_[i],
                      residual > config_.fan_residual_rpm, config_.fan_suspect_steps,
                      config_.fan_fail_steps, config_.fan_clear_steps);
    }
}

void fault_monitor::on_poll(const std::vector<double>& delivered) {
    util::ensure(delivered.size() == sensor_health_.size(),
                 "fault_monitor::on_poll: sensor count mismatch");
    // Pass 1: residuals and CUSUM accumulation.  Update-then-test with
    // sums clamped to [0, h]: healthy polls (|residual| < k) drain the
    // sums, sustained drifts fill them, and the clamp bounds both the
    // snapshot payload and the post-recovery clear latency.
    const double k = config_.sensor_cusum_k_c;
    const double h = config_.sensor_cusum_h_c;
    for (std::size_t s = 0; s < sensor_health_.size(); ++s) {
        const double residual = delivered[s] - twin_.cpu_die_temp(0, s / 2).value();
        sensor_residual_[s] = residual;
        sensor_cusum_pos_[s] = std::clamp(sensor_cusum_pos_[s] + residual - k, 0.0, h);
        sensor_cusum_neg_[s] = std::clamp(sensor_cusum_neg_[s] - residual - k, 0.0, h);
    }
    // Pass 2: tach-distrust cross-check.  The twin follows the
    // *tach-reported* airflow, so on honest hardware it tracks the true
    // die bitwise and a die-wide hot divergence can only mean lost
    // cooling a tach failed to report.  When such a die coexists with a
    // command-quiet pair (tach residual currently clean), the monitor
    // blames the quiet pairs — the tach cannot localize which one lies —
    // and leaves the truth-telling sensors alone.
    const std::size_t dies = sensor_health_.size() / 2;
    bool any_die_hot = false;
    for (std::size_t d = 0; d < dies; ++d) {
        die_hot_scratch_[d] =
            std::min(sensor_residual_[2 * d], sensor_residual_[2 * d + 1]) >
                    config_.fan_thermal_residual_c
                ? 1
                : 0;
        any_die_hot = any_die_hot || die_hot_scratch_[d] != 0;
    }
    bool any_quiet_pair = false;
    for (std::size_t i = 0; i < fan_health_.size() && !any_quiet_pair; ++i) {
        any_quiet_pair = fan_bad_steps_[i] == 0;
    }
    const bool attribute_to_fans = any_die_hot && any_quiet_pair;
    // Pass 3: verdicts.  A sensor is out of band on an instantaneous
    // threshold crossing or a CUSUM alarm — unless the divergence is
    // being charged to the fans, in which case every *hot-direction*
    // residual is trusted: once a tach is known to lie, the twin's
    // airflow picture is wrong plant-wide (the dead zone's heat couples
    // into its neighbours through mixing and conduction), so a sensor
    // reading hotter than the twin is corroborating the fan fault, not
    // lying.  Cool-direction residuals — the dangerous lie — are never
    // suppressed.  Attribution can only fire when a tach lies: an
    // honestly-dead pair reads 0 on the tach and the twin models its
    // zone correctly, so this suppression is inert on honest hardware.
    for (std::size_t s = 0; s < sensor_health_.size(); ++s) {
        const bool cusum_alarm = sensor_cusum_pos_[s] >= h || sensor_cusum_neg_[s] >= h;
        bool out_of_band =
            std::fabs(sensor_residual_[s]) > config_.sensor_residual_c || cusum_alarm;
        if (attribute_to_fans && sensor_residual_[s] > 0.0 && sensor_cusum_neg_[s] < h) {
            out_of_band = false;
        }
        update_health(sensor_health_[s], sensor_bad_polls_[s], sensor_good_polls_[s],
                      out_of_band, config_.sensor_suspect_polls, config_.sensor_fail_polls,
                      config_.sensor_clear_polls);
    }
    for (std::size_t i = 0; i < fan_health_.size(); ++i) {
        const bool thermal_bad = attribute_to_fans && fan_bad_steps_[i] == 0;
        update_health(fan_thermal_health_[i], fan_thermal_bad_polls_[i],
                      fan_thermal_good_polls_[i], thermal_bad,
                      config_.fan_thermal_suspect_polls, config_.fan_thermal_fail_polls,
                      config_.fan_thermal_clear_polls);
    }
}

component_health fault_monitor::sensor_health(std::size_t sensor) const {
    util::ensure(sensor < sensor_health_.size(), "fault_monitor::sensor_health: bad sensor");
    return static_cast<component_health>(sensor_health_[sensor]);
}

component_health fault_monitor::fan_health(std::size_t pair_index) const {
    util::ensure(pair_index < fan_health_.size(), "fault_monitor::fan_health: bad pair");
    return static_cast<component_health>(
        std::max(fan_health_[pair_index], fan_thermal_health_[pair_index]));
}

component_health fault_monitor::worst_sensor_health() const {
    std::uint8_t worst = 0;
    for (const std::uint8_t h : sensor_health_) {
        worst = std::max(worst, h);
    }
    return static_cast<component_health>(worst);
}

component_health fault_monitor::worst_fan_health() const {
    std::uint8_t worst = 0;
    for (std::size_t i = 0; i < fan_health_.size(); ++i) {
        worst = std::max({worst, fan_health_[i], fan_thermal_health_[i]});
    }
    return static_cast<component_health>(worst);
}

double fault_monitor::sensor_residual_c(std::size_t sensor) const {
    util::ensure(sensor < sensor_residual_.size(), "fault_monitor::sensor_residual_c: bad sensor");
    return sensor_residual_[sensor];
}

double fault_monitor::sensor_cusum_pos_c(std::size_t sensor) const {
    util::ensure(sensor < sensor_cusum_pos_.size(),
                 "fault_monitor::sensor_cusum_pos_c: bad sensor");
    return sensor_cusum_pos_[sensor];
}

double fault_monitor::sensor_cusum_neg_c(std::size_t sensor) const {
    util::ensure(sensor < sensor_cusum_neg_.size(),
                 "fault_monitor::sensor_cusum_neg_c: bad sensor");
    return sensor_cusum_neg_[sensor];
}

double fault_monitor::die_estimate_c(std::size_t die) const {
    return twin_.cpu_die_temp(0, die).value();
}

double fault_monitor::max_die_estimate_c() const {
    return std::max(twin_.cpu_die_temp(0, 0).value(), twin_.cpu_die_temp(0, 1).value());
}

void fault_monitor::save_state(fault_monitor_state& out) const {
    twin_.save_state(0, out.twin);
    out.commanded_rpm = commanded_rpm_;
    out.fan_prev_rpm = fan_prev_rpm_;
    out.fan_grace_steps = fan_grace_steps_;
    out.fan_health = fan_health_;
    out.fan_bad_steps = fan_bad_steps_;
    out.fan_good_steps = fan_good_steps_;
    out.fan_thermal_health = fan_thermal_health_;
    out.fan_thermal_bad_polls = fan_thermal_bad_polls_;
    out.fan_thermal_good_polls = fan_thermal_good_polls_;
    out.sensor_health = sensor_health_;
    out.sensor_bad_polls = sensor_bad_polls_;
    out.sensor_good_polls = sensor_good_polls_;
    out.sensor_residual_c = sensor_residual_;
    out.sensor_cusum_pos_c = sensor_cusum_pos_;
    out.sensor_cusum_neg_c = sensor_cusum_neg_;
}

void fault_monitor::restore_state(const fault_monitor_state& state, const power::fan_bank& fans) {
    util::ensure(state.commanded_rpm.size() == commanded_rpm_.size() &&
                     state.fan_prev_rpm.size() == fan_prev_rpm_.size() &&
                     state.fan_grace_steps.size() == fan_grace_steps_.size() &&
                     state.fan_health.size() == fan_health_.size() &&
                     state.fan_bad_steps.size() == fan_bad_steps_.size() &&
                     state.fan_good_steps.size() == fan_good_steps_.size() &&
                     state.fan_thermal_health.size() == fan_thermal_health_.size() &&
                     state.fan_thermal_bad_polls.size() == fan_thermal_bad_polls_.size() &&
                     state.fan_thermal_good_polls.size() == fan_thermal_good_polls_.size(),
                 "fault_monitor::restore_state: fan state shape mismatch");
    util::ensure(state.sensor_health.size() == sensor_health_.size() &&
                     state.sensor_bad_polls.size() == sensor_bad_polls_.size() &&
                     state.sensor_good_polls.size() == sensor_good_polls_.size() &&
                     state.sensor_residual_c.size() == sensor_residual_.size() &&
                     state.sensor_cusum_pos_c.size() == sensor_cusum_pos_.size() &&
                     state.sensor_cusum_neg_c.size() == sensor_cusum_neg_.size(),
                 "fault_monitor::restore_state: sensor state shape mismatch");
    commanded_rpm_ = state.commanded_rpm;
    fan_prev_rpm_ = state.fan_prev_rpm;
    fan_grace_steps_ = state.fan_grace_steps;
    fan_health_ = state.fan_health;
    fan_bad_steps_ = state.fan_bad_steps;
    fan_good_steps_ = state.fan_good_steps;
    fan_thermal_health_ = state.fan_thermal_health;
    fan_thermal_bad_polls_ = state.fan_thermal_bad_polls;
    fan_thermal_good_polls_ = state.fan_thermal_good_polls;
    sensor_health_ = state.sensor_health;
    sensor_bad_polls_ = state.sensor_bad_polls;
    sensor_good_polls_ = state.sensor_good_polls;
    sensor_residual_ = state.sensor_residual_c;
    sensor_cusum_pos_ = state.sensor_cusum_pos_c;
    sensor_cusum_neg_ = state.sensor_cusum_neg_c;
    // Re-derive airflow from the restored actuators first (the same
    // values the snapshot saw), then overwrite with the exact saved
    // twin state — conductances included — so the round trip is bitwise.
    sync_airflow(fans, /*force=*/true);
    twin_.restore_state(0, state.twin);
}

void fault_monitor::clear_health() {
    std::fill(fan_grace_steps_.begin(), fan_grace_steps_.end(), 0);
    std::fill(fan_health_.begin(), fan_health_.end(), std::uint8_t{0});
    std::fill(fan_bad_steps_.begin(), fan_bad_steps_.end(), 0);
    std::fill(fan_good_steps_.begin(), fan_good_steps_.end(), 0);
    std::fill(fan_thermal_health_.begin(), fan_thermal_health_.end(), std::uint8_t{0});
    std::fill(fan_thermal_bad_polls_.begin(), fan_thermal_bad_polls_.end(), 0);
    std::fill(fan_thermal_good_polls_.begin(), fan_thermal_good_polls_.end(), 0);
    std::fill(sensor_health_.begin(), sensor_health_.end(), std::uint8_t{0});
    std::fill(sensor_bad_polls_.begin(), sensor_bad_polls_.end(), 0);
    std::fill(sensor_good_polls_.begin(), sensor_good_polls_.end(), 0);
    std::fill(sensor_residual_.begin(), sensor_residual_.end(), 0.0);
    std::fill(sensor_cusum_pos_.begin(), sensor_cusum_pos_.end(), 0.0);
    std::fill(sensor_cusum_neg_.begin(), sensor_cusum_neg_.end(), 0.0);
}

void fault_monitor::sync_ambient(util::celsius_t ambient) {
    if (ambient.value() != twin_.ambient(0).value()) {
        twin_.set_ambient(0, ambient);
    }
}

void fault_monitor::sync_airflow(const power::fan_bank& fans, bool force) {
    util::ensure(fans.pair_count() == effective_rpm_cache_.size(),
                 "fault_monitor::sync_airflow: fan pair count mismatch");
    bool changed = force;
    for (std::size_t i = 0; i < effective_rpm_cache_.size() && !changed; ++i) {
        changed = fans.effective_speed(i).value() != effective_rpm_cache_[i];
    }
    if (!changed) {
        return;
    }
    // The twin's airflow comes from the TACH reading, not the plant's
    // true delivery: on honest tachs the two are identical (a stopped
    // rotor reads 0 -> 0 CFM; a spinning one reads its clamped speed),
    // but a lying tach feeds the twin phantom airflow — which is exactly
    // the divergence the thermal cross-check in on_poll() detects.
    for (std::size_t i = 0; i < effective_rpm_cache_.size(); ++i) {
        effective_rpm_cache_[i] = fans.effective_speed(i).value();
        zone_airflow_scratch_[i] = fans.tach_airflow(i);
    }
    twin_.set_zone_airflow(0, zone_airflow_scratch_);
}

}  // namespace ltsc::core
