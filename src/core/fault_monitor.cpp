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
    } else if (bad >= suspect_after &&
               health == static_cast<std::uint8_t>(component_health::healthy)) {
        health = static_cast<std::uint8_t>(component_health::suspect);
    }
    if (good >= clear_after) {
        health = static_cast<std::uint8_t>(component_health::healthy);
    }
}

template <typename... Vectors>
bool all_sized(std::size_t n, const Vectors&... v) {
    return ((v.size() == n) && ...);
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
                             const std::vector<double>& commanded_rpm)
    : config_(config) {
    validate(config_);
    const std::size_t pairs = commanded_rpm.size();
    const std::size_t sensors = 4;  // two CSTH sensors on each of the two dies
    st_.commanded_rpm = commanded_rpm;
    st_.fan_prev_rpm = commanded_rpm;
    st_.fan_grace_steps.assign(pairs, 0);
    st_.fan_health.assign(pairs, 0);
    st_.fan_bad_steps.assign(pairs, 0);
    st_.fan_good_steps.assign(pairs, 0);
    st_.fan_thermal_health.assign(pairs, 0);
    st_.fan_thermal_bad_polls.assign(pairs, 0);
    st_.fan_thermal_good_polls.assign(pairs, 0);
    st_.sensor_health.assign(sensors, 0);
    st_.sensor_bad_polls.assign(sensors, 0);
    st_.sensor_good_polls.assign(sensors, 0);
    st_.sensor_residual_c.assign(sensors, 0.0);
    st_.sensor_cusum_pos_c.assign(sensors, 0.0);
    st_.sensor_cusum_neg_c.assign(sensors, 0.0);
}

void fault_monitor::observe_fan_command(std::size_t pair_index, util::rpm_t clamped) {
    util::ensure(pair_index < st_.commanded_rpm.size(),
                 "fault_monitor::observe_fan_command: bad pair");
    if (clamped.value() != st_.commanded_rpm[pair_index]) {
        st_.fan_prev_rpm[pair_index] = st_.commanded_rpm[pair_index];
        st_.fan_grace_steps[pair_index] = config_.fan_command_grace_steps;
    }
    st_.commanded_rpm[pair_index] = clamped.value();
}

void fault_monitor::observe_all_fan_commands(util::rpm_t clamped) {
    for (std::size_t i = 0; i < st_.commanded_rpm.size(); ++i) {
        observe_fan_command(i, clamped);
    }
}

void fault_monitor::step(const std::vector<double>& tach_rpm) {
    util::ensure(tach_rpm.size() == st_.fan_health.size(),
                 "fault_monitor::step: fan pair count mismatch");
    for (std::size_t i = 0; i < st_.fan_health.size(); ++i) {
        const double tach = tach_rpm[i];
        double residual = std::fabs(st_.commanded_rpm[i] - tach);
        // During the grace window after a command change, a tach still
        // reporting the previous command is lag, not a fault.  A rotor
        // matching neither command (dead) keeps counting bad.
        if (st_.fan_grace_steps[i] > 0) {
            --st_.fan_grace_steps[i];
            residual = std::min(residual, std::fabs(st_.fan_prev_rpm[i] - tach));
        }
        update_health(st_.fan_health[i], st_.fan_bad_steps[i], st_.fan_good_steps[i],
                      residual > config_.fan_residual_rpm, config_.fan_suspect_steps,
                      config_.fan_fail_steps, config_.fan_clear_steps);
    }
}

void fault_monitor::on_poll(const std::vector<double>& delivered,
                            const std::array<double, 2>& twin_die) {
    util::ensure(delivered.size() == st_.sensor_health.size(),
                 "fault_monitor::on_poll: sensor count mismatch");
    // Pass 1: residuals and CUSUM accumulation.  Update-then-test with
    // sums clamped to [0, h]: healthy polls (|residual| < k) drain the
    // sums, sustained drifts fill them, and the clamp bounds both the
    // snapshot payload and the post-recovery clear latency.
    const double k = config_.sensor_cusum_k_c;
    const double h = config_.sensor_cusum_h_c;
    for (std::size_t s = 0; s < st_.sensor_health.size(); ++s) {
        const double residual = delivered[s] - twin_die[s / 2];
        st_.sensor_residual_c[s] = residual;
        st_.sensor_cusum_pos_c[s] = std::clamp(st_.sensor_cusum_pos_c[s] + residual - k, 0.0, h);
        st_.sensor_cusum_neg_c[s] = std::clamp(st_.sensor_cusum_neg_c[s] - residual - k, 0.0, h);
    }
    // Pass 2: tach-distrust cross-check.  The twin follows the
    // *tach-reported* airflow, so on honest hardware it tracks the true
    // die bitwise and a die-wide hot divergence can only mean lost
    // cooling a tach failed to report.  When such a die coexists with a
    // command-quiet pair (tach residual currently clean), the monitor
    // blames the quiet pairs — the tach cannot localize which one lies —
    // and leaves the truth-telling sensors alone.
    const std::vector<double>& r = st_.sensor_residual_c;
    bool any_die_hot = false;
    for (std::size_t d = 0; d < r.size() / 2; ++d) {
        const double coolest = std::min(r[2 * d], r[2 * d + 1]);
        any_die_hot = any_die_hot || coolest > config_.fan_thermal_residual_c;
    }
    bool any_quiet_pair = false;
    for (std::size_t i = 0; i < st_.fan_health.size() && !any_quiet_pair; ++i) {
        any_quiet_pair = st_.fan_bad_steps[i] == 0;
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
    for (std::size_t s = 0; s < st_.sensor_health.size(); ++s) {
        const bool cusum_alarm = st_.sensor_cusum_pos_c[s] >= h || st_.sensor_cusum_neg_c[s] >= h;
        bool out_of_band =
            std::fabs(st_.sensor_residual_c[s]) > config_.sensor_residual_c || cusum_alarm;
        if (attribute_to_fans && st_.sensor_residual_c[s] > 0.0 && st_.sensor_cusum_neg_c[s] < h) {
            out_of_band = false;
        }
        update_health(st_.sensor_health[s], st_.sensor_bad_polls[s], st_.sensor_good_polls[s],
                      out_of_band, config_.sensor_suspect_polls, config_.sensor_fail_polls,
                      config_.sensor_clear_polls);
    }
    for (std::size_t i = 0; i < st_.fan_health.size(); ++i) {
        const bool thermal_bad = attribute_to_fans && st_.fan_bad_steps[i] == 0;
        update_health(st_.fan_thermal_health[i], st_.fan_thermal_bad_polls[i],
                      st_.fan_thermal_good_polls[i], thermal_bad,
                      config_.fan_thermal_suspect_polls, config_.fan_thermal_fail_polls,
                      config_.fan_thermal_clear_polls);
    }
}

component_health fault_monitor::sensor_health(std::size_t sensor) const {
    util::ensure(sensor < st_.sensor_health.size(), "fault_monitor::sensor_health: bad sensor");
    return static_cast<component_health>(st_.sensor_health[sensor]);
}

component_health fault_monitor::fan_health(std::size_t pair_index) const {
    util::ensure(pair_index < st_.fan_health.size(), "fault_monitor::fan_health: bad pair");
    return static_cast<component_health>(
        std::max(st_.fan_health[pair_index], st_.fan_thermal_health[pair_index]));
}

component_health fault_monitor::worst_sensor_health() const {
    std::uint8_t worst = 0;
    for (const std::uint8_t h : st_.sensor_health) {
        worst = std::max(worst, h);
    }
    return static_cast<component_health>(worst);
}

component_health fault_monitor::worst_fan_health() const {
    std::uint8_t worst = 0;
    for (std::size_t i = 0; i < st_.fan_health.size(); ++i) {
        worst = std::max({worst, st_.fan_health[i], st_.fan_thermal_health[i]});
    }
    return static_cast<component_health>(worst);
}

double fault_monitor::sensor_residual_c(std::size_t sensor) const {
    util::ensure(sensor < st_.sensor_residual_c.size(),
                 "fault_monitor::sensor_residual_c: bad sensor");
    return st_.sensor_residual_c[sensor];
}

double fault_monitor::sensor_cusum_pos_c(std::size_t sensor) const {
    util::ensure(sensor < st_.sensor_cusum_pos_c.size(),
                 "fault_monitor::sensor_cusum_pos_c: bad sensor");
    return st_.sensor_cusum_pos_c[sensor];
}

double fault_monitor::sensor_cusum_neg_c(std::size_t sensor) const {
    util::ensure(sensor < st_.sensor_cusum_neg_c.size(),
                 "fault_monitor::sensor_cusum_neg_c: bad sensor");
    return st_.sensor_cusum_neg_c[sensor];
}

void fault_monitor::save_state(fault_monitor_state& out) const { out = st_; }

void fault_monitor::restore_state(const fault_monitor_state& state) {
    util::ensure(all_sized(st_.commanded_rpm.size(), state.commanded_rpm, state.fan_prev_rpm,
                           state.fan_grace_steps, state.fan_health, state.fan_bad_steps,
                           state.fan_good_steps, state.fan_thermal_health,
                           state.fan_thermal_bad_polls, state.fan_thermal_good_polls),
                 "fault_monitor::restore_state: fan state shape mismatch");
    util::ensure(all_sized(st_.sensor_health.size(), state.sensor_health, state.sensor_bad_polls,
                           state.sensor_good_polls, state.sensor_residual_c,
                           state.sensor_cusum_pos_c, state.sensor_cusum_neg_c),
                 "fault_monitor::restore_state: sensor state shape mismatch");
    st_ = state;
}

}  // namespace ltsc::core
