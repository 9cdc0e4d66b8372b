// Model-based fault detection: a healthy-twin residual monitor.
//
// The twin is one more lane of the plant's thermal model (dormant until a
// tach lies, see sim::server_batch), driven ONLY by quantities a real BMC could observe:
// commanded fan speeds, tachometer readings, the host utilization
// counter, and ambient.  The monitor itself keeps only residuals and
// verdicts.  Two residual families fall out:
//
//   * sensor residual  = delivered CSTH reading - twin die temperature.
//     The twin runs the plant's own power model and airflow arithmetic,
//     so on this simulated server it tracks the *true* die temperature
//     and the residual isolates the sensor error exactly: placement
//     spread (±1 degC), read noise (3σ ≈ 0.45 degC) and quantization
//     (0.25 degC) bound the honest residual well under the 3 degC
//     threshold, which makes false positives structurally impossible
//     here.  (On real hardware the threshold additionally absorbs model
//     error; the hysteresis knobs below exist for exactly that.)
//   * fan residual = |last commanded RPM - tachometer RPM| per pair.
//     A healthy pair tracks its command exactly; a failed rotor reads 0.
//     For `fan_command_grace_steps` after a command *change* the residual
//     also accepts the previous command, so tach-reporting lag during a
//     legitimate ramp never counts as a fault — while a rotor matching
//     neither command (dead) keeps counting through the grace window.
//   * sensor CUSUM = one-sided accumulated residual per sensor.  Each
//     poll adds `residual - sensor_cusum_k_c` to a positive sum and
//     `-residual - sensor_cusum_k_c` to a negative one, both clamped to
//     [0, sensor_cusum_h_c]; reaching the bound is an alarm.  The drift
//     allowance `k` sits above the honest-residual envelope, so healthy
//     noise never accumulates, while a sustained sub-threshold drift of
//     rate r crosses the bound about h/(r - k_excess) polls after the
//     drift clears the allowance — bounded latency for faults the
//     instantaneous threshold is structurally blind to.
//   * fan thermal cross-check = tach-distrust.  The twin follows the
//     *tach-reported* airflow, so on honest hardware it tracks the true
//     die exactly.  When every sensor of a die runs persistently hotter
//     than the twin (lost-cooling direction) while some fan pair's tach
//     still agrees with its command, the tach is the liar: the monitor
//     attributes the divergence to the command-quiet pairs (suspect ->
//     failed through `fan_thermal_*_polls` hysteresis) instead of
//     flagging sensors that are telling the truth.  While the
//     attribution is live, *hot-direction* sensor verdicts are
//     suppressed plant-wide — a lying tach makes the twin's airflow
//     picture wrong everywhere (the dead zone's heat couples into its
//     neighbours), so hotter-than-twin readings corroborate the fan
//     fault.  Cool-direction residuals, the dangerous lie, are never
//     suppressed.
//
// Residuals feed per-component health verdicts through hysteresis
// counters: `sensor_suspect_polls` consecutive out-of-band polls flag a
// sensor suspect, `sensor_fail_polls` fail it, `sensor_clear_polls`
// clean polls clear it (fans likewise, counted in plant steps).  A
// pair's reported health is the worst of its tach-residual and thermal
// cross-check verdicts.
//
// What the monitor can catch: stuck/biased/dropout-held sensor readings
// once they diverge from the modeled die by more than the threshold,
// slow drifts and intermittent biases once their accumulated residual
// crosses the CUSUM bound, dead fan pairs, stuck-PWM pairs *once the
// controller commands a different speed*, and tach-stuck pairs whose
// lying tachometer masks a lost rotor (via the thermal cross-check).
// Remaining blind spots: sensor errors whose accumulated drift stays
// under the CUSUM allowance, and faults in the utilization counter or
// ambient feed.
//
// The monitor is a passive observer: it never touches the plant's RNG
// or dynamics, so a monitor-on run records the same plant trajectory
// bitwise as a monitor-off run.  Its state (latched commands,
// hysteresis counters) rides `fault_monitor_state` through plant
// snapshot/restore bitwise, next to the twin lane's thermal state.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/units.hpp"

namespace ltsc::core {

/// Verdict of the residual monitor for one monitored component.
enum class component_health : std::uint8_t { healthy = 0, suspect = 1, failed = 2 };

[[nodiscard]] const char* to_string(component_health health);

/// Thresholds and hysteresis depths of the residual monitor.
struct fault_monitor_config {
    bool enabled = false;  ///< Off by default: monitor-off == healthy build bitwise.

    double sensor_residual_c = 3.0;  ///< |reading - modeled die| alarm threshold [degC].
    int sensor_suspect_polls = 2;    ///< Consecutive bad polls before "suspect".
    int sensor_fail_polls = 4;       ///< Consecutive bad polls before "failed".
    int sensor_clear_polls = 2;      ///< Consecutive good polls before "healthy".

    /// CUSUM drift allowance per poll [degC].  Sits above the honest
    /// residual envelope (±1 placement + 3σ ≈ 0.45 noise + 0.25
    /// quantization ≈ 1.7), so healthy polls drive the sums to zero.
    double sensor_cusum_k_c = 1.75;
    /// CUSUM decision bound [degC·polls].  Sums clamp to [0, h]; an
    /// update landing on the bound is the alarm.  The clamp caps the
    /// post-recovery decay at ~h/k polls, keeping clear latency bounded.
    double sensor_cusum_h_c = 5.0;

    double fan_residual_rpm = 60.0;  ///< |commanded - tach| alarm threshold [RPM].
    int fan_suspect_steps = 2;       ///< Consecutive bad steps before "suspect".
    int fan_fail_steps = 5;          ///< Consecutive bad steps before "failed".
    int fan_clear_steps = 2;         ///< Consecutive good steps before "healthy".
    /// Steps after a command *change* during which the fan residual also
    /// accepts the previous command (tach-reporting lag on a ramp is not
    /// a fault; a rotor matching neither command still counts bad).
    int fan_command_grace_steps = 2;

    /// Die-wide positive sensor/twin divergence [degC] that triggers the
    /// tach-distrust cross-check when some pair's tach agrees with its
    /// command (lost cooling the tach residual cannot see).
    double fan_thermal_residual_c = 3.0;
    int fan_thermal_suspect_polls = 2;  ///< Bad polls before thermal "suspect".
    int fan_thermal_fail_polls = 4;     ///< Bad polls before thermal "failed".
    int fan_thermal_clear_polls = 2;    ///< Good polls before thermal "healthy".
};

/// Throws precondition_error unless every threshold is finite and
/// positive and every hysteresis depth is consistent.  sim::validate calls it even while the
/// monitor is disabled.
void validate(const fault_monitor_config& config);

/// Snapshot of the monitor: every latched command, hysteresis counter
/// and residual.  Plain data; rides sim::server_state.
struct fault_monitor_state {
    std::vector<double> commanded_rpm;
    std::vector<double> fan_prev_rpm;
    std::vector<int> fan_grace_steps;
    std::vector<std::uint8_t> fan_health;
    std::vector<int> fan_bad_steps;
    std::vector<int> fan_good_steps;
    std::vector<std::uint8_t> fan_thermal_health;
    std::vector<int> fan_thermal_bad_polls;
    std::vector<int> fan_thermal_good_polls;
    std::vector<std::uint8_t> sensor_health;
    std::vector<int> sensor_bad_polls;
    std::vector<int> sensor_good_polls;
    std::vector<double> sensor_residual_c;
    std::vector<double> sensor_cusum_pos_c;
    std::vector<double> sensor_cusum_neg_c;
};

class fault_monitor {
public:
    /// Arms a monitor against the plant's current actuator state: one
    /// fan pair per `commanded_rpm` entry, latched at that command, and
    /// two CSTH sensors on each of the two dies (sensors 2d and 2d+1 on
    /// die d), every verdict healthy.  A cold start re-arms by rebuilding.
    fault_monitor(const fault_monitor_config& config, const std::vector<double>& commanded_rpm);

    /// Records a controller fan command (already clamped to the legal
    /// range).  Called at the plant's actuation entry points so the
    /// command is captured even when a degraded pair latches it.
    void observe_fan_command(std::size_t pair_index, util::rpm_t clamped);
    void observe_all_fan_commands(util::rpm_t clamped);

    /// Refreshes the fan command/tach residuals for one plant step;
    /// `tach_rpm` holds one tachometer reading per pair.
    void step(const std::vector<double>& tach_rpm);

    /// Scores one telemetry poll: `delivered` are the (possibly
    /// corrupted) CSTH readings, compared against `twin_die`, the twin's
    /// die temperatures [degC] in socket order.
    void on_poll(const std::vector<double>& delivered, const std::array<double, 2>& twin_die);

    [[nodiscard]] std::size_t sensor_count() const { return st_.sensor_health.size(); }
    [[nodiscard]] std::size_t fan_pair_count() const { return st_.fan_health.size(); }
    [[nodiscard]] component_health sensor_health(std::size_t sensor) const;
    /// Worst of the pair's tach-residual and thermal cross-check verdicts.
    [[nodiscard]] component_health fan_health(std::size_t pair_index) const;
    [[nodiscard]] component_health worst_sensor_health() const;
    [[nodiscard]] component_health worst_fan_health() const;
    /// Signed residual of the last scored poll for one sensor [degC].
    [[nodiscard]] double sensor_residual_c(std::size_t sensor) const;
    /// Current one-sided CUSUM sums for one sensor [degC·polls], clamped
    /// to [0, sensor_cusum_h_c].  Exposed for tests and calibration.
    [[nodiscard]] double sensor_cusum_pos_c(std::size_t sensor) const;
    [[nodiscard]] double sensor_cusum_neg_c(std::size_t sensor) const;

    void save_state(fault_monitor_state& out) const;
    /// Restores a snapshot; throws, leaving the monitor untouched, unless
    /// every vector has this monitor's shape.
    void restore_state(const fault_monitor_state& state);

private:
    fault_monitor_config config_;
    fault_monitor_state st_;
};

}  // namespace ltsc::core
