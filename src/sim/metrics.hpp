// Table-I metrics: the quantities the paper reports per test and
// controller.
//
//   Test | Control | Energy (kWh) | Net Savings | Peak Pwr (W) |
//   Max Temp (degC) | #fan changes | Avg RPM
//
// "Net savings" follow the paper's definition: idle energy (idle power
// times test duration) is subtracted from both the controller's and the
// baseline's energy before comparing, because the idle floor cannot be
// influenced by fan control.
#pragma once

#include <cstddef>
#include <string>

#include "sim/fault_schedule.hpp"
#include "sim/server_simulator.hpp"
#include "util/units.hpp"

namespace ltsc::sim {

/// One row of Table I.
struct run_metrics {
    std::string test_name;        ///< "Test-1" ... "Test-4".
    std::string controller_name;  ///< "Default", "Bang", "LUT", ...
    double energy_kwh = 0.0;      ///< Integral of wall power over the run.
    double peak_power_w = 0.0;    ///< Maximum instantaneous wall power.
    double max_temp_c = 0.0;      ///< Maximum CPU sensor reading.
    std::size_t fan_changes = 0;  ///< Fan speed changes issued.
    double avg_rpm = 0.0;         ///< Time-average commanded RPM.
    double avg_cpu_temp_c = 0.0;  ///< Time-average of the die mean.
    double duration_s = 0.0;      ///< Trace span.
};

/// Extracts the metrics from a finished run's trace view (a
/// `simulation_trace` converts implicitly).  `fan_changes` is the plant's counter at
/// extraction time.  Throws precondition_error when the trace has fewer
/// than 2 samples.  Channels cannot drift out of step: the columnar
/// store appends every channel in one row.
[[nodiscard]] run_metrics compute_metrics(const trace_view& trace, std::size_t fan_changes,
                                          std::string test_name, std::string controller_name);

/// Extracts the metrics from a finished run's trace.
[[nodiscard]] run_metrics compute_metrics(const server_simulator& sim, std::string test_name,
                                          std::string controller_name);

/// Extracts the metrics of one server_batch lane.
[[nodiscard]] run_metrics compute_metrics(const server_batch& batch, std::size_t lane,
                                          std::string test_name, std::string controller_name);

/// Fault-detection quality of one recorded run, extracted from the
/// monitor health channels the plant records every step.  Over a
/// *healthy* run (no schedule) any alarm step is a false positive; over
/// a faulted run, pass the campaign so each onset gets a time-to-detect
/// against the matching health channel.
struct detection_summary {
    std::size_t samples = 0;            ///< Trace rows inspected.
    std::size_t alarm_steps = 0;        ///< Rows with any verdict >= suspect.
    std::size_t sensor_alarm_steps = 0; ///< Rows with worst sensor verdict >= suspect.
    std::size_t fan_alarm_steps = 0;    ///< Rows with worst fan verdict >= suspect.
    double first_sensor_alarm_s = -1.0; ///< Time of the first sensor alarm (-1 = none).
    double first_fan_alarm_s = -1.0;    ///< Time of the first fan alarm (-1 = none).

    // Campaign-relative detection (zero without a schedule).  Telemetry
    // losses are excluded: staleness is the failsafe watchdog's domain,
    // not the residual monitor's.
    std::size_t fault_onsets = 0;           ///< Fan/sensor onsets considered.
    std::size_t detected = 0;               ///< Onsets alarmed before recovery.
    double mean_time_to_detect_s = 0.0;     ///< Over detected onsets.
    double max_time_to_detect_s = 0.0;

    // Drift-specific latency (subset of the counts above): sensor_drift
    // onsets ramp from zero error, so their time-to-detect measures the
    // CUSUM's accumulation latency rather than the instantaneous
    // threshold's poll alignment.
    std::size_t drift_onsets = 0;            ///< sensor_drift onsets considered.
    std::size_t drift_detected = 0;          ///< Drift onsets alarmed before recovery.
    double mean_drift_time_to_detect_s = 0.0;  ///< Over detected drift onsets.
    double max_drift_time_to_detect_s = 0.0;

    /// Fraction of rows carrying any alarm (the healthy-run false-positive
    /// rate when no faults were injected).
    [[nodiscard]] double alarm_fraction() const {
        return samples == 0 ? 0.0
                            : static_cast<double>(alarm_steps) / static_cast<double>(samples);
    }
};

/// Extracts the detection summary from a recorded trace.  `schedule`
/// (optional) attributes alarms to fault onsets: for each fan/sensor
/// onset the matching health channel is scanned from the onset to the
/// component's recovery (or the trace end) for the first suspect-or-worse
/// verdict.  Works on monitor-off traces too (all-zero channels — no
/// alarms, nothing detected).
[[nodiscard]] detection_summary compute_detection_summary(const trace_view& trace,
                                                          const fault_schedule* schedule = nullptr);

/// Net energy savings of `candidate` vs. `baseline` per the paper's
/// definition.  `idle_power` is the steady idle wall power; the idle
/// energy over the run duration is subtracted from both sides.  Returns a
/// fraction (0.087 = 8.7 %).  Throws when the baseline's net energy is
/// not positive.
[[nodiscard]] double net_savings(const run_metrics& candidate, const run_metrics& baseline,
                                 util::watts_t idle_power);

}  // namespace ltsc::sim
