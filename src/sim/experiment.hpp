// The paper's experimental protocol (Section IV) as reusable runners.
//
// Every characterization experiment follows the same conditions:
//   (i)   isolated environment at 24 degC ambient;
//   (ii)  cold start forced by >= 10 min of idle with fans at 3600 RPM;
//   (iii) at t = 0 the fans are set to the target speed and the machine
//         idles 5 more minutes for stabilization;
//   (iv)  the last 10 minutes run with the CPUs idle.
//
// `run_protocol_experiment` reproduces that timeline (Fig. 1's 45-minute
// x-axis: 5 min idle + 30 min load + 10 min idle) from the load pattern
// `protocol_workload` builds, which the measured characterization sweep
// (core/characterization.hpp) drives too; `run_steady_sweep`
// jumps straight to the steady state of each (utilization, RPM) pair,
// which is what the leakage fitting and LUT generation consume.
#pragma once

#include <vector>

#include "sim/server_simulator.hpp"
#include "workload/loadgen.hpp"

namespace ltsc::sim {

/// Timing of the Section-IV protocol.
struct protocol_timing {
    util::seconds_t stabilization{5.0 * 60.0};  ///< Idle head after fan set.
    util::seconds_t load_window{30.0 * 60.0};   ///< LoadGen active window.
    util::seconds_t cooldown{10.0 * 60.0};      ///< Idle tail.

    [[nodiscard]] util::seconds_t total() const {
        return stabilization + load_window + cooldown;
    }
};

/// The protocol's workload: idle for the stabilization head, `duty_pct`
/// load for the load window, idle for the cooldown tail.
[[nodiscard]] workload::loadgen protocol_workload(double duty_pct, const protocol_timing& timing,
                                                  const workload::loadgen_config& lg);

/// Runs one protocol experiment on `sim`: cold start, fans to `fan_rpm`,
/// 5 min idle, `duty_pct` load for the load window, 10 min idle.  The
/// simulator's trace afterwards covers the full timeline.
void run_protocol_experiment(server_simulator& sim, util::rpm_t fan_rpm, double duty_pct,
                             const protocol_timing& timing = {},
                             const workload::loadgen_config& lg = {});

/// One steady-state operating point of the plant.
struct steady_point {
    double utilization_pct = 0.0;  ///< Constant (PWM-average) utilization.
    double fan_rpm = 0.0;          ///< All pairs at this speed.
    double avg_cpu_temp_c = 0.0;   ///< Steady mean die temperature.
    double dimm_temp_c = 0.0;      ///< Steady DIMM bank temperature.
    double fan_power_w = 0.0;      ///< Fan bank electrical power.
    double leakage_power_w = 0.0;  ///< Ground-truth leakage power.
    double active_power_w = 0.0;   ///< Active power.
    double total_power_w = 0.0;    ///< Wall power.
};

/// Evaluates the steady state at one (utilization, RPM) pair.
[[nodiscard]] steady_point measure_steady_point(server_simulator& sim, double utilization_pct,
                                                util::rpm_t fan_rpm);

/// Full characterization sweep over the cross product of utilization
/// levels and fan speeds (the paper sweeps U in {10, 25, 40, 50, 60, 75,
/// 90, 100} and RPM in {1800 ... 4200}).
[[nodiscard]] std::vector<steady_point> run_steady_sweep(
    server_simulator& sim, const std::vector<double>& utilizations,
    const std::vector<util::rpm_t>& fan_speeds);

/// The utilization levels of the paper's characterization (Section IV).
[[nodiscard]] std::vector<double> paper_utilization_levels();

}  // namespace ltsc::sim
