// Section-IV pipeline: from sweep measurements to a fitted power model
// and the controller LUT.
//
// The paper's methodology, reproduced end to end:
//   1. Sweep utilization x fan speed and measure steady operating points
//      (sim/experiment.hpp provides the sweep).
//   2. Fit  P - P_fan = c0 + k1 * U + k2 * e^(k3 * T)  by nonlinear least
//      squares.  c0 absorbs the base power plus the leakage offset C; k2
//      and k3 are directly comparable with the paper's published 0.3231
//      and 0.04749.
//   3. For each utilization level, pick the fan speed minimizing measured
//      fan power plus *model-predicted* leakage, subject to the 75 degC
//      reliability cap -> the LUT the runtime controller uses.
#pragma once

#include <vector>

#include "core/fan_lut.hpp"
#include "sim/experiment.hpp"

namespace ltsc::core {

/// Fitted parameters of the paper's Eqn. 1/2 power decomposition.
struct power_model_fit {
    double c0_w = 0.0;        ///< Utilization/temperature-independent offset.
    double k1_w_per_pct = 0;  ///< Active power slope (system-level).
    double k2_w = 0.0;        ///< Leakage exponential prefactor.
    double k3_per_c = 0.0;    ///< Leakage exponential temperature coefficient.
    double rmse_w = 0.0;      ///< Fit residual (the paper reports 2.243 W).
    double r_squared = 0.0;   ///< Goodness of fit (the paper reports 98 %).
    bool converged = false;   ///< Solver status.

    /// Model prediction of P_total - P_fan at a given point.
    [[nodiscard]] double predict(double utilization_pct, double cpu_temp_c) const;

    /// Leakage component (relative to its value at `ref_temp_c`).
    [[nodiscard]] double leakage_at(double cpu_temp_c) const;
};

/// Fits the power model to sweep data.  Requires points spanning at least
/// two distinct utilizations and two distinct temperatures.
[[nodiscard]] power_model_fit fit_power_model(const std::vector<sim::steady_point>& points);

/// Options for LUT generation.
struct lut_build_options {
    double max_cpu_temp_c = 75.0;  ///< Reliability cap (paper Section IV).
    /// Candidate fan speeds (defaults to the paper's 1800..4200 grid when
    /// empty).
    std::vector<util::rpm_t> candidate_rpms;
};

/// Builds the LUT from sweep data and a fitted model: for each utilization
/// level present in `points`, selects the candidate RPM minimizing
/// (measured fan power + fitted leakage at the measured steady
/// temperature), subject to the temperature cap.  When every candidate
/// violates the cap the fastest fan wins.
[[nodiscard]] fan_lut build_lut(const std::vector<sim::steady_point>& points,
                                const power_model_fit& fit, const lut_build_options& options = {});

/// Convenience: sweep + fit + LUT in one call against a simulator.
struct characterization_result {
    std::vector<sim::steady_point> sweep;
    power_model_fit fit;
    fan_lut lut;
};

[[nodiscard]] characterization_result characterize(sim::server_simulator& sim,
                                                   const lut_build_options& options = {});

/// The *measured* characterization path: instead of jumping to analytic
/// steady states, runs the paper's full Section-IV protocol for every
/// (utilization, fan-speed) pair and extracts the operating point from
/// the CSTH polls it samples along the way (the plant keeps only the
/// latest), averaged over the last 10 minutes of the load window —
/// sensor noise, quantization and 10 s sampling included.  Slower than
/// `run_steady_sweep` but validates that the shortcut agrees with what a
/// real measurement campaign would produce.
///
/// Only externally measurable fields are populated: utilization, fan RPM,
/// CPU/DIMM temperatures, fan power and total power.  The leakage and
/// active components are not separately observable on the real machine
/// (that separation is exactly what the model fit provides) and are left
/// at zero.
[[nodiscard]] std::vector<sim::steady_point> measure_protocol_sweep(
    sim::server_simulator& sim, const std::vector<double>& utilizations,
    const std::vector<util::rpm_t>& fan_speeds, const sim::protocol_timing& timing = {});

}  // namespace ltsc::core
