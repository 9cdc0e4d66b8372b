// Hardware description of the simulated enterprise server.
//
// Defaults describe the paper's machine: a presently-shipping (in 2013)
// enterprise server with two 16-core/128-thread SPARC T3 CPUs, 32 8-GB
// DIMMs, and 6 fans in 3 rows of 2.  The power calibration reproduces the
// figures implied by Table I: ~366 W idle, ~720 W peak at 100 % load with
// the default cooling policy, and a 30 W fan-power span across the
// 1800-4200 RPM range.
#pragma once

#include <cstdint>

#include "core/fault_monitor.hpp"
#include "power/active_model.hpp"
#include "power/fan_model.hpp"
#include "power/leakage_model.hpp"
#include "power/server_power_model.hpp"
#include "thermal/server_thermal_model.hpp"
#include "util/units.hpp"

namespace ltsc::sim {

/// Full plant description; every knob a study might vary lives here.
struct server_config {
    // --- topology ------------------------------------------------------
    // Two CPU packages: thermal::server_thermal_model::socket_count().
    std::size_t dimm_count = 32;        ///< Memory modules.
    std::size_t fan_pairs = 3;          ///< Independently driven fan pairs.

    // --- power calibration ----------------------------------------------
    /// Wall power that no control knob can influence; includes the CPUs'
    /// utilization-independent (clock/uncore) power and DIMM standby power.
    double base_power_w = 331.6;
    /// Share of base power dissipated in each CPU die (thermally relevant).
    double cpu_idle_each_w = 45.0;
    /// Share of base power dissipated across the DIMM field.
    double dimm_idle_total_w = 40.0;
    /// Whole-system active slope [W per utilization %] (see active_model).
    double active_coeff_w_per_pct = power::active_model::system_k1_w_per_pct;
    /// How active power splits across heat sources.
    power::active_split split{0.35, 0.30, 0.35};
    /// Duty-cycle shaping of the CPU heat share (see active_model).
    double cpu_heat_shape_exponent = power::active_model::default_cpu_shape_exponent;
    /// Leakage model parameters (paper's published fit).
    power::leakage_params leakage = power::leakage_params::paper_fit();
    /// Fan pair spec (RPM limits, affinity-law reference point).
    power::fan_spec fan{};

    // --- thermal calibration ---------------------------------------------
    thermal::server_thermal_config thermal{};

    // --- telemetry / sensors ---------------------------------------------
    double telemetry_period_s = 10.0;  ///< CSTH polling cadence.
    double sensor_noise_sigma = 0.15;  ///< Gaussian sensor noise [degC].
    double sensor_quantum = 0.25;      ///< Sensor ADC quantization [degC].
    std::uint64_t seed = 0x5eed;       ///< RNG seed for sensor noise.

    // --- fault detection ---------------------------------------------------
    /// Residual-monitor configuration.  Disabled by default; the monitor
    /// is a passive observer, so enabling it changes no plant dynamics —
    /// monitor-off runs are bitwise the pre-monitor build.
    core::fault_monitor_config monitor{};

    // --- defaults ---------------------------------------------------------
    /// Fixed speed of the server's stock fan policy (Table I baseline).
    util::rpm_t default_fan_rpm{3300.0};
};

/// The paper's server, exactly as described in Section III.
[[nodiscard]] server_config paper_server();

/// Validates invariants (positive capacities, split sums to 1, ...).
/// Throws precondition_error when the configuration is inconsistent.
void validate(const server_config& config);

/// Validates and returns the configuration (for member-initializer use).
[[nodiscard]] server_config validated(const server_config& config);

/// The server's Eqn-1 power model, built from the power calibration
/// fields.  Every plant lane, its monitor twin and steady_idle_power run
/// the model this returns.
[[nodiscard]] power::server_power_model power_model_for(const server_config& config);

}  // namespace ltsc::sim
