#include "sim/server_config.hpp"

#include <cmath>
#include <string>

#include "util/error.hpp"

namespace ltsc::sim {

namespace {

void ensure_finite(double value, const char* field) {
    util::ensure(std::isfinite(value), std::string("server_config: non-finite ") + field);
}

}  // namespace

server_config paper_server() {
    return server_config{};  // defaults are the paper calibration
}

server_config validated(const server_config& config) {
    validate(config);
    return config;
}

void validate(const server_config& config) {
    util::ensure(config.dimm_count >= 1, "server_config: need at least one DIMM");
    util::ensure(config.fan_pairs >= 1, "server_config: need at least one fan pair");
    util::ensure(config.fan_pairs == config.thermal.fan_zones,
                 "server_config: fan_pairs must match thermal fan_zones");
    // Most range checks below let an infinity through, and the plant
    // then misbehaves (an infinite poll period never polls again).
    ensure_finite(config.base_power_w, "base_power_w");
    ensure_finite(config.cpu_idle_each_w, "cpu_idle_each_w");
    ensure_finite(config.dimm_idle_total_w, "dimm_idle_total_w");
    ensure_finite(config.active_coeff_w_per_pct, "active_coeff_w_per_pct");
    ensure_finite(config.split.cpu, "split.cpu");
    ensure_finite(config.split.memory, "split.memory");
    ensure_finite(config.split.other, "split.other");
    ensure_finite(config.cpu_heat_shape_exponent, "cpu_heat_shape_exponent");
    ensure_finite(config.telemetry_period_s, "telemetry_period_s");
    ensure_finite(config.sensor_noise_sigma, "sensor_noise_sigma");
    ensure_finite(config.sensor_quantum, "sensor_quantum");
    util::ensure(config.base_power_w >= 0.0, "server_config: negative base power");
    util::ensure(config.cpu_idle_each_w >= 0.0, "server_config: negative CPU idle power");
    util::ensure(config.dimm_idle_total_w >= 0.0, "server_config: negative DIMM idle power");
    util::ensure(config.base_power_w >=
                     config.cpu_idle_each_w *
                             static_cast<double>(thermal::server_thermal_model::socket_count()) +
                         config.dimm_idle_total_w,
                 "server_config: component idle power exceeds base power");
    util::ensure(config.active_coeff_w_per_pct >= 0.0, "server_config: negative active slope");
    util::ensure(std::fabs(config.split.cpu + config.split.memory + config.split.other - 1.0) <
                     1e-6,
                 "server_config: active split must sum to 1");
    util::ensure(config.cpu_heat_shape_exponent > 0.0 && config.cpu_heat_shape_exponent <= 1.0,
                 "server_config: cpu_heat_shape_exponent out of (0, 1]");
    util::ensure(config.telemetry_period_s > 0.0, "server_config: bad telemetry period");
    util::ensure(config.sensor_noise_sigma >= 0.0, "server_config: negative sensor noise");
    util::ensure(config.sensor_quantum >= 0.0, "server_config: negative sensor quantum");
    core::validate(config.monitor);
}

power::server_power_model power_model_for(const server_config& config) {
    return power::server_power_model(
        util::watts_t{config.base_power_w}, util::watts_t{config.cpu_idle_each_w},
        util::watts_t{config.dimm_idle_total_w},
        power::active_model(config.active_coeff_w_per_pct, config.split,
                            config.cpu_heat_shape_exponent),
        power::leakage_model(config.leakage));
}

}  // namespace ltsc::sim
