#include "core/failsafe_controller.hpp"

#include <algorithm>

#include "core/fault_monitor.hpp"
#include "power/fan_model.hpp"
#include "util/error.hpp"

namespace ltsc::core {

namespace {

/// Staleness budget: override when the newest poll is older than this.
/// 2.5 CSTH periods — one missed poll is scheduling jitter, two is an
/// outage.
constexpr double k_stale_after_s = 25.0;

/// Speed commanded while engaged: maximum cooling.
constexpr util::rpm_t k_failsafe_rpm = power::fan_spec{}.max_rpm;

/// Whether the monitor distrusts any CPU sensor on this plant.
[[nodiscard]] bool any_sensor_distrusted(const controller_inputs& in) {
    if (!in.monitor_valid) {
        return false;
    }
    for (const std::uint8_t h : in.sensor_health) {
        if (h != static_cast<std::uint8_t>(component_health::healthy)) {
            return true;
        }
    }
    return false;
}

/// Whether the monitor marks any fan pair failed on this plant.
[[nodiscard]] bool any_fan_failed(const controller_inputs& in) {
    if (!in.monitor_valid) {
        return false;
    }
    for (const std::uint8_t h : in.fan_health) {
        if (h == static_cast<std::uint8_t>(component_health::failed)) {
            return true;
        }
    }
    return false;
}

/// The die temperature worth trusting: the hottest *healthy* sensor on
/// the die, or the monitor's model estimate when the die has none left.
[[nodiscard]] double trusted_die_temp_c(const controller_inputs& in, std::size_t die) {
    bool any_healthy = false;
    double best = 0.0;
    for (std::size_t s = 2 * die; s < 2 * die + 2 && s < in.sensor_health.size(); ++s) {
        if (in.sensor_health[s] == static_cast<std::uint8_t>(component_health::healthy)) {
            best = any_healthy ? std::max(best, in.cpu_sensor_c[s]) : in.cpu_sensor_c[s];
            any_healthy = true;
        }
    }
    return any_healthy ? best : in.model_die_c[die];
}

}  // namespace

failsafe_controller::failsafe_controller(std::unique_ptr<fan_controller> baseline)
    : baseline_(std::move(baseline)) {
    util::ensure(baseline_ != nullptr, "failsafe_controller: null baseline");
}

util::seconds_t failsafe_controller::polling_period() const {
    return baseline_->polling_period();
}

std::string failsafe_controller::name() const { return "Failsafe(" + baseline_->name() + ")"; }

void failsafe_controller::reset() {
    baseline_->reset();
    engaged_ = false;
    sensor_override_ = false;
    fan_override_ = false;
}

void failsafe_controller::attach_plant(const plant_access* plant) {
    baseline_->attach_plant(plant);
}

std::optional<util::rpm_t> failsafe_controller::decide(const controller_inputs& in) {
    // The baseline always sees the observations (stale or not) so its
    // internal state tracks the run; only its command is overridden.
    // When the monitor distrusts a sensor, the temperatures the baseline
    // steers on are rebuilt from the sensors still worth believing — a
    // lying-low reading must not be allowed to idle the fans.
    sensor_override_ = any_sensor_distrusted(in);
    std::optional<util::rpm_t> baseline_cmd;
    if (sensor_override_) {
        controller_inputs eff = in;
        for (std::size_t d = 0; d < eff.socket_temp_c.size(); ++d) {
            eff.socket_temp_c[d] = trusted_die_temp_c(in, d);
        }
        eff.max_cpu_temp =
            util::celsius_t{std::max(eff.socket_temp_c[0], eff.socket_temp_c[1])};
        baseline_cmd = baseline_->decide(eff);
    } else {
        baseline_cmd = baseline_->decide(in);
    }
    fan_override_ = any_fan_failed(in);
    if (in.sensor_age_s > k_stale_after_s || fan_override_) {
        engaged_ = true;
        return k_failsafe_rpm;
    }
    engaged_ = false;
    return baseline_cmd;
}

}  // namespace ltsc::core
