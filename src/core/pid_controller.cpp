#include "core/pid_controller.hpp"

#include <algorithm>
#include <cmath>

#include "power/fan_model.hpp"

namespace ltsc::core {

namespace {

// Gains act on (T - setpoint): positive error (too hot) must raise RPM.
constexpr double k_setpoint_c = 70.0;  ///< Target max CPU temperature.
constexpr double k_kp = 120.0;         ///< RPM per degC.
constexpr double k_ki = 2.0;           ///< RPM per degC-second.
constexpr double k_kd = 300.0;         ///< RPM per degC/second.
constexpr double k_period_s = 10.0;    ///< Decision cadence (CSTH polling).
constexpr double k_min_rpm = power::fan_spec{}.min_rpm.value();
constexpr double k_max_rpm = power::fan_spec{}.max_rpm.value();
/// Deadband: command changes smaller than this are suppressed to keep
/// the fan-change count sane.
constexpr double k_deadband_rpm = 150.0;

}  // namespace

util::seconds_t pid_controller::polling_period() const { return util::seconds_t{k_period_s}; }

std::optional<util::rpm_t> pid_controller::decide(const controller_inputs& in) {
    const double error = in.max_cpu_temp.value() - k_setpoint_c;
    const double dt = has_prev_ ? std::max(1e-6, in.now.value() - prev_time_s_) : k_period_s;

    // Conditional integration: freeze the integral while the actuator is
    // saturated in the direction of the error (anti-windup).
    const double rpm = in.current_rpm.value();
    const bool sat_high = rpm >= k_max_rpm && error > 0.0;
    const bool sat_low = rpm <= k_min_rpm && error < 0.0;
    if (!sat_high && !sat_low) {
        integral_ += error * dt;
    }
    const double derivative = has_prev_ ? (error - prev_error_) / dt : 0.0;
    prev_error_ = error;
    prev_time_s_ = in.now.value();
    has_prev_ = true;

    const double target_raw = k_min_rpm + k_kp * error + k_ki * integral_ + k_kd * derivative;
    const double target = std::clamp(target_raw, k_min_rpm, k_max_rpm);
    if (std::fabs(target - rpm) < k_deadband_rpm) {
        return std::nullopt;
    }
    return util::rpm_t{target};
}

void pid_controller::reset() {
    integral_ = 0.0;
    prev_error_ = 0.0;
    has_prev_ = false;
    prev_time_s_ = 0.0;
}

}  // namespace ltsc::core
