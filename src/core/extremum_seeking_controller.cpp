#include "core/extremum_seeking_controller.hpp"

#include <algorithm>
#include <cmath>

#include "power/fan_model.hpp"

namespace ltsc::core {

namespace {

constexpr double k_decision_period_s = 120.0;  ///< Settle time between probes.
constexpr double k_step_rpm = 600.0;           ///< Probe step size.
constexpr double k_min_rpm = power::fan_spec{}.min_rpm.value();
constexpr double k_max_rpm = power::fan_spec{}.max_rpm.value();
constexpr double k_max_cpu_temp_c = 75.0;      ///< Reliability guard.
/// Utilization change (percent points) that restarts the search; a new
/// operating point invalidates the previous power comparison.
constexpr double k_util_restart_delta_pct = 15.0;

}  // namespace

util::seconds_t extremum_seeking_controller::polling_period() const {
    return util::seconds_t{k_decision_period_s};
}

std::optional<util::rpm_t> extremum_seeking_controller::decide(const controller_inputs& in) {
    const double rpm = in.current_rpm.value();
    const double power = in.system_power.value();

    // Reliability guard dominates everything.
    if (in.max_cpu_temp.value() > k_max_cpu_temp_c) {
        has_baseline_ = false;
        const double target = std::min(k_max_rpm, rpm + k_step_rpm);
        if (target != rpm) {
            return util::rpm_t{target};
        }
        return std::nullopt;
    }

    // A large utilization move lands us on a new power curve; previous
    // comparisons are meaningless.
    if (has_util_ &&
        std::fabs(in.utilization_pct - last_util_pct_) > k_util_restart_delta_pct) {
        has_baseline_ = false;
    }
    last_util_pct_ = in.utilization_pct;
    has_util_ = true;

    if (!has_baseline_) {
        // First settled observation at this operating point: record it and
        // probe downward (the stock policy over-cools, so down is the
        // better first guess).
        has_baseline_ = true;
        baseline_power_w_ = power;
        direction_ = -1.0;
        const double target = std::clamp(rpm + direction_ * k_step_rpm, k_min_rpm, k_max_rpm);
        if (target == rpm) {
            direction_ = -direction_;
            return std::nullopt;
        }
        return util::rpm_t{target};
    }

    // Compare the settled power against the pre-move baseline.
    if (power > baseline_power_w_) {
        direction_ = -direction_;  // got worse: turn around
    }
    baseline_power_w_ = power;
    const double target = std::clamp(rpm + direction_ * k_step_rpm, k_min_rpm, k_max_rpm);
    if (target == rpm) {
        direction_ = -direction_;  // pinned at a rail: try the other way next time
        return std::nullopt;
    }
    return util::rpm_t{target};
}

void extremum_seeking_controller::reset() {
    direction_ = -1.0;
    has_baseline_ = false;
    has_util_ = false;
    baseline_power_w_ = 0.0;
    last_util_pct_ = 0.0;
}

}  // namespace ltsc::core
