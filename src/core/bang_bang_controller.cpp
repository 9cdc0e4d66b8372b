#include "core/bang_bang_controller.hpp"

#include <algorithm>

#include "power/fan_model.hpp"
#include "util/error.hpp"

namespace ltsc::core {

namespace {

// The paper's five actions step by 600 RPM and jump to the ends of the
// fan's legal range.
constexpr double k_step_rpm = 600.0;
constexpr double k_min_rpm = power::fan_spec{}.min_rpm.value();
constexpr double k_max_rpm = power::fan_spec{}.max_rpm.value();

}  // namespace

bang_bang_controller::bang_bang_controller(const bang_bang_thresholds& thresholds)
    : thresholds_(thresholds) {
    util::ensure(thresholds.floor_c < thresholds.low_c && thresholds.low_c < thresholds.high_c &&
                     thresholds.high_c < thresholds.ceiling_c,
                 "bang_bang_controller: thresholds not strictly ordered");
}

// The paper notes "the time between two consecutive actions of the
// controller is longer than the time it takes for the temperature values
// to cross thresholds": the bang-bang policy acts on a slower clock than
// the 10 s CSTH sampling underneath it.
util::seconds_t bang_bang_controller::polling_period() const { return util::seconds_t{30.0}; }

std::optional<util::rpm_t> bang_bang_controller::decide(const controller_inputs& in) {
    const double t = in.max_cpu_temp.value();
    const double rpm = in.current_rpm.value();

    double target = rpm;
    if (t > thresholds_.ceiling_c) {
        target = k_max_rpm;
    } else if (t > thresholds_.high_c) {
        target = rpm + k_step_rpm;
    } else if (t < thresholds_.floor_c) {
        target = k_min_rpm;
    } else if (t < thresholds_.low_c) {
        target = rpm - k_step_rpm;
    } else {
        return std::nullopt;  // inside the 65-75 band: hold
    }
    target = std::clamp(target, k_min_rpm, k_max_rpm);
    if (target == rpm) {
        return std::nullopt;
    }
    return util::rpm_t{target};
}

}  // namespace ltsc::core
