#include "core/lut_controller.hpp"

#include "util/error.hpp"

namespace ltsc::core {

lut_controller::lut_controller(fan_lut table, const lut_controller_config& config)
    : table_(std::move(table)), config_(config) {
    util::ensure(!table_.empty(), "lut_controller: empty LUT");
    util::ensure(config.polling_period.value() > 0.0, "lut_controller: bad polling period");
    util::ensure(config.min_hold.value() >= 0.0, "lut_controller: negative hold time");
}

util::seconds_t lut_controller::polling_period() const { return config_.polling_period; }

std::optional<util::rpm_t> lut_controller::decide(const controller_inputs& in) {
    // Safety override first: it ignores the rate limiter by design.
    if (in.max_cpu_temp.value() > k_lut_emergency_temp_c) {
        if (in.current_rpm.value() != k_lut_emergency_rpm.value()) {
            has_changed_ = true;
            last_change_s_ = in.now.value();
            return k_lut_emergency_rpm;
        }
        return std::nullopt;
    }

    const util::rpm_t target = table_.lookup(in.utilization_pct);
    if (target.value() == in.current_rpm.value()) {
        return std::nullopt;
    }
    // Rate limit: react immediately to the first change, then lock the
    // speed for min_hold to bound the change frequency.
    if (has_changed_ && in.now.value() - last_change_s_ < config_.min_hold.value()) {
        return std::nullopt;
    }
    has_changed_ = true;
    last_change_s_ = in.now.value();
    return target;
}

void lut_controller::reset() {
    has_changed_ = false;
    last_change_s_ = 0.0;
}

}  // namespace ltsc::core
