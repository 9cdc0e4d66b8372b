#include "core/zone_lut_controller.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ltsc::core {

zone_lut_controller::zone_lut_controller(fan_lut table, const lut_controller_config& config)
    : table_(std::move(table)), config_(config) {
    util::ensure(!table_.empty(), "zone_lut_controller: empty LUT");
    util::ensure(config.polling_period.value() > 0.0, "zone_lut_controller: bad polling period");
    util::ensure(config.min_hold.value() >= 0.0, "zone_lut_controller: negative hold time");
}

util::seconds_t zone_lut_controller::polling_period() const { return config_.polling_period; }

util::rpm_t zone_lut_controller::zone_target(double socket_util_pct,
                                             double socket_temp_c) const {
    if (socket_temp_c > k_lut_emergency_temp_c) {
        return k_lut_emergency_rpm;
    }
    return table_.lookup(std::clamp(socket_util_pct, 0.0, 100.0));
}

std::optional<std::vector<util::rpm_t>> zone_lut_controller::decide_zones(
    const controller_inputs& in) {
    util::ensure(in.zone_rpm.size() >= 1, "zone_lut_controller: no zone state");

    std::vector<util::rpm_t> target = in.zone_rpm;
    const util::rpm_t cpu0 = zone_target(in.socket_util_pct[0], in.socket_temp_c[0]);
    const util::rpm_t cpu1 = zone_target(in.socket_util_pct[1], in.socket_temp_c[1]);
    target[0] = cpu0;
    if (target.size() >= 2) {
        target[1] = cpu1;
    }
    if (target.size() >= 3) {
        // The shared/DIMM zone follows the lighter socket: the DIMM field
        // is cooled by the total flow and its own zone only tops it up.
        target[2] = util::rpm_t{std::min(cpu0.value(), cpu1.value())};
    }

    bool any_change = false;
    bool emergency = false;
    for (std::size_t z = 0; z < target.size(); ++z) {
        if (target[z].value() != in.zone_rpm[z].value()) {
            any_change = true;
        }
        if (target[z].value() == k_lut_emergency_rpm.value() &&
            (in.socket_temp_c[0] > k_lut_emergency_temp_c ||
             in.socket_temp_c[1] > k_lut_emergency_temp_c)) {
            emergency = true;
        }
    }
    if (!any_change) {
        return std::nullopt;
    }
    if (!emergency && has_changed_ &&
        in.now.value() - last_change_s_ < config_.min_hold.value()) {
        return std::nullopt;
    }
    has_changed_ = true;
    last_change_s_ = in.now.value();
    return target;
}

std::optional<util::rpm_t> zone_lut_controller::decide(const controller_inputs& in) {
    const auto zones = decide_zones(in);
    if (!zones.has_value()) {
        return std::nullopt;
    }
    double acc = 0.0;
    for (const util::rpm_t r : *zones) {
        acc += r.value();
    }
    return util::rpm_t{acc / static_cast<double>(zones->size())};
}

void zone_lut_controller::reset() {
    has_changed_ = false;
    last_change_s_ = 0.0;
}

}  // namespace ltsc::core
