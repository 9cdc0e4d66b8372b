// The paper's LUT-based fan controller (Section V).
//
// Polls utilization every second, looks the level up in the offline-built
// LUT, and commands the optimal fan speed — *proactively*, before any
// thermal event, because utilization leads temperature by the thermal time
// constant.  To protect fan reliability under unstable workloads, speed
// changes are rate-limited: after a change the controller holds the new
// speed for one minute (the paper's tradeoff between change count and
// tolerable temperature overshoot).
#pragma once

#include "core/controller.hpp"
#include "core/fan_lut.hpp"
#include "power/fan_model.hpp"

namespace ltsc::core {

/// Emergency override of the LUT controllers: if a CPU sensor exceeds
/// this, command the fan's top speed regardless of the lockout (safety
/// net; never triggers in the paper's tests because the LUT keeps
/// temperature low).
inline constexpr double k_lut_emergency_temp_c = 85.0;
inline constexpr util::rpm_t k_lut_emergency_rpm = power::fan_spec{}.max_rpm;

/// Tunables of the LUT controller.
struct lut_controller_config {
    util::seconds_t polling_period{1.0};  ///< Utilization poll cadence.
    util::seconds_t min_hold{60.0};       ///< Lockout after an RPM change.
};

/// LUT-addressed, utilization-driven fan controller.
class lut_controller final : public fan_controller {
public:
    lut_controller(fan_lut table, const lut_controller_config& config = {});

    [[nodiscard]] util::seconds_t polling_period() const override;
    [[nodiscard]] std::optional<util::rpm_t> decide(const controller_inputs& in) override;
    [[nodiscard]] std::string name() const override { return "LUT"; }
    void reset() override;

    [[nodiscard]] const fan_lut& table() const { return table_; }
    [[nodiscard]] const lut_controller_config& config() const { return config_; }

private:
    fan_lut table_;
    lut_controller_config config_;
    bool has_changed_ = false;
    double last_change_s_ = 0.0;
};

}  // namespace ltsc::core
