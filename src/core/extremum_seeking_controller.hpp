// Model-free extremum-seeking fan controller (ablation).
//
// The LUT controller needs an offline characterization; this ablation asks
// what happens without one.  Extremum seeking performs online
// perturb-and-observe on the fan speed: periodically nudge the RPM one
// step, wait for the plant to settle, compare the measured system power,
// and keep moving in the direction that lowered it.  A temperature guard
// overrides the search above the reliability cap.  It converges to the
// same fan-plus-leakage minimum the LUT encodes — but only after minutes
// of dithering per operating point, which is the argument for the LUT.
#pragma once

#include "core/controller.hpp"

namespace ltsc::core {

/// Perturb-and-observe power minimizer over the fan's legal range.  Uses
/// the wall-power reading in `controller_inputs::system_power` to compare
/// consecutive settled operating points.
class extremum_seeking_controller final : public fan_controller {
public:
    [[nodiscard]] util::seconds_t polling_period() const override;
    [[nodiscard]] std::optional<util::rpm_t> decide(const controller_inputs& in) override;
    [[nodiscard]] std::string name() const override { return "ExtremumSeek"; }
    void reset() override;

private:
    double direction_ = -1.0;       ///< Current search direction (start downward:
                                    ///< stock speed over-cools).
    bool has_baseline_ = false;
    double baseline_power_w_ = 0.0;
    double last_util_pct_ = 0.0;
    bool has_util_ = false;
};

}  // namespace ltsc::core
