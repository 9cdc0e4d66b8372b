// Temperature-tracking PID fan controller (ablation).
//
// A continuous alternative to the bang-bang policy: regulate the maximum
// CPU temperature to a setpoint (the energy-optimal ~70 degC of Fig. 2(a))
// by proportional-integral-derivative action on the fan speed.  Like the
// bang-bang controller it is reactive — it cannot anticipate load changes
// — but it avoids the bang-bang's oscillation between discrete steps.
#pragma once

#include "core/controller.hpp"

namespace ltsc::core {

/// PID regulator on max CPU temperature, over the fan's legal range.
class pid_controller final : public fan_controller {
public:
    [[nodiscard]] util::seconds_t polling_period() const override;
    [[nodiscard]] std::optional<util::rpm_t> decide(const controller_inputs& in) override;
    [[nodiscard]] std::string name() const override { return "PID"; }
    void reset() override;

private:
    double integral_ = 0.0;
    double prev_error_ = 0.0;
    bool has_prev_ = false;
    double prev_time_s_ = 0.0;
};

}  // namespace ltsc::core
