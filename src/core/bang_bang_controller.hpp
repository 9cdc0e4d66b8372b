// The paper's bang-bang (threshold) controller.
//
// Tracks only the maximum CPU temperature through CSTH and nudges the fan
// speed to keep it inside a 65-75 degC band.  Five actions (Section V):
//   T < 60          -> set 1800 RPM (the minimum)
//   60 <= T < 65    -> lower speed by 600 RPM
//   65 <= T <= 75   -> hold
//   75 < T <= 80    -> raise speed by 600 RPM
//   T > 80          -> set 4200 RPM (the maximum)
//
// It is reactive: by the time it responds, the thermal (and hence leakage)
// event has already happened — the weakness the LUT controller fixes.
#pragma once

#include "core/controller.hpp"

namespace ltsc::core {

/// Threshold set of the bang-bang policy.
struct bang_bang_thresholds {
    double floor_c = 60.0;    ///< Below: jump to min RPM.
    double low_c = 65.0;      ///< Below (but above floor): step down.
    double high_c = 75.0;     ///< Above: step up.
    double ceiling_c = 80.0;  ///< Above: jump to max RPM.
};

/// Bang-bang fan controller with the paper's thresholds.
class bang_bang_controller final : public fan_controller {
public:
    /// Steps by the paper's 600 RPM within the fan's legal range
    /// (`power::fan_spec`).
    explicit bang_bang_controller(const bang_bang_thresholds& thresholds = {});

    /// Rides the CSTH telemetry cadence (10 s).
    [[nodiscard]] util::seconds_t polling_period() const override;
    [[nodiscard]] std::optional<util::rpm_t> decide(const controller_inputs& in) override;
    [[nodiscard]] std::string name() const override { return "Bang"; }

    [[nodiscard]] const bang_bang_thresholds& thresholds() const { return thresholds_; }

private:
    bang_bang_thresholds thresholds_;
};

}  // namespace ltsc::core
