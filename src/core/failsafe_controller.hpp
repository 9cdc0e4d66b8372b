// Sensor-loss failsafe wrapper: fall back to maximum fans when the
// telemetry behind the observations goes stale.
//
// Every policy in this repo steers off CSTH sensor readings.  When the
// poller dies (telemetry_loss faults), those readings freeze while the
// plant keeps heating — a controller trusting them can idle the fans
// through a thermal excursion it cannot see.  The paper's DLC-PC answer
// (and every production BMC's) is a watchdog: if the newest poll behind
// the observations is older than a staleness budget, stop optimizing
// and command maximum cooling until data returns.
//
// This wrapper implements that watchdog around any baseline policy.
// The baseline is consulted on every decision whether or not the
// failsafe overrides it, so its internal state (hold timers,
// integrators) evolves exactly as it would alone and control hands back
// seamlessly when telemetry recovers.  With fresh telemetry the wrapper
// is transparent: decisions are bitwise the baseline's.
//
// Scope: wraps the single-speed decide() surface (like
// rollout_controller); the default zone adapter replicates the failsafe
// speed across pairs.
//
// Staleness catches *absent* data, not *lying* data: a sensor stuck low
// or biased cold looks fresh and healthy.  Against that failure the
// wrapper leans on the plant's residual monitor when one is present
// (controller_inputs::monitor_valid): readings from sensors the monitor
// marks suspect/failed are excluded from the temperatures the baseline
// sees, replaced by the healthy sensors on the same die or — when a die
// has none left — by the monitor's model estimate.  When the monitor
// marks a *fan pair* failed (a dead rotor, or a lying tach unmasked by
// the thermal cross-check), the wrapper commands maximum cooling from
// the surviving pairs: lost airflow cannot be reasoned around, only
// compensated.  With every component healthy (or without a monitor)
// decisions are bitwise the baseline's; the unmonitored defeat is
// pinned in FaultInjection.NegativeBiasDefeatsTheGuardWithoutMonitor
// and the monitored mitigation in
// FaultInjection.NegativeBiasContainedWithMonitor.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/controller.hpp"

namespace ltsc::core {

/// Failsafe wrapper around any baseline fan controller.
class failsafe_controller final : public fan_controller {
public:
    explicit failsafe_controller(std::unique_ptr<fan_controller> baseline);

    [[nodiscard]] util::seconds_t polling_period() const override;
    [[nodiscard]] std::optional<util::rpm_t> decide(const controller_inputs& in) override;
    [[nodiscard]] std::string name() const override;
    void reset() override;
    void attach_plant(const plant_access* plant) override;

    [[nodiscard]] const fan_controller& baseline() const { return *baseline_; }
    /// Whether the last decision was a failsafe override.
    [[nodiscard]] bool engaged() const { return engaged_; }
    /// Whether the last decision replaced distrusted sensor readings
    /// with monitor-backed estimates before consulting the baseline.
    [[nodiscard]] bool sensor_override() const { return sensor_override_; }
    /// Whether the last decision forced maximum cooling because the
    /// monitor marked a fan pair failed: a dead or lying pair starves its
    /// zone of airflow, and the surviving pairs' 30 % mixing share is
    /// all that cools it.
    [[nodiscard]] bool fan_override() const { return fan_override_; }

private:
    std::unique_ptr<fan_controller> baseline_;
    bool engaged_ = false;
    bool sensor_override_ = false;
    bool fan_override_ = false;
};

}  // namespace ltsc::core
