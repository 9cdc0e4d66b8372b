// A server's fans as the plant drives them: the fan bank, the latching
// of commands that degraded pairs cannot follow, and the fan-kind fault
// events.
//
// Both owners of a fan bank run this one piece: every server_lane, and
// every candidate lane of the rollout engine.  The fan half of the
// owner's fault_state (fan_mode, fan_commanded_rpm) is passed into each
// call, so snapshots keep carrying it in one place; the sensor and
// telemetry halves stay with server_lane, which alone has sensors.
#pragma once

#include <cstddef>
#include <vector>

#include "power/fan_model.hpp"
#include "sim/fault_schedule.hpp"
#include "util/units.hpp"

namespace ltsc::sim {

/// One server's fan bank with fault-aware command handling.
class fan_actuator {
public:
    /// `pair_count` pairs of `spec`, all at `initial` RPM.
    fan_actuator(std::size_t pair_count, const power::fan_spec& spec, util::rpm_t initial);

    [[nodiscard]] const power::fan_bank& bank() const { return fans_; }

    /// Commands one pair (clamped to the legal range).  A healthy pair
    /// actuates; a degraded pair latches the command for its recovery and
    /// delivers nothing, though a tach-stuck pair's lying tach still
    /// tracks it.  Returns whether the pair's speed physically changed.
    [[nodiscard]] bool command(std::size_t pair, util::rpm_t rpm, fault_state& fault);
    /// Commands every pair at once, with the same per-pair rules.
    [[nodiscard]] bool command_all(util::rpm_t rpm, fault_state& fault);

    /// Fires one schedule event's fan effect (fan_failure, fan_stuck_pwm,
    /// fan_tach_stuck, fan_recover); sensor and telemetry kinds leave the
    /// fans alone.  Returns whether airflow changed.
    [[nodiscard]] bool apply(const fault_event& event, fault_state& fault);

    /// Recovers every degraded pair exactly as fan_recover would: the
    /// rotor restarts and resumes its latched command.  Returns whether
    /// any pair recovered.
    [[nodiscard]] bool recover_all(fault_state& fault);

    /// Sets every pair to `rpm` with no latching (the cold start).
    void set_all(util::rpm_t rpm) { fans_.set_all(rpm); }

    /// Commanded (raw) speeds, one per pair: a failed pair's tach reads 0,
    /// but a restore must re-latch the command, not clamp the zero.
    void save(std::vector<double>& fan_rpm) const;
    /// Adopts saved speeds and the degradation in `fault.fan_mode`
    /// (throws unless `fan_rpm` and the fan half of `fault` have one
    /// entry per pair).
    void restore(const std::vector<double>& fan_rpm, const fault_state& fault);

    /// Airflow each pair delivers to its zone right now (a failed or
    /// tach-stuck rotor moves nothing).
    [[nodiscard]] const std::vector<util::cfm_t>& zone_airflow();

private:
    void recover(std::size_t pair, fault_state& fault);

    power::fan_bank fans_;
    std::vector<util::cfm_t> zone_airflow_;  ///< zone_airflow() scratch.
};

}  // namespace ltsc::sim
