#include "sim/fan_actuator.hpp"

#include <cmath>

#include "util/error.hpp"

namespace ltsc::sim {

fan_actuator::fan_actuator(std::size_t pair_count, const power::fan_spec& spec,
                           util::rpm_t initial)
    : fans_(pair_count, spec, initial) {}

bool fan_actuator::command(std::size_t pair, util::rpm_t rpm, fault_state& fault) {
    // Both checks come before any mutation: an out-of-range pair or a
    // non-finite command (fan_pair::clamp rejects it) changes nothing.
    util::ensure(pair < fans_.pair_count(), "fan_actuator::command: pair index out of range");
    const util::rpm_t clamped = fans_.pair().clamp(rpm);
    if (fault.fan_mode[pair] != fault_state::fan_ok) {
        // The pair's rotor no longer answers: latch the command for
        // recovery, deliver nothing physically.  A tach-stuck pair still
        // updates its (lying) tach readout so the tachometer keeps
        // agreeing with whatever is commanded — the blind spot only the
        // thermal cross-check can see.
        fault.fan_commanded_rpm[pair] = clamped.value();
        if (fault.fan_mode[pair] == fault_state::fan_tach) {
            fans_.set_speed(pair, rpm);
        }
        return false;
    }
    const util::rpm_t before = fans_.speed(pair);
    fans_.set_speed(pair, rpm);
    return fans_.speed(pair).value() != before.value();
}

bool fan_actuator::command_all(util::rpm_t rpm, fault_state& fault) {
    const double target = fans_.pair().clamp(rpm).value();
    // Healthy pairs actuate, faulted pairs latch.
    bool changed = false;
    for (std::size_t i = 0; i < fans_.pair_count(); ++i) {
        if (fault.fan_mode[i] != fault_state::fan_ok) {
            fault.fan_commanded_rpm[i] = target;
            if (fault.fan_mode[i] == fault_state::fan_tach) {
                fans_.set_speed(i, rpm);  // lying tach tracks the command
            }
            continue;
        }
        if (fans_.speed(i).value() != target) {
            fans_.set_speed(i, rpm);
            changed = true;
        }
    }
    return changed;
}

bool fan_actuator::apply(const fault_event& event, fault_state& fault) {
    switch (event.kind) {
        case fault_kind::fan_failure:
            fault.fan_commanded_rpm[event.target] = fans_.speed(event.target).value();
            fault.fan_mode[event.target] = fault_state::fan_failed;
            fans_.set_failed(event.target, true);
            return true;
        case fault_kind::fan_stuck_pwm:
            fault.fan_commanded_rpm[event.target] = fans_.speed(event.target).value();
            fault.fan_mode[event.target] = fault_state::fan_stuck;
            if (std::isnan(event.value)) {
                return false;
            }
            fans_.set_speed(event.target, util::rpm_t{event.value});
            return true;
        case fault_kind::fan_tach_stuck:
            fault.fan_commanded_rpm[event.target] = fans_.speed(event.target).value();
            fault.fan_mode[event.target] = fault_state::fan_tach;
            fans_.set_tach_stuck(event.target, true);
            return true;
        case fault_kind::fan_recover:
            recover(event.target, fault);
            return true;
        case fault_kind::sensor_stuck:
        case fault_kind::sensor_bias:
        case fault_kind::sensor_dropout:
        case fault_kind::sensor_drift:
        case fault_kind::sensor_intermittent:
        case fault_kind::sensor_recover:
        case fault_kind::telemetry_loss:
            return false;
    }
    return false;
}

bool fan_actuator::recover_all(fault_state& fault) {
    bool recovered = false;
    for (std::size_t i = 0; i < fans_.pair_count(); ++i) {
        if (fault.fan_mode[i] != fault_state::fan_ok) {
            recover(i, fault);
            recovered = true;
        }
    }
    return recovered;
}

void fan_actuator::recover(std::size_t pair, fault_state& fault) {
    fault.fan_mode[pair] = fault_state::fan_ok;
    fans_.set_failed(pair, false);
    fans_.set_tach_stuck(pair, false);
    // Faults and latched commands are not controller actions: no count.
    fans_.set_speed(pair, util::rpm_t{fault.fan_commanded_rpm[pair]});
}

void fan_actuator::save(std::vector<double>& fan_rpm) const {
    fan_rpm.resize(fans_.pair_count());
    for (std::size_t i = 0; i < fans_.pair_count(); ++i) {
        fan_rpm[i] = fans_.speed(i).value();
    }
}

void fan_actuator::restore(const std::vector<double>& fan_rpm, const fault_state& fault) {
    const std::size_t pairs = fans_.pair_count();
    util::ensure(fan_rpm.size() == pairs && fault.fan_mode.size() == pairs &&
                     fault.fan_commanded_rpm.size() == pairs,
                 "fan_actuator::restore: fan pair count mismatch");
    for (std::size_t i = 0; i < fans_.pair_count(); ++i) {
        fans_.set_speed(i, util::rpm_t{fan_rpm[i]});
        fans_.set_failed(i, fault.fan_mode[i] == fault_state::fan_failed);
        fans_.set_tach_stuck(i, fault.fan_mode[i] == fault_state::fan_tach);
    }
}

const std::vector<util::cfm_t>& fan_actuator::zone_airflow() {
    zone_airflow_.resize(fans_.pair_count());
    for (std::size_t i = 0; i < fans_.pair_count(); ++i) {
        // pair_airflow is the healthy airflow unless the pair's rotor
        // stopped, in which case its zone sees zero direct flow (the
        // plenum cross-mixing still shares the other zones' air).
        zone_airflow_[i] = fans_.pair_airflow(i);
    }
    return zone_airflow_;
}

}  // namespace ltsc::sim
