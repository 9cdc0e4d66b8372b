#include "power/fan_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ltsc::power {

fan_pair::fan_pair(const fan_spec& spec) : spec_(spec) {
    util::ensure(spec.min_rpm.value() > 0.0, "fan_pair: non-positive minimum RPM");
    util::ensure(spec.max_rpm >= spec.min_rpm, "fan_pair: max RPM below min RPM");
    util::ensure(spec.ref_rpm.value() > 0.0, "fan_pair: non-positive reference RPM");
    util::ensure(spec.ref_power.value() >= 0.0, "fan_pair: negative reference power");
    util::ensure(spec.ref_airflow.value() >= 0.0, "fan_pair: negative reference airflow");
}

util::rpm_t fan_pair::clamp(util::rpm_t rpm) const {
    // std::clamp passes NaN through unchanged; every command path clamps
    // before it mutates anything, so rejecting here keeps plants clean.
    util::ensure(std::isfinite(rpm.value()), "fan_pair::clamp: non-finite RPM");
    return util::rpm_t{std::clamp(rpm.value(), spec_.min_rpm.value(), spec_.max_rpm.value())};
}

util::watts_t fan_pair::power(util::rpm_t rpm) const {
    const double ratio = clamp(rpm).value() / spec_.ref_rpm.value();
    return util::watts_t{spec_.ref_power.value() * ratio * ratio * ratio};
}

util::cfm_t fan_pair::airflow(util::rpm_t rpm) const {
    const double ratio = clamp(rpm).value() / spec_.ref_rpm.value();
    return util::cfm_t{spec_.ref_airflow.value() * ratio};
}

fan_bank::fan_bank(std::size_t pair_count, const fan_spec& spec, util::rpm_t initial)
    : pair_(spec),
      speeds_(pair_count, util::rpm_t{0.0}),
      failed_(pair_count, 0),
      tach_stuck_(pair_count, 0) {
    util::ensure(pair_count >= 1, "fan_bank: need at least one fan pair");
    set_all(initial);
}

fan_bank::fan_bank() : fan_bank(3, fan_spec{}, util::rpm_t{3600.0}) {}

void fan_bank::set_speed(std::size_t pair_index, util::rpm_t rpm) {
    util::ensure(pair_index < speeds_.size(), "fan_bank::set_speed: pair index out of range");
    speeds_[pair_index] = pair_.clamp(rpm);
}

void fan_bank::set_all(util::rpm_t rpm) {
    const util::rpm_t clamped = pair_.clamp(rpm);
    std::fill(speeds_.begin(), speeds_.end(), clamped);
}

util::rpm_t fan_bank::speed(std::size_t pair_index) const {
    util::ensure(pair_index < speeds_.size(), "fan_bank::speed: pair index out of range");
    return speeds_[pair_index];
}

void fan_bank::set_failed(std::size_t pair_index, bool failed) {
    util::ensure(pair_index < failed_.size(), "fan_bank::set_failed: pair index out of range");
    failed_[pair_index] = failed ? 1 : 0;
}

void fan_bank::set_tach_stuck(std::size_t pair_index, bool stuck) {
    util::ensure(pair_index < tach_stuck_.size(),
                 "fan_bank::set_tach_stuck: pair index out of range");
    tach_stuck_[pair_index] = stuck ? 1 : 0;
}

util::rpm_t fan_bank::effective_speed(std::size_t pair_index) const {
    util::ensure(pair_index < speeds_.size(),
                 "fan_bank::effective_speed: pair index out of range");
    return failed_[pair_index] != 0 ? util::rpm_t{0.0} : speeds_[pair_index];
}

util::watts_t fan_bank::pair_power(std::size_t pair_index) const {
    util::ensure(pair_index < speeds_.size(), "fan_bank::pair_power: pair index out of range");
    return failed_[pair_index] != 0 || tach_stuck_[pair_index] != 0
               ? util::watts_t{0.0}
               : pair_.power(speeds_[pair_index]);
}

util::cfm_t fan_bank::pair_airflow(std::size_t pair_index) const {
    util::ensure(pair_index < speeds_.size(), "fan_bank::pair_airflow: pair index out of range");
    return failed_[pair_index] != 0 || tach_stuck_[pair_index] != 0
               ? util::cfm_t{0.0}
               : pair_.airflow(speeds_[pair_index]);
}

util::cfm_t fan_bank::tach_airflow(std::size_t pair_index) const {
    const util::rpm_t tach = effective_speed(pair_index);
    return tach.value() == 0.0 ? util::cfm_t{0.0} : pair_.airflow(tach);
}

util::rpm_t fan_bank::average_speed() const {
    double acc = 0.0;
    for (std::size_t i = 0; i < speeds_.size(); ++i) {
        acc += effective_speed(i).value();
    }
    return util::rpm_t{acc / static_cast<double>(speeds_.size())};
}

util::watts_t fan_bank::total_power() const {
    util::watts_t acc{0.0};
    for (std::size_t i = 0; i < speeds_.size(); ++i) {
        acc += pair_power(i);
    }
    return acc;
}

std::vector<util::rpm_t> paper_rpm_settings() {
    return {util::rpm_t{1800.0}, util::rpm_t{2400.0}, util::rpm_t{3000.0}, util::rpm_t{3600.0},
            util::rpm_t{4200.0}};
}

}  // namespace ltsc::power
