// Fan power, airflow, and the 3-pair fan bank of the target server.
//
// The paper's server has 6 fans in 3 rows of 2, each pair driven by its own
// external power supply.  Fan affinity laws give airflow proportional to
// RPM and power proportional to RPM^3; the paper measures the power at each
// RPM setting during characterization.  This module provides the fan-law
// model.
#pragma once

#include <cstddef>
#include <vector>

#include "util/units.hpp"

namespace ltsc::power {

/// Physical limits and reference point of one fan pair.
struct fan_spec {
    util::rpm_t min_rpm{1800.0};   ///< Lowest controllable speed.
    util::rpm_t max_rpm{4200.0};   ///< Highest controllable speed.
    util::rpm_t ref_rpm{4200.0};   ///< Reference speed of the affinity law.
    util::watts_t ref_power{16.7}; ///< Pair power at the reference speed.
    util::cfm_t ref_airflow{51.0}; ///< Pair airflow at the reference speed.
};

/// One pair of fans obeying the fan affinity laws:
///   P(rpm) = ref_power * (rpm / ref_rpm)^3
///   Q(rpm) = ref_airflow * (rpm / ref_rpm)
class fan_pair {
public:
    fan_pair() = default;
    explicit fan_pair(const fan_spec& spec);

    /// Electrical power drawn at `rpm` (clamped into the legal range).
    [[nodiscard]] util::watts_t power(util::rpm_t rpm) const;

    /// Airflow delivered at `rpm` (clamped into the legal range).
    [[nodiscard]] util::cfm_t airflow(util::rpm_t rpm) const;

    /// Clamps a commanded speed into [min_rpm, max_rpm].
    [[nodiscard]] util::rpm_t clamp(util::rpm_t rpm) const;

    [[nodiscard]] const fan_spec& spec() const { return spec_; }

private:
    fan_spec spec_{};
};

/// The server's bank of 3 independently controllable fan pairs.
///
/// Each pair carries a failure flag (fault injection): a failed pair's
/// rotor is stopped, so its *effective* speed, power, and airflow are
/// zero while its commanded speed stays latched.  `speed()` always
/// reports the commanded value — that is what snapshots must carry so a
/// restore never re-clamps a stopped rotor — while `effective_speed()`
/// and the aggregate queries report what the chassis physically does.
/// With every flag clear (the default) the two surfaces coincide
/// bitwise, which is what keeps healthy-plant runs pinned to the
/// pre-fault goldens.
///
/// A second, nastier flag models a *lying tachometer*: a tach-stuck
/// pair's rotor is just as dead (no power draw, no airflow) but
/// `effective_speed()` — the tach surface every observer reads — keeps
/// reporting the commanded value.  Command/tach residual monitoring is
/// blind to it by construction; only thermal-response cross-checking
/// (core::fault_monitor's tach-distrust path) can catch it.
class fan_bank {
public:
    /// Builds a bank of `pair_count` identical pairs, all initially at
    /// `initial` RPM.
    fan_bank(std::size_t pair_count, const fan_spec& spec, util::rpm_t initial);

    /// Paper configuration: 3 pairs, 1800-4200 RPM, all at 3600 RPM.
    fan_bank();

    [[nodiscard]] std::size_t pair_count() const { return speeds_.size(); }

    /// Commands one pair; the speed is clamped to the legal range.
    void set_speed(std::size_t pair_index, util::rpm_t rpm);

    /// Commands all pairs to the same speed.
    void set_all(util::rpm_t rpm);

    /// Commanded speed of one pair (unaffected by failure flags).
    [[nodiscard]] util::rpm_t speed(std::size_t pair_index) const;

    /// Marks one pair (un)failed; the commanded speed is untouched.
    void set_failed(std::size_t pair_index, bool failed);

    /// Marks one pair's tachometer stuck: the rotor stops (no power, no
    /// airflow) but the tach keeps reporting the commanded speed.
    void set_tach_stuck(std::size_t pair_index, bool stuck);

    /// Tachometer reading of one pair: the commanded speed, or 0 when
    /// failed.  A tach-stuck pair *lies* here — its rotor is stopped but
    /// the reading stays at the commanded value.
    [[nodiscard]] util::rpm_t effective_speed(std::size_t pair_index) const;

    /// Electrical power of one pair: 0 when the rotor is stopped
    /// (failed or tach-stuck).
    [[nodiscard]] util::watts_t pair_power(std::size_t pair_index) const;

    /// Airflow of one pair: 0 when the rotor is stopped (failed or
    /// tach-stuck).
    [[nodiscard]] util::cfm_t pair_airflow(std::size_t pair_index) const;

    /// Airflow the tach reading implies: 0 when it reads 0, else the fan
    /// law at the reading.  A tach-stuck pair reports airflow its stopped
    /// rotor does not deliver; otherwise this equals pair_airflow().
    [[nodiscard]] util::cfm_t tach_airflow(std::size_t pair_index) const;

    /// Mean tach reading across pairs (the "Avg RPM" column of Table I;
    /// a failed pair contributes 0, a tach-stuck pair lies high).
    [[nodiscard]] util::rpm_t average_speed() const;

    /// Total electrical power of the bank (failed pairs draw nothing).
    [[nodiscard]] util::watts_t total_power() const;

    [[nodiscard]] const fan_pair& pair() const { return pair_; }

private:
    fan_pair pair_;
    std::vector<util::rpm_t> speeds_;
    std::vector<unsigned char> failed_;
    std::vector<unsigned char> tach_stuck_;
};

/// The discrete RPM settings explored in the paper's characterization
/// (Fig. 1(a)): 1800 to 4200 in 600 RPM steps.
[[nodiscard]] std::vector<util::rpm_t> paper_rpm_settings();

}  // namespace ltsc::power
