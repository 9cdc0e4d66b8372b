// The lookup table at the heart of the paper's controller.
//
// The LUT maps a workload utilization level to the fan speed that
// minimizes fan-plus-leakage power at that level's steady state, subject
// to a maximum operational temperature (75 degC for reliability).  It is
// generated offline by the characterization pipeline and addressed at run
// time by the measured utilization.
#pragma once

#include <iosfwd>
#include <vector>

#include "util/units.hpp"

namespace ltsc::core {

/// One LUT row: for utilization levels up to `utilization_pct`, use
/// `rpm` (staircase semantics, see fan_lut::lookup).
struct lut_entry {
    double utilization_pct = 0.0;
    util::rpm_t rpm{0.0};
    double expected_cpu_temp_c = 0.0;      ///< Predicted steady temperature.
    double expected_fan_leak_w = 0.0;      ///< Predicted fan + leakage power.
};

/// Utilization-indexed fan speed table.
class fan_lut {
public:
    fan_lut() = default;

    /// Builds from rows; they are sorted by utilization and must have
    /// distinct utilization levels in [0, 100], a finite positive RPM and
    /// a finite expected temperature and power.  Throws
    /// precondition_error otherwise.
    explicit fan_lut(std::vector<lut_entry> entries);

    /// Fan speed for a measured utilization: the entry with the smallest
    /// level >= `utilization_pct` (conservative rounding up: between two
    /// characterized levels the table assumes the hotter one).  Above the
    /// last level the last entry applies.  Throws on an empty table.
    [[nodiscard]] util::rpm_t lookup(double utilization_pct) const;

    /// The full entry selected for a utilization (for diagnostics).
    [[nodiscard]] const lut_entry& entry_for(double utilization_pct) const;

    [[nodiscard]] const std::vector<lut_entry>& entries() const { return entries_; }
    [[nodiscard]] bool empty() const { return entries_.empty(); }
    [[nodiscard]] std::size_t size() const { return entries_.size(); }

    /// Serializes as CSV (utilization_pct, rpm, expected_cpu_temp_c,
    /// expected_fan_leak_w).
    void write_csv(std::ostream& os) const;

private:
    std::vector<lut_entry> entries_;
};

}  // namespace ltsc::core
