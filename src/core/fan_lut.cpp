#include "core/fan_lut.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "util/csv.hpp"
#include "util/error.hpp"

namespace ltsc::core {

fan_lut::fan_lut(std::vector<lut_entry> entries) : entries_(std::move(entries)) {
    util::ensure(!entries_.empty(), "fan_lut: empty table");
    // Fields are checked before sorting: a NaN level would break the
    // sort's strict weak ordering.
    for (const lut_entry& e : entries_) {
        util::ensure(e.utilization_pct >= 0.0 && e.utilization_pct <= 100.0,
                     "fan_lut: utilization out of [0, 100]");
        util::ensure(std::isfinite(e.rpm.value()), "fan_lut: non-finite RPM");
        util::ensure(e.rpm.value() > 0.0, "fan_lut: non-positive RPM");
        util::ensure(std::isfinite(e.expected_cpu_temp_c) && std::isfinite(e.expected_fan_leak_w),
                     "fan_lut: non-finite expected temperature or power");
    }
    std::sort(entries_.begin(), entries_.end(),
              [](const lut_entry& a, const lut_entry& b) {
                  return a.utilization_pct < b.utilization_pct;
              });
    for (std::size_t i = 1; i < entries_.size(); ++i) {
        util::ensure(entries_[i].utilization_pct > entries_[i - 1].utilization_pct,
                     "fan_lut: duplicate utilization level");
    }
}

const lut_entry& fan_lut::entry_for(double utilization_pct) const {
    util::ensure(!entries_.empty(), "fan_lut::entry_for: empty table");
    util::ensure(utilization_pct >= 0.0, "fan_lut::entry_for: negative utilization");
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), utilization_pct,
        [](const lut_entry& e, double u) { return e.utilization_pct < u; });
    if (it == entries_.end()) {
        return entries_.back();
    }
    return *it;
}

util::rpm_t fan_lut::lookup(double utilization_pct) const { return entry_for(utilization_pct).rpm; }

void fan_lut::write_csv(std::ostream& os) const {
    util::csv_writer w(os);
    w.write_header({"utilization_pct", "rpm", "expected_cpu_temp_c", "expected_fan_leak_w"});
    for (const lut_entry& e : entries_) {
        w.write_row({e.utilization_pct, e.rpm.value(), e.expected_cpu_temp_c,
                     e.expected_fan_leak_w});
    }
}

}  // namespace ltsc::core
