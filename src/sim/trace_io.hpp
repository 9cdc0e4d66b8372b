// Export / import of simulation traces for offline analysis and plotting.
//
// Every figure in the paper is a plot over a recorded run; these helpers
// turn a trace into CSV so any external tool can regenerate the plots
// from the bench binaries' data, and read a dumped run back into a
// `simulation_trace` for fleet post-processing.
//
// The on-disk layout is columnar, matching the storage: one `time_s`
// column plus one column per channel, one row per recorded step.
#pragma once

#include <iosfwd>
#include <string>

#include "sim/simulation_trace.hpp"
#include "util/time_series.hpp"

namespace ltsc::sim {

/// Writes the trace as columnar CSV: header `time_s,<channel>...`, one
/// row per recorded step (the single shared time axis appears once).
void write_trace_csv(std::ostream& os, const trace_view& trace);

/// Parses a trace dumped by `write_trace_csv` back into an owning trace.
/// Throws util::parse_error on any other layout, on a header that does
/// not name each channel exactly once, or on malformed or non-monotonic
/// cells.
[[nodiscard]] simulation_trace read_trace_csv(const std::string& text);

/// Writes the trace as wide-format CSV: one row per `sample_period_s` of
/// the power series' span, one column per channel (values linearly
/// interpolated onto that grid).  Easier to load into spreadsheets.
void write_trace_csv_wide(std::ostream& os, const trace_view& trace,
                          double sample_period_s = 10.0);

}  // namespace ltsc::sim
