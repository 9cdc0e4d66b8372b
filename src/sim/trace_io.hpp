// Export of simulation traces for offline analysis and plotting.
//
// Every figure in the paper is a plot over a recorded run; this helper
// turns a trace into CSV so any external tool can regenerate the plots
// from the bench binaries' data.
//
// The on-disk layout is columnar, matching the storage: one `time_s`
// column plus one column per channel, one row per recorded step.
#pragma once

#include <iosfwd>

#include "sim/batch_trace.hpp"

namespace ltsc::sim {

/// Writes the trace as columnar CSV: header `time_s,<channel>...`, one
/// row per recorded step (the single shared time axis appears once).
void write_trace_csv(std::ostream& os, const trace_view& trace);

}  // namespace ltsc::sim
