// The unit of telemetry ingestion: one shard's rows for one fleet step.
//
// When a `sim::fleet` shard finishes a step it has appended exactly one
// lane-major row-group to its `batch_trace` arena.  The publisher copies
// that contiguous span — `lanes * (1 + trace_channel_count)` doubles —
// into a ring slot together with the fleet step epoch and a validity
// bitmask (ragged fleets: inert lanes leave their slot stale).  The
// epoch stamp is what makes snapshot-consistent reads possible
// downstream: the aggregator applies whole groups atomically and tracks
// the newest epoch applied per shard, so a reader can always tell which
// complete fleet step its answer reflects.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/batch_trace.hpp"

namespace ltsc::telemetry_service {

struct row_group {
    std::uint64_t epoch = 0;   ///< Fleet step that produced the group.
    std::uint32_t shard = 0;   ///< Producing shard index.
    std::uint32_t lanes = 0;   ///< Lanes in the producing shard.
    /// Validity bitmask, one bit per shard-local lane: set when the lane
    /// recorded a row in this group.
    std::vector<std::uint64_t> active;
    /// Lane-major payload: `lanes` blocks of [t, 16 channels] doubles,
    /// a bitwise copy of the shard's arena row-group.
    std::vector<double> data;

    /// Doubles per lane block.
    static constexpr std::size_t lane_doubles = 1 + sim::trace_channel_count;

    [[nodiscard]] bool lane_valid(std::size_t lane) const {
        return (active[lane / 64] >> (lane % 64) & 1ULL) != 0;
    }

    [[nodiscard]] const double* lane_data(std::size_t lane) const {
        return data.data() + lane * lane_doubles;
    }
};

}  // namespace ltsc::telemetry_service
