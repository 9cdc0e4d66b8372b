// Lane-major columnar recorder for fleet plants.
//
// `server_batch` steps all lanes together, so per-step recording is the
// fleet's dominant memory traffic.  A batch_trace stores every lane's
// channels in ONE arena laid out row-group-major: each plant step
// appends one row-group of `lanes * (1 + channels)` doubles, with each
// lane's block (its timestamp + 16 channel values) contiguous inside the
// group.  Appending a step therefore writes one contiguous span instead
// of touching `lanes * channels` independently reallocating vectors.
//
// Lanes keep independent time axes: each lane tracks the contiguous
// range of row-groups it has recorded (`first`, `count`).  A lane that
// goes inert (ragged fleets) simply stops consuming group slots and can
// resume later by filling the historical slots it skipped; a cleared
// lane restarts at the current group.  Reads are `trace_view`s whose
// column_views stride over the arena (stride = one row-group), so every
// `time_series` statistic works unchanged — and bitwise-identically —
// over lane-major storage.  Views are invalidated by append/clear.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/simulation_trace.hpp"
#include "util/time_series.hpp"

namespace ltsc::sim {

/// One columnar arena recording N lanes' traces.
class batch_trace {
public:
    explicit batch_trace(std::size_t lanes);

    [[nodiscard]] std::size_t lane_count() const { return lanes_; }

    /// Appends one step's row for `lane`.  Throws precondition_error on a
    /// non-monotonic per-lane timestamp or non-finite values.
    void append(std::size_t lane, double t, const trace_row& row);

    /// Drops one lane's recording; the lane restarts at the current
    /// row-group.  When every lane is empty the arena itself is released.
    void clear(std::size_t lane);

    /// Rows recorded for `lane`.
    [[nodiscard]] std::size_t size(std::size_t lane) const;

    /// Read view of one lane's trace (strided over the arena; valid
    /// until the next append/clear).
    [[nodiscard]] trace_view lane(std::size_t lane) const;

    /// Pre-allocates arena capacity for `steps` row-groups.
    void reserve_steps(std::size_t steps);

    /// Row-groups allocated so far (monotone except for the all-empty
    /// arena reset); exposed for storage accounting and tests.
    [[nodiscard]] std::size_t group_count() const { return groups_; }

    /// Doubles per (group, lane) slot: the lane's timestamp followed by
    /// its channel values in `trace_channel` order.
    static constexpr std::size_t slot_doubles = 1 + trace_channel_count;

    /// Lifetime count of row-groups ever opened, monotone across the
    /// all-empty arena reset that `group_count()` is subject to.  A
    /// publisher comparing this against its last-seen value can tell
    /// whether a step actually appended a group (all-inert steps do
    /// not) without being confused by clears.
    [[nodiscard]] std::uint64_t appended_groups() const { return appended_groups_; }

    /// Raw storage of one row-group: `lane_count() * slot_doubles`
    /// doubles, lane-major ([lane][t, channels...]).  Slots of lanes
    /// that did not record in this group hold stale data — check
    /// `lane_in_group`.  Invalidated by append/clear.
    [[nodiscard]] const double* group_data(std::size_t group) const;

    /// Whether `lane` recorded a row in row-group `group`.
    [[nodiscard]] bool lane_in_group(std::size_t lane, std::size_t group) const;

private:
    /// Backward-compatible internal alias.
    static constexpr std::size_t slot_doubles_ = slot_doubles;

    [[nodiscard]] double* slot(std::size_t group, std::size_t lane) {
        return arena_.data() + (group * lanes_ + lane) * slot_doubles_;
    }
    [[nodiscard]] const double* slot(std::size_t group, std::size_t lane) const {
        return arena_.data() + (group * lanes_ + lane) * slot_doubles_;
    }

    std::size_t lanes_ = 0;
    std::size_t groups_ = 0;           ///< Row-groups written into the arena.
    std::uint64_t appended_groups_ = 0;  ///< Lifetime row-groups opened (never resets).
    std::vector<double> arena_;        ///< [group][lane][1 + channels].
    std::vector<std::size_t> first_;   ///< [lane] group index of row 0.
    std::vector<std::size_t> count_;   ///< [lane] recorded rows.
};

}  // namespace ltsc::sim
