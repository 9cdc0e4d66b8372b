// Continuous System Telemetry Harness (CSTH) substrate.
//
// The paper polls CPU/DIMM temperatures, per-core voltage/current and
// whole-system power through CSTH every 10 seconds.  This harness keeps
// what that poller leaves behind for the simulated server: the polling
// cadence, the poll clock, and the recorded history.  The server reads
// its fixed channel set itself when `due(now)` says a poll is owed and
// hands the row to `record`.
//
// Histories are columnar: every poll samples all channels at one shared
// timestamp, so the harness archives them as one `util::frame` (one time
// column + one value column per recorded channel, named at construction)
// instead of per-channel series that each duplicate the poll clock.
#pragma once

#include <cstddef>
#include <initializer_list>

#include "util/frame.hpp"
#include "util/units.hpp"

namespace ltsc::telemetry {

/// Poll clock plus columnar history over a fixed set of named columns.
class harness {
public:
    /// `period` is the sampling cadence (the paper uses 10 s); `columns`
    /// names the history columns, in the order record() takes values.
    harness(util::seconds_t period, std::initializer_list<const char*> columns);

    /// True if at least one period elapsed since the last poll (or if
    /// never polled).
    [[nodiscard]] bool due(util::seconds_t now) const;

    /// Records one poll at time `now`: one value per column, in column
    /// order.  Advances the poll clock.
    void record(util::seconds_t now, const double* values, std::size_t count);

    /// Clears the recorded history and the poll clock, so the harness can
    /// record a fresh run starting from t = 0.
    void reset();

    /// Drops the recorded history rows only.  The poll clock is kept, so
    /// the next poll fires exactly when it would have without the clear.
    /// Long-running plants call this to bound history memory.
    void clear_history() { history_.clear(); }

    // --- poll-clock save/restore -------------------------------------------
    // Cloning a live plant (rollout snapshots) must reproduce *when* the
    // next telemetry poll fires, because polling reads the sensors and
    // advances their RNG stream.  The clock is exposed as (last poll
    // time, ever-polled) so a restored plant polls on the same schedule
    // as the original; histories are not part of the dynamic state.
    [[nodiscard]] double last_poll_time() const { return last_poll_; }
    [[nodiscard]] bool ever_polled() const { return polled_once_; }

    /// Overwrites the poll clock without sampling or touching histories
    /// (callers wanting a clean recording call reset() first).
    void restore_poll_clock(double last_poll_s, bool ever_polled);

    /// The columnar history store, one column per name given at
    /// construction.
    [[nodiscard]] const util::frame& history() const { return history_; }

private:
    util::seconds_t period_;
    double last_poll_ = -1.0;
    bool polled_once_ = false;
    util::frame history_;
};

}  // namespace ltsc::telemetry
