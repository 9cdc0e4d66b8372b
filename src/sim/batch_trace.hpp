// Columnar per-step recording of simulated servers.
//
// Every plant step records the same 16 quantities at one timestamp, so a
// lane's trace is one shared, monotonic time column plus 16 value
// columns recorded as a row: an append is a single timestamp check and
// one row write, and channels can never drift out of step.
//
// Three types cooperate:
//  * `trace_channel` / `trace_row` — the typed channel set and one step's
//    values.
//  * `trace_view` — a non-owning, read-only window exposing every channel
//    with the `time_series` read API.
//  * `batch_trace` — the one store: every plant records into it, and a
//    view is kept past its store's next mutation by copying it into a
//    one-lane `batch_trace`.
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

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/time_series.hpp"

namespace ltsc::sim {

/// Recorded channels, in recording/export order.
enum class trace_channel : std::size_t {
    target_util = 0,  ///< Commanded utilization [%].
    instant_util,     ///< PWM instantaneous utilization [%].
    cpu0_temp,        ///< True die temperature, socket 0 [degC].
    cpu1_temp,        ///< True die temperature, socket 1 [degC].
    avg_cpu_temp,     ///< Mean of the two dies [degC].
    max_sensor_temp,  ///< Max of the 4 CPU sensor readings [degC].
    dimm_temp,        ///< DIMM bank temperature [degC].
    total_power,      ///< System wall power [W].
    fan_power,        ///< Fan bank power [W].
    leakage_power,    ///< Leakage component [W].
    active_power,     ///< Active component [W].
    avg_fan_rpm,      ///< Mean commanded RPM.
    sensor_age,       ///< Age of the newest telemetry poll [s].
    monitor_sensor_health,  ///< Worst monitor sensor verdict (0/1/2); 0 when off.
    monitor_fan_health,     ///< Worst monitor fan-pair verdict (0/1/2); 0 when off.
    monitor_die_estimate,   ///< Monitor's max modeled die temp [degC]; 0 when off.
};

inline constexpr std::size_t trace_channel_count = 16;

/// Export name of a channel (e.g. "total_power").
[[nodiscard]] const char* trace_channel_name(trace_channel c);

/// One step's values for every channel (the unit of appending).
struct trace_row {
    std::array<double, trace_channel_count> values{};

    [[nodiscard]] double& operator[](trace_channel c) {
        return values[static_cast<std::size_t>(c)];
    }
    [[nodiscard]] double operator[](trace_channel c) const {
        return values[static_cast<std::size_t>(c)];
    }
};

/// Read-only view of a recorded trace: the 16 channels over one shared
/// time axis.  Cheap to copy; invalidated by any mutation of the store
/// it was taken from (append/clear/destruction).
class trace_view {
public:
    trace_view() = default;

    [[nodiscard]] std::size_t size() const { return channels_[0].size(); }
    [[nodiscard]] bool empty() const { return channels_[0].empty(); }

    [[nodiscard]] util::column_view channel(trace_channel c) const {
        return channels_[static_cast<std::size_t>(c)];
    }

    // Named channel accessors (the 16 recorded quantities).
    [[nodiscard]] util::column_view target_util() const {
        return channel(trace_channel::target_util);
    }
    [[nodiscard]] util::column_view instant_util() const {
        return channel(trace_channel::instant_util);
    }
    [[nodiscard]] util::column_view cpu0_temp() const { return channel(trace_channel::cpu0_temp); }
    [[nodiscard]] util::column_view cpu1_temp() const { return channel(trace_channel::cpu1_temp); }
    [[nodiscard]] util::column_view avg_cpu_temp() const {
        return channel(trace_channel::avg_cpu_temp);
    }
    [[nodiscard]] util::column_view max_sensor_temp() const {
        return channel(trace_channel::max_sensor_temp);
    }
    [[nodiscard]] util::column_view dimm_temp() const { return channel(trace_channel::dimm_temp); }
    [[nodiscard]] util::column_view total_power() const {
        return channel(trace_channel::total_power);
    }
    [[nodiscard]] util::column_view fan_power() const { return channel(trace_channel::fan_power); }
    [[nodiscard]] util::column_view leakage_power() const {
        return channel(trace_channel::leakage_power);
    }
    [[nodiscard]] util::column_view active_power() const {
        return channel(trace_channel::active_power);
    }
    [[nodiscard]] util::column_view avg_fan_rpm() const {
        return channel(trace_channel::avg_fan_rpm);
    }
    [[nodiscard]] util::column_view sensor_age() const {
        return channel(trace_channel::sensor_age);
    }
    [[nodiscard]] util::column_view monitor_sensor_health() const {
        return channel(trace_channel::monitor_sensor_health);
    }
    [[nodiscard]] util::column_view monitor_fan_health() const {
        return channel(trace_channel::monitor_fan_health);
    }
    [[nodiscard]] util::column_view monitor_die_estimate() const {
        return channel(trace_channel::monitor_die_estimate);
    }

private:
    friend class batch_trace;

    std::array<util::column_view, trace_channel_count> channels_{};
};

/// One columnar arena recording N lanes' traces.
class batch_trace {
public:
    explicit batch_trace(std::size_t lanes);

    /// One-lane deep copy of a view (e.g. keeping a fleet lane's trace
    /// after the batch records the next run).
    explicit batch_trace(const trace_view& v);

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
    [[nodiscard]] double* slot(std::size_t group, std::size_t lane) {
        return arena_.data() + (group * lanes_ + lane) * slot_doubles;
    }
    [[nodiscard]] const double* slot(std::size_t group, std::size_t lane) const {
        return arena_.data() + (group * lanes_ + lane) * slot_doubles;
    }

    std::size_t lanes_ = 0;
    std::size_t groups_ = 0;           ///< Row-groups written into the arena.
    std::uint64_t appended_groups_ = 0;  ///< Lifetime row-groups opened (never resets).
    std::vector<double> arena_;        ///< [group][lane][1 + channels].
    std::vector<std::size_t> first_;   ///< [lane] group index of row 0.
    std::vector<std::size_t> count_;   ///< [lane] recorded rows.
};

}  // namespace ltsc::sim
