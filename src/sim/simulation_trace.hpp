// Columnar per-step recording of a simulated server.
//
// Every plant step records the same 16 quantities at one timestamp.  The
// trace is therefore a frame — one shared, monotonic time column plus 16
// contiguous value columns — not 16 independent series: an append is a
// single timestamp check and one row write, channels can never drift out
// of step, and readers get cache-friendly contiguous columns.
//
// Three types cooperate:
//  * `trace_channel` / `trace_row` — the typed channel set and one step's
//    values.
//  * `trace_view` — a non-owning, read-only window exposing every channel
//    with the `time_series` read API (works over both an owning frame and
//    `batch_trace`'s lane-major arena, where every plant records).
//  * `simulation_trace` — an owning copy: what `read_trace_csv` returns
//    and what a plant's trace is materialized into to outlive its next
//    step.
#pragma once

#include <array>
#include <cstddef>

#include "util/frame.hpp"
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
    friend class simulation_trace;
    friend class batch_trace;

    std::array<util::column_view, trace_channel_count> channels_{};
};

/// Owning columnar trace: a typed facade over one util::frame.
/// Copyable (plain columnar data).
class simulation_trace {
public:
    simulation_trace();

    /// Deep copy of a view (e.g. snapshotting a fleet lane before the
    /// batch records the next run).
    explicit simulation_trace(const trace_view& v);

    /// Records one step: a single timestamp check and one row append.
    void append(double t, const trace_row& row) {
        frame_.append(t, row.values.data(), trace_channel_count);
    }

    void clear() { frame_.clear(); }

    /// Pre-allocates storage for `rows` recorded steps.
    void reserve(std::size_t rows) { frame_.reserve(rows); }

    [[nodiscard]] std::size_t size() const { return frame_.size(); }
    [[nodiscard]] bool empty() const { return frame_.empty(); }

    [[nodiscard]] util::column_view channel(trace_channel c) const {
        return frame_.column(static_cast<std::size_t>(c));
    }

    /// View of every channel (valid until the next append/clear).
    [[nodiscard]] trace_view view() const;
    operator trace_view() const { return view(); }  // NOLINT(google-explicit-constructor)

private:
    util::frame frame_;
};

}  // namespace ltsc::sim
