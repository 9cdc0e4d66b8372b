// Incremental windowed metrics over streaming trace rows.
//
// The post-hoc pipeline computes `sim::compute_metrics` over a finished
// trace with the shared series algorithms (util/series_algo.hpp):
// sequential trapezoids for integrals and time-weighted means, running
// extrema for peaks.  Rows arrive here in exactly that iteration order
// (per-lane time order), so the accumulator performs the *same
// floating-point operations in the same order* as the post-hoc reader
// and a closed window's metrics are bitwise-equal to
// `compute_metrics` over the same rows — not approximately, bit for
// bit (pinned by OnlineMetrics.*; fan_changes is a plant counter that
// does not ride the trace, so windows report 0 there and the post-hoc
// comparison passes 0 too).
//
// On top of the per-lane windows the engine keeps fleet-wide rollups no
// post-hoc pass could serve live: guard-trip row counts, monitor-health
// alarm rows, and thermal-margin percentiles from a fixed-bin
// histogram.  The rollups of several states (one per fleet shard)
// merge into one fleet view.  Nothing here is thread-safe; the
// telemetry service serializes writers and snapshots readers around it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/batch_trace.hpp"
#include "sim/metrics.hpp"
#include "util/histogram.hpp"

namespace ltsc::telemetry_service {

/// Online-engine knobs.
struct online_config {
    /// Rows per closed window (>= 2: compute_metrics needs two samples).
    std::size_t window_rows = 60;
    /// Guard line: a row whose max sensor reading is at or above this
    /// counts as a guard-trip row, and thermal margin is measured
    /// against it.
    double guard_temp_c = 101.0;
};

/// Streaming accumulator for one lane's current window.
class window_accumulator {
public:
    explicit window_accumulator(double guard_temp_c = 101.0) : guard_temp_c_(guard_temp_c) {}

    /// Folds in one row: `channels` are the 16 values in trace_channel
    /// order (one lane block of a row-group, past the timestamp).
    /// Timestamps must be non-decreasing within a window.
    void add(double t, const double* channels);

    [[nodiscard]] std::size_t rows() const { return rows_; }
    [[nodiscard]] std::uint64_t guard_trip_rows() const { return guard_trips_; }

    /// Energy integral accumulated so far this window [J].
    [[nodiscard]] double open_energy_j() const { return energy_j_; }

    /// Closes the window: returns metrics bitwise-equal to
    /// sim::compute_metrics over the same rows (with fan_changes = 0)
    /// and resets the accumulator.  Throws with fewer than 2 rows.
    [[nodiscard]] sim::run_metrics close(std::string test_name, std::string controller_name);

private:
    double guard_temp_c_;
    std::size_t rows_ = 0;
    double t_first_ = 0.0;
    double t_last_ = 0.0;
    // Previous row's integrand values (trapezoid partners).
    double prev_power_ = 0.0;
    double prev_rpm_ = 0.0;
    double prev_cpu_ = 0.0;
    // First row's values (the degenerate zero-duration mean).
    double first_rpm_ = 0.0;
    double first_cpu_ = 0.0;
    // Running reductions, in post-hoc iteration order.
    double energy_j_ = 0.0;
    double rpm_integral_ = 0.0;
    double cpu_integral_ = 0.0;
    double peak_power_ = 0.0;
    double max_temp_ = 0.0;
    std::uint64_t guard_trips_ = 0;
};

/// Published per-lane state: the last closed window plus progress
/// counters.
struct lane_window {
    std::uint64_t closed = 0;           ///< Windows closed so far.
    bool valid = false;                 ///< True once a window has closed.
    sim::run_metrics metrics;           ///< Metrics of the last closed window.
    std::uint64_t guard_trip_rows = 0;  ///< Guard trips inside that window.
    std::size_t open_rows = 0;          ///< Rows in the accumulating window.
    std::uint64_t rows = 0;             ///< Lifetime rows ingested.
};

/// Rollups over every row an online_state ingested.
struct online_rollup {
    std::uint64_t rows = 0;
    std::uint64_t row_groups = 0;
    std::uint64_t closed_windows = 0;
    std::uint64_t guard_trip_rows = 0;
    std::uint64_t sensor_alarm_rows = 0;
    std::uint64_t fan_alarm_rows = 0;
    /// Sum of closed-window energies over every lane [kWh].
    double closed_energy_kwh = 0.0;
    /// Max sensor temperature over every row (0 when no rows yet).
    double max_temp_c = 0.0;
    /// Thermal margins (guard - max sensor) of every row.
    util::fixed_histogram margins;

    /// Adds another state's rollup: counts and energies sum, the maximum
    /// and the margin histogram merge (same grid required).
    void merge(const online_rollup& other);
};

/// Online metrics of a set of lanes (a fleet shard, or a whole fleet):
/// per-lane windows + rollups.
class online_state {
public:
    online_state(std::size_t lanes, online_config cfg = {});

    [[nodiscard]] std::size_t lane_count() const { return lanes_.size(); }
    [[nodiscard]] const online_config& config() const { return cfg_; }

    /// Folds row-group `group` of a trace arena whose lanes are this
    /// state's lanes: each lane that recorded in the group adds its row.
    void apply_group(const sim::batch_trace& trace, std::size_t group);

    /// Applies one row to one lane (the group apply unrolled; exposed
    /// for tests and the online-engine micro-benchmark).
    void apply_row(std::size_t lane, double t, const double* channels);

    [[nodiscard]] const lane_window& lane(std::size_t lane) const;
    [[nodiscard]] const online_rollup& rollup() const { return rollup_; }

private:
    struct lane_state {
        explicit lane_state(double guard) : acc(guard) {}
        window_accumulator acc;
        lane_window window;
    };

    online_config cfg_;
    std::vector<lane_state> lanes_;
    online_rollup rollup_;
};

}  // namespace ltsc::telemetry_service
