// Time-stamped scalar series: the fundamental trace containers.
//
// Two representations share one read API (interpolation, windowed
// statistics, trapezoidal integration):
//
//  * `time_series` — an owning, array-of-structs (t, v) container, used
//    where a channel genuinely has its own time axis (workload profiles,
//    materialized exports).
//  * `column_view` — a non-owning, possibly strided view over separate
//    time/value storage, used by the columnar stores (`util::frame`,
//    `sim::batch_trace`) where many channels share one time column.
//
// Both forward to the same templated algorithms (util/series_algo.hpp),
// so statistics computed through a view are bitwise-identical to the
// same data held in a `time_series`.
#pragma once

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace ltsc::util {

/// One sample of a time series.
struct sample {
    double t = 0.0;  ///< Time in seconds since trace start.
    double v = 0.0;  ///< Value in the channel's unit.

    friend bool operator==(const sample& a, const sample& b) { return a.t == b.t && a.v == b.v; }
    friend bool operator!=(const sample& a, const sample& b) { return !(a == b); }
};

class column_view;

/// Monotonically ordered (time, value) trace with interpolation, windowed
/// statistics and integration.  Time stamps must be non-decreasing; values
/// must be finite.
class time_series {
public:
    time_series() = default;

    /// Appends a sample.  Throws precondition_error when `t` is older than
    /// the last sample or when either argument is non-finite.  Inline: the
    /// simulator appends to a dozen series every step.
    void push_back(double t, double v) {
        ensure(std::isfinite(t) && std::isfinite(v), "time_series::push_back: non-finite sample");
        if (!samples_.empty()) {
            ensure(t >= samples_.back().t, "time_series::push_back: non-monotonic time stamp");
        }
        samples_.push_back(sample{t, v});
    }

    /// Number of samples.
    [[nodiscard]] std::size_t size() const { return samples_.size(); }
    [[nodiscard]] bool empty() const { return samples_.empty(); }

    /// Sample access (bounds-checked).
    [[nodiscard]] const sample& at(std::size_t i) const;
    [[nodiscard]] const sample& front() const;
    [[nodiscard]] const sample& back() const;

    [[nodiscard]] const std::vector<sample>& samples() const { return samples_; }

    /// Non-owning view of this series (valid until the next mutation).
    [[nodiscard]] column_view view() const;

    /// Trace duration in seconds (0 when fewer than 2 samples).
    [[nodiscard]] double duration() const;

    /// Linearly interpolated value at time `t`; clamps to the first/last
    /// sample outside the recorded range.  Throws on an empty series.
    [[nodiscard]] double value_at(double t) const;

    /// Minimum value over [t0, t1] (samples only, inclusive).  Defaults to
    /// the whole trace.  Throws on an empty series or empty window.
    [[nodiscard]] double min(double t0, double t1) const;
    [[nodiscard]] double min() const;

    /// Maximum value over [t0, t1]; see `min`.
    [[nodiscard]] double max(double t0, double t1) const;
    [[nodiscard]] double max() const;

    /// Time-weighted mean over [t0, t1] using trapezoidal weighting; for a
    /// window shorter than one inter-sample gap this degenerates to linear
    /// interpolation.  Throws on an empty series.
    [[nodiscard]] double mean(double t0, double t1) const;
    [[nodiscard]] double mean() const;

    /// Trapezoidal integral of the value over [t0, t1], in value-seconds
    /// (e.g. Watts in -> Joules out).  The window is clamped to the trace.
    [[nodiscard]] double integrate(double t0, double t1) const;
    [[nodiscard]] double integrate() const;

    /// Returns a copy resampled on a uniform grid with step `dt` starting at
    /// the first sample time, using linear interpolation.
    [[nodiscard]] time_series resample(double dt) const;

    /// Index of the last sample with time <= t, or 0 when t precedes the
    /// trace.  Throws on an empty series.
    [[nodiscard]] std::size_t index_at_or_before(double t) const;

private:
    std::vector<sample> samples_;
};

/// Read-only view of one channel of a columnar store: a shared time
/// column plus this channel's values, addressed with a common byte
/// stride so it can walk contiguous columns (stride 8), array-of-structs
/// samples (stride 16), or lane-major fleet arenas (stride lanes*rows).
/// Exposes the `time_series` read API; views are invalidated by any
/// mutation of the underlying store.
class column_view {
public:
    column_view() = default;

    /// View over two contiguous double arrays sharing index i.
    column_view(const double* t, const double* v, std::size_t n)
        : column_view(t, v, n, sizeof(double)) {}

    /// View with an explicit byte stride between consecutive elements
    /// (the same stride applies to the time and value pointers).
    column_view(const double* t, const double* v, std::size_t n, std::size_t stride_bytes)
        : t_(reinterpret_cast<const char*>(t)),
          v_(reinterpret_cast<const char*>(v)),
          n_(n),
          stride_(stride_bytes) {}

    [[nodiscard]] std::size_t size() const { return n_; }
    [[nodiscard]] bool empty() const { return n_ == 0; }

    /// Element access used by the shared series algorithms.
    [[nodiscard]] double t(std::size_t i) const {
        return *reinterpret_cast<const double*>(t_ + i * stride_);
    }
    [[nodiscard]] double v(std::size_t i) const {
        return *reinterpret_cast<const double*>(v_ + i * stride_);
    }

    /// Sample access (bounds-checked, by value).
    [[nodiscard]] sample at(std::size_t i) const;
    [[nodiscard]] sample front() const;
    [[nodiscard]] sample back() const;

    /// Materialized oldest-to-newest copy of the viewed samples.
    [[nodiscard]] std::vector<sample> samples() const;

    /// Owning copy of the viewed data (for storing past the view's
    /// lifetime, e.g. snapshotting a fleet lane before the next run).
    [[nodiscard]] time_series to_series() const;

    // Read API, mirroring time_series (same algorithms, same bits).
    [[nodiscard]] double duration() const;
    [[nodiscard]] double value_at(double t) const;
    [[nodiscard]] double min(double t0, double t1) const;
    [[nodiscard]] double min() const;
    [[nodiscard]] double max(double t0, double t1) const;
    [[nodiscard]] double max() const;
    [[nodiscard]] double mean(double t0, double t1) const;
    [[nodiscard]] double mean() const;
    [[nodiscard]] double integrate(double t0, double t1) const;
    [[nodiscard]] double integrate() const;
    [[nodiscard]] time_series resample(double dt) const;
    [[nodiscard]] std::size_t index_at_or_before(double t) const;

private:
    const char* t_ = nullptr;
    const char* v_ = nullptr;
    std::size_t n_ = 0;
    std::size_t stride_ = sizeof(double);
};

/// A named time series with a unit label, as exported by the telemetry
/// harness and the benchmark CSV dumps.
struct named_series {
    std::string name;   ///< Channel name, e.g. "cpu0_temp".
    std::string unit;   ///< Unit label, e.g. "degC".
    time_series data;   ///< The recorded samples.
};

}  // namespace ltsc::util
