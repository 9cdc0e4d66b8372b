// Columnar trace storage: one shared time axis, N named value columns.
//
// A `frame` stores the telemetry harness's channel history (plant
// traces live in `sim::batch_trace`).  Where a bundle of `time_series`
// would duplicate the timestamp per channel and validate monotonicity N
// times per step, a frame holds one monotonic time column plus one
// contiguous value column per channel: an append is one timestamp check
// and one row write, and channels can never drift out of step with each
// other.  Reads go through `column_view`, which exposes the full
// `time_series` read API over the shared time column.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/time_series.hpp"

namespace ltsc::util {

/// One time column + N named contiguous value columns.
class frame {
public:
    frame() = default;

    /// Registers a value column and returns its index.  Channel names
    /// must be unique; columns can only be added while the frame holds
    /// no rows.
    std::size_t add_channel(std::string name);

    [[nodiscard]] std::size_t channel_count() const { return columns_.size(); }

    /// Number of rows (samples per channel).
    [[nodiscard]] std::size_t size() const { return time_.size(); }
    [[nodiscard]] bool empty() const { return time_.empty(); }

    /// Appends one row: a shared timestamp plus one value per channel
    /// (`count` must equal `channel_count()`).  Throws precondition_error
    /// when `t` is older than the last row or any value is non-finite.
    void append(double t, const double* values, std::size_t count);

    /// Drops all rows; the channel set is preserved.
    void clear();

    [[nodiscard]] const std::vector<double>& time() const { return time_; }
    [[nodiscard]] const std::vector<double>& values(std::size_t channel) const;

    /// Channel lookup.  The index overload is bounds-checked; the name
    /// overload throws on an unknown channel.
    [[nodiscard]] column_view column(std::size_t channel) const;
    [[nodiscard]] column_view column(const std::string& name) const;

    [[nodiscard]] std::size_t channel_index(const std::string& name) const;
    [[nodiscard]] bool has_channel(const std::string& name) const;
    [[nodiscard]] const std::string& channel_name(std::size_t channel) const;

private:
    std::vector<std::string> names_;
    std::vector<double> time_;
    std::vector<std::vector<double>> columns_;
};

}  // namespace ltsc::util
