// Unit tests for the columnar read view (util::column_view): edge
// cases, interpolation clamping, windowed statistics vs. time_series
// answers on identical data, strided (lane-major) views of the trace
// store, and the columnar CSV export.  The `Frame` suite is named for
// the shared-time-column layout the view reads.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "sim/batch_trace.hpp"
#include "sim/trace_io.hpp"
#include "util/error.hpp"
#include "util/time_series.hpp"

#include "trace_csv_check.hpp"

namespace {

using ltsc::util::column_view;
using ltsc::util::precondition_error;
using ltsc::util::time_series;

/// v = 2t sampled at t = 0, 1, ..., 10, as two plain columns.
struct ramp_columns {
    std::vector<double> t;
    std::vector<double> v;

    ramp_columns() {
        for (int i = 0; i <= 10; ++i) {
            t.push_back(static_cast<double>(i));
            v.push_back(static_cast<double>(2 * i));
        }
    }
    [[nodiscard]] column_view view() const { return column_view(t.data(), v.data(), t.size()); }
};

TEST(Frame, EmptyProperties) {
    const column_view c;
    EXPECT_TRUE(c.empty());
    EXPECT_EQ(c.size(), 0U);
    EXPECT_DOUBLE_EQ(c.duration(), 0.0);
    EXPECT_THROW(static_cast<void>(c.value_at(0.0)), precondition_error);
    EXPECT_THROW(static_cast<void>(c.min()), precondition_error);
    EXPECT_THROW(static_cast<void>(c.front()), precondition_error);
}

TEST(Frame, InterpolationClampsAtEdges) {
    const ramp_columns cols;
    const column_view ramp = cols.view();
    EXPECT_DOUBLE_EQ(ramp.value_at(-5.0), 0.0);   // clamp to first sample
    EXPECT_DOUBLE_EQ(ramp.value_at(100.0), 20.0); // clamp to last sample
    EXPECT_DOUBLE_EQ(ramp.value_at(2.5), 5.0);
    EXPECT_DOUBLE_EQ(ramp.value_at(7.25), 14.5);
}

TEST(Frame, WindowedStatsMatchTimeSeriesOnIdenticalData) {
    // The contract behind the columnar swap: every statistic computed
    // through a view equals — bitwise — the same data in a time_series.
    const ramp_columns cols;
    const column_view ramp = cols.view();
    time_series ts;
    for (std::size_t i = 0; i < cols.t.size(); ++i) {
        ts.push_back(cols.t[i], cols.v[i]);
    }
    EXPECT_EQ(ramp.duration(), ts.duration());
    EXPECT_EQ(ramp.min(), ts.min());
    EXPECT_EQ(ramp.max(), ts.max());
    EXPECT_EQ(ramp.min(3.0, 7.0), ts.min(3.0, 7.0));
    EXPECT_EQ(ramp.max(0.0, 4.5), ts.max(0.0, 4.5));
    EXPECT_EQ(ramp.mean(), ts.mean());
    EXPECT_EQ(ramp.mean(2.25, 7.75), ts.mean(2.25, 7.75));
    EXPECT_EQ(ramp.integrate(), ts.integrate());
    EXPECT_EQ(ramp.integrate(2.25, 2.75), ts.integrate(2.25, 2.75));
    EXPECT_EQ(ramp.value_at(3.7), ts.value_at(3.7));
    EXPECT_EQ(ramp.index_at_or_before(3.7), ts.index_at_or_before(3.7));
    EXPECT_EQ(ramp.index_at_or_before(-1.0), ts.index_at_or_before(-1.0));

    // And the AoS view of the time_series itself agrees with the series.
    const column_view aos = ts.view();
    EXPECT_EQ(aos.size(), ts.size());
    EXPECT_EQ(aos.mean(2.25, 7.75), ts.mean(2.25, 7.75));
    EXPECT_EQ(aos.integrate(), ts.integrate());
}

TEST(Frame, WindowValidation) {
    const ramp_columns cols;
    const column_view ramp = cols.view();
    EXPECT_THROW(static_cast<void>(ramp.min(5.0, 3.0)), precondition_error);
    EXPECT_THROW(static_cast<void>(ramp.max(5.0, 3.0)), precondition_error);
    EXPECT_THROW(static_cast<void>(ramp.integrate(5.0, 3.0)), precondition_error);
    EXPECT_THROW(static_cast<void>(ramp.at(99)), precondition_error);
}

TEST(Frame, MaterializationRoundTrips) {
    const ramp_columns cols;
    const column_view ramp = cols.view();
    const time_series ts = ramp.to_series();
    ASSERT_EQ(ts.size(), ramp.size());
    const auto samples = ramp.samples();
    for (std::size_t i = 0; i < ts.size(); ++i) {
        EXPECT_EQ(ts.at(i), samples[i]);
    }
}

TEST(BatchTraceView, StridedLaneViewsMatchMaterializedSeries) {
    // Lane-major arena: per-lane channel views stride across the
    // row-groups, and every statistic must equal the materialized copy.
    ltsc::sim::batch_trace traces(3);
    for (int i = 0; i < 50; ++i) {
        for (std::size_t l = 0; l < 3; ++l) {
            ltsc::sim::trace_row row;
            for (std::size_t c = 0; c < ltsc::sim::trace_channel_count; ++c) {
                row.values[c] = std::sin(0.1 * i) * static_cast<double>(c + l + 1);
            }
            traces.append(l, static_cast<double>(i), row);
        }
    }
    for (std::size_t l = 0; l < 3; ++l) {
        const ltsc::sim::trace_view view = traces.lane(l);
        ASSERT_EQ(view.size(), 50U);
        const column_view power = view.total_power();
        const time_series copy = power.to_series();
        EXPECT_EQ(power.mean(), copy.mean());
        EXPECT_EQ(power.integrate(5.0, 40.0), copy.integrate(5.0, 40.0));
        EXPECT_EQ(power.min(), copy.min());
        EXPECT_EQ(power.max(10.5, 20.5), copy.max(10.5, 20.5));
    }
}

TEST(BatchTraceView, PerLaneClearAndRaggedLanes) {
    ltsc::sim::batch_trace traces(2);
    ltsc::sim::trace_row row;
    traces.append(0, 0.0, row);
    traces.append(1, 0.0, row);
    traces.append(0, 1.0, row);  // lane 1 inert this step
    EXPECT_EQ(traces.size(0), 2U);
    EXPECT_EQ(traces.size(1), 1U);
    // Lane 1 resumes: its time axis is its own.
    traces.append(1, 5.0, row);
    EXPECT_EQ(traces.size(1), 2U);
    EXPECT_DOUBLE_EQ(traces.lane(1).target_util().t(1), 5.0);

    // Clearing one lane restarts it at t = 0 without touching the other.
    traces.clear(1);
    EXPECT_EQ(traces.size(1), 0U);
    EXPECT_EQ(traces.size(0), 2U);
    traces.append(1, 0.0, row);
    EXPECT_EQ(traces.size(1), 1U);

    // Clearing every lane releases the arena.
    traces.clear(0);
    traces.clear(1);
    EXPECT_EQ(traces.group_count(), 0U);
}

TEST(Frame, TraceCsvRoundTripPreservesValues) {
    ltsc::sim::batch_trace tr(1);
    ltsc::sim::trace_row row;
    for (int i = 0; i < 20; ++i) {
        for (std::size_t c = 0; c < ltsc::sim::trace_channel_count; ++c) {
            row.values[c] =
                0.1 * static_cast<double>(i) + 1e-3 * static_cast<double>(c) + 1.0 / 3.0;
        }
        tr.append(0, 0.5 * i, row);
    }
    std::ostringstream os;
    ltsc::sim::write_trace_csv(os, tr.lane(0));
    // The writer formats with %.12g (readable, not binary-exact): each
    // cell is format_number of the stored value.
    ltsc::test::expect_columnar_trace_csv(os.str(), tr.lane(0));
}

}  // namespace
