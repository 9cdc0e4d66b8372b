// Unit tests for the columnar trace store (util/frame.hpp) and its
// read view (util::column_view): append validation, interpolation
// clamping, windowed statistics vs. time_series answers on identical
// data, strided (lane-major) views, and the columnar CSV export.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "sim/batch_trace.hpp"
#include "sim/trace_io.hpp"
#include "util/error.hpp"
#include "util/frame.hpp"
#include "util/time_series.hpp"

#include "trace_csv_check.hpp"

namespace {

using ltsc::util::column_view;
using ltsc::util::frame;
using ltsc::util::precondition_error;
using ltsc::util::time_series;

frame make_ramp_frame() {
    frame f;
    f.add_channel("ramp");
    f.add_channel("flat");
    for (int i = 0; i <= 10; ++i) {
        const double row[2] = {static_cast<double>(2 * i), 7.0};
        f.append(static_cast<double>(i), row, 2);
    }
    return f;
}

TEST(Frame, EmptyProperties) {
    frame f;
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.size(), 0U);
    EXPECT_EQ(f.channel_count(), 0U);
    f.add_channel("a");
    EXPECT_EQ(f.channel_count(), 1U);
    const column_view c = f.column(0);
    EXPECT_TRUE(c.empty());
    EXPECT_DOUBLE_EQ(c.duration(), 0.0);
    EXPECT_THROW(static_cast<void>(c.value_at(0.0)), precondition_error);
    EXPECT_THROW(static_cast<void>(c.min()), precondition_error);
    EXPECT_THROW(static_cast<void>(c.front()), precondition_error);
}

TEST(Frame, ChannelRegistrationRules) {
    frame f;
    f.add_channel("a");
    EXPECT_THROW(f.add_channel("a"), precondition_error);   // duplicate
    EXPECT_THROW(f.add_channel(""), precondition_error);    // empty name
    const double v = 1.0;
    f.append(0.0, &v, 1);
    EXPECT_THROW(f.add_channel("b"), precondition_error);   // after rows exist
    EXPECT_TRUE(f.has_channel("a"));
    EXPECT_FALSE(f.has_channel("b"));
    EXPECT_EQ(f.channel_index("a"), 0U);
    EXPECT_THROW(static_cast<void>(f.channel_index("b")), precondition_error);
    EXPECT_EQ(f.channel_name(0), "a");
}

TEST(Frame, AppendRejectsNonMonotonicTime) {
    frame f;
    f.add_channel("a");
    const double v = 1.0;
    f.append(1.0, &v, 1);
    EXPECT_THROW(f.append(0.5, &v, 1), precondition_error);
    EXPECT_NO_THROW(f.append(1.0, &v, 1));  // equal stamps are legal
}

TEST(Frame, AppendRejectsNonFinite) {
    frame f;
    f.add_channel("a");
    f.add_channel("b");
    const double nan_row[2] = {1.0, std::nan("")};
    EXPECT_THROW(f.append(0.0, nan_row, 2), precondition_error);
    const double inf_row[2] = {INFINITY, 1.0};
    EXPECT_THROW(f.append(0.0, inf_row, 2), precondition_error);
    const double ok_row[2] = {1.0, 2.0};
    EXPECT_THROW(f.append(std::nan(""), ok_row, 2), precondition_error);
    EXPECT_THROW(f.append(0.0, ok_row, 1), precondition_error);  // wrong count
    EXPECT_TRUE(f.empty());  // rejected rows leave no partial data
}

TEST(Frame, InterpolationClampsAtEdges) {
    const frame f = make_ramp_frame();
    const column_view ramp = f.column("ramp");
    EXPECT_DOUBLE_EQ(ramp.value_at(-5.0), 0.0);   // clamp to first sample
    EXPECT_DOUBLE_EQ(ramp.value_at(100.0), 20.0); // clamp to last sample
    EXPECT_DOUBLE_EQ(ramp.value_at(2.5), 5.0);
    EXPECT_DOUBLE_EQ(ramp.value_at(7.25), 14.5);
}

TEST(Frame, WindowedStatsMatchTimeSeriesOnIdenticalData) {
    // The contract behind the columnar swap: every statistic computed
    // through a view equals — bitwise — the same data in a time_series.
    const frame f = make_ramp_frame();
    const column_view ramp = f.column("ramp");
    time_series ts;
    for (std::size_t i = 0; i < f.size(); ++i) {
        ts.push_back(f.time()[i], f.values(0)[i]);
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
    const frame f = make_ramp_frame();
    const column_view ramp = f.column("ramp");
    EXPECT_THROW(static_cast<void>(ramp.min(5.0, 3.0)), precondition_error);
    EXPECT_THROW(static_cast<void>(ramp.max(5.0, 3.0)), precondition_error);
    EXPECT_THROW(static_cast<void>(ramp.integrate(5.0, 3.0)), precondition_error);
    EXPECT_THROW(static_cast<void>(ramp.resample(0.0)), precondition_error);
    EXPECT_THROW(static_cast<void>(ramp.at(99)), precondition_error);
}

TEST(Frame, ClearKeepsChannels) {
    frame f = make_ramp_frame();
    f.clear();
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.channel_count(), 2U);
    const double row[2] = {1.0, 2.0};
    f.append(0.0, row, 2);  // fresh run restarts at t = 0
    EXPECT_EQ(f.size(), 1U);
}

TEST(Frame, MaterializationRoundTrips) {
    const frame f = make_ramp_frame();
    const time_series ts = f.column("ramp").to_series();
    ASSERT_EQ(ts.size(), f.size());
    const auto samples = f.column("ramp").samples();
    for (std::size_t i = 0; i < ts.size(); ++i) {
        EXPECT_EQ(ts.at(i), samples[i]);
    }
    const time_series grid = f.column("ramp").resample(0.5);
    EXPECT_EQ(grid.size(), 21U);
    EXPECT_DOUBLE_EQ(grid.at(1).v, 1.0);
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
            row.values[c] = 0.1 * static_cast<double>(i) + 1e-3 * static_cast<double>(c) + 1.0 / 3.0;
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
