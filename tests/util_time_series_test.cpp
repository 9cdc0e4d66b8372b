// Unit tests for the trace container (util/time_series.hpp).
#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"
#include "util/time_series.hpp"

namespace {

using ltsc::util::precondition_error;
using ltsc::util::time_series;

time_series make_ramp() {
    time_series ts;
    for (int i = 0; i <= 10; ++i) {
        ts.push_back(static_cast<double>(i), static_cast<double>(2 * i));
    }
    return ts;
}

TEST(TimeSeries, EmptyProperties) {
    time_series ts;
    EXPECT_TRUE(ts.empty());
    EXPECT_EQ(ts.size(), 0U);
    EXPECT_DOUBLE_EQ(ts.duration(), 0.0);
}

TEST(TimeSeries, PushBackRejectsNonMonotonicTime) {
    time_series ts;
    ts.push_back(1.0, 5.0);
    EXPECT_THROW(ts.push_back(0.5, 6.0), precondition_error);
}

TEST(TimeSeries, PushBackAcceptsEqualTimeStamps) {
    time_series ts;
    ts.push_back(1.0, 5.0);
    EXPECT_NO_THROW(ts.push_back(1.0, 6.0));
}

TEST(TimeSeries, PushBackRejectsNonFinite) {
    time_series ts;
    EXPECT_THROW(ts.push_back(0.0, std::nan("")), precondition_error);
    EXPECT_THROW(ts.push_back(std::nan(""), 0.0), precondition_error);
    EXPECT_THROW(ts.push_back(0.0, INFINITY), precondition_error);
}

TEST(TimeSeries, AtBoundsChecked) {
    const time_series ts = make_ramp();
    EXPECT_DOUBLE_EQ(ts.at(3).v, 6.0);
    EXPECT_THROW(static_cast<void>(ts.at(11)), precondition_error);
}

TEST(TimeSeries, ValueAtInterpolatesLinearly) {
    const time_series ts = make_ramp();
    EXPECT_DOUBLE_EQ(ts.value_at(2.5), 5.0);
    EXPECT_DOUBLE_EQ(ts.value_at(7.25), 14.5);
}

TEST(TimeSeries, ValueAtClampsOutsideRange) {
    const time_series ts = make_ramp();
    EXPECT_DOUBLE_EQ(ts.value_at(-5.0), 0.0);
    EXPECT_DOUBLE_EQ(ts.value_at(100.0), 20.0);
}

TEST(TimeSeries, ValueAtThrowsOnEmpty) {
    time_series ts;
    EXPECT_THROW(static_cast<void>(ts.value_at(0.0)), precondition_error);
}

TEST(TimeSeries, MinMaxOverWholeTrace) {
    const time_series ts = make_ramp();
    EXPECT_DOUBLE_EQ(ts.min(), 0.0);
    EXPECT_DOUBLE_EQ(ts.max(), 20.0);
}

TEST(TimeSeries, MinMaxOverWindow) {
    const time_series ts = make_ramp();
    EXPECT_DOUBLE_EQ(ts.min(3.0, 7.0), 6.0);
    EXPECT_DOUBLE_EQ(ts.max(3.0, 7.0), 14.0);
}

TEST(TimeSeries, WindowBoundariesInterpolate) {
    const time_series ts = make_ramp();
    // Window end points fall between samples; the interpolated boundary
    // values participate in the extremes.
    EXPECT_DOUBLE_EQ(ts.max(0.0, 4.5), 9.0);
    EXPECT_DOUBLE_EQ(ts.min(4.5, 10.0), 9.0);
}

TEST(TimeSeries, InvertedWindowThrows) {
    const time_series ts = make_ramp();
    EXPECT_THROW(static_cast<void>(ts.min(5.0, 3.0)), precondition_error);
    EXPECT_THROW(static_cast<void>(ts.max(5.0, 3.0)), precondition_error);
    EXPECT_THROW(static_cast<void>(ts.integrate(5.0, 3.0)), precondition_error);
}

TEST(TimeSeries, IntegrateLinearRamp) {
    const time_series ts = make_ramp();
    // integral of 2t over [0, 10] = 100.
    EXPECT_NEAR(ts.integrate(), 100.0, 1e-9);
}

TEST(TimeSeries, IntegratePartialWindow) {
    const time_series ts = make_ramp();
    // integral of 2t over [2, 5] = 25 - 4 = 21.
    EXPECT_NEAR(ts.integrate(2.0, 5.0), 21.0, 1e-9);
}

TEST(TimeSeries, IntegrateSubSampleWindow) {
    const time_series ts = make_ramp();
    // integral of 2t over [2.25, 2.75] = 2.75^2 - 2.25^2 = 2.5.
    EXPECT_NEAR(ts.integrate(2.25, 2.75), 2.5, 1e-9);
}

TEST(TimeSeries, IntegrateClampsToTrace) {
    const time_series ts = make_ramp();
    EXPECT_NEAR(ts.integrate(-100.0, 100.0), 100.0, 1e-9);
}

TEST(TimeSeries, MeanIsTimeWeighted) {
    time_series ts;
    // 0 for 9 seconds, then 10 for 1 second: plain sample mean would be 5,
    // the time-weighted mean is ~0.5.
    ts.push_back(0.0, 0.0);
    ts.push_back(9.0, 0.0);
    ts.push_back(9.0, 10.0);
    ts.push_back(10.0, 10.0);
    EXPECT_NEAR(ts.mean(), 1.0, 1e-9);  // trapezoid over the step
}

TEST(TimeSeries, MeanOfConstantSeries) {
    time_series ts;
    ts.push_back(0.0, 7.0);
    ts.push_back(5.0, 7.0);
    EXPECT_DOUBLE_EQ(ts.mean(), 7.0);
}

TEST(TimeSeries, IndexAtOrBefore) {
    const time_series ts = make_ramp();
    EXPECT_EQ(ts.index_at_or_before(3.7), 3U);
    EXPECT_EQ(ts.index_at_or_before(-1.0), 0U);
    EXPECT_EQ(ts.index_at_or_before(99.0), 10U);
}

TEST(TimeSeries, DurationSpansFirstToLast) {
    time_series ts;
    ts.push_back(2.0, 1.0);
    ts.push_back(12.0, 1.0);
    EXPECT_DOUBLE_EQ(ts.duration(), 10.0);
}

}  // namespace
