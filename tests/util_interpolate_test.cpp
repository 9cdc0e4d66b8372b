// Unit tests for linear interpolation.
#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/interpolate.hpp"

namespace {

using ltsc::util::linear_interpolator;
using ltsc::util::precondition_error;

TEST(LinearInterp, ExactAtKnots) {
    const linear_interpolator f({0.0, 1.0, 2.0}, {10.0, 20.0, 40.0});
    EXPECT_DOUBLE_EQ(f(0.0), 10.0);
    EXPECT_DOUBLE_EQ(f(1.0), 20.0);
    EXPECT_DOUBLE_EQ(f(2.0), 40.0);
}

TEST(LinearInterp, MidpointValues) {
    const linear_interpolator f({0.0, 1.0, 2.0}, {10.0, 20.0, 40.0});
    EXPECT_DOUBLE_EQ(f(0.5), 15.0);
    EXPECT_DOUBLE_EQ(f(1.5), 30.0);
}

TEST(LinearInterp, ClampsOutsideRange) {
    const linear_interpolator f({0.0, 1.0}, {10.0, 20.0});
    EXPECT_DOUBLE_EQ(f(-5.0), 10.0);
    EXPECT_DOUBLE_EQ(f(5.0), 20.0);
}

TEST(LinearInterp, SingleKnotIsConstant) {
    const linear_interpolator f({1.0}, {42.0});
    EXPECT_DOUBLE_EQ(f(0.0), 42.0);
    EXPECT_DOUBLE_EQ(f(99.0), 42.0);
}

TEST(LinearInterp, RejectsUnsortedKnots) {
    EXPECT_THROW(linear_interpolator({1.0, 0.5}, {1.0, 2.0}), precondition_error);
    EXPECT_THROW(linear_interpolator({1.0, 1.0}, {1.0, 2.0}), precondition_error);
}

TEST(LinearInterp, RejectsSizeMismatch) {
    EXPECT_THROW(linear_interpolator({1.0, 2.0}, {1.0}), precondition_error);
}

}  // namespace
