// Unit tests for the CSTH-style telemetry harness.
#include <gtest/gtest.h>

#include "telemetry/harness.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

TEST(Harness, PollsAtConfiguredCadence) {
    telemetry::harness h(10_s, {"c"});
    int polls = 0;
    const auto poll_due = [&](util::seconds_t now) {
        if (!h.due(now)) {
            return false;
        }
        const double v = static_cast<double>(++polls);
        h.record(now, &v, 1);
        return true;
    };
    EXPECT_TRUE(poll_due(0_s));
    EXPECT_FALSE(poll_due(5_s));
    EXPECT_FALSE(poll_due(9.5_s));
    EXPECT_TRUE(poll_due(10_s));
    EXPECT_EQ(polls, 2);
}

TEST(Harness, ResetClearsEverything) {
    telemetry::harness h(10_s, {"a"});
    const double v = 1.0;
    h.record(0_s, &v, 1);
    h.record(10_s, &v, 1);
    h.reset();
    EXPECT_TRUE(h.history().empty());
    EXPECT_FALSE(h.ever_polled());
    // After reset, polling from t = 0 again is legal.
    EXPECT_TRUE(h.due(0_s));
    h.record(0_s, &v, 1);
    EXPECT_EQ(h.history().column("a").size(), 1U);
}

}  // namespace
