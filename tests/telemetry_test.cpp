// Unit tests for the CSTH-style telemetry harness.
#include <gtest/gtest.h>

#include "telemetry/harness.hpp"
#include "util/error.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

// --- channels ------------------------------------------------------------------

TEST(Channel, PollsSourceAndRecords) {
    // Histories live in the harness's shared columnar frame, one column
    // per recorded channel, looked up by the channel's name.
    telemetry::harness h(10_s);
    double value = 42.0;
    h.add_channel("sig", [&value] { return value; });
    h.poll_now(0_s);
    value = 43.0;
    h.poll_now(10_s);
    const util::column_view sig = h.history().column("sig");
    ASSERT_EQ(sig.size(), 2U);
    EXPECT_DOUBLE_EQ(sig.at(0).v, 42.0);
    EXPECT_DOUBLE_EQ(sig.back().v, 43.0);
    EXPECT_DOUBLE_EQ(sig.at(1).t, 10.0);
}

TEST(Channel, HistoryCanBeDisabled) {
    telemetry::harness h;
    int reads = 0;
    const auto source = [&reads] { return static_cast<double>(++reads); };
    h.add_channel("sig", source, /*record_history=*/false);
    h.poll_now(0_s);
    h.poll_now(10_s);
    // An unrecorded source still runs at every poll (it may share an RNG
    // stream with recorded ones) but owns no history column.
    EXPECT_EQ(reads, 2);
    EXPECT_EQ(h.channel_count(), 1U);
    EXPECT_EQ(h.history().channel_count(), 0U);
    EXPECT_FALSE(h.history().has_channel("sig"));
}

TEST(Channel, NullSourceThrows) {
    telemetry::harness h;
    EXPECT_THROW(h.add_channel("x", nullptr), util::precondition_error);
    EXPECT_EQ(h.channel_count(), 0U);
}

// --- harness -------------------------------------------------------------------

TEST(Harness, PollsAtConfiguredCadence) {
    telemetry::harness h(10_s);
    int polls = 0;
    h.add_channel("c", [&polls] { return static_cast<double>(++polls); });
    EXPECT_TRUE(h.poll_due(0_s));
    EXPECT_FALSE(h.poll_due(5_s));
    EXPECT_FALSE(h.poll_due(9.5_s));
    EXPECT_TRUE(h.poll_due(10_s));
    EXPECT_EQ(polls, 2);
}

TEST(Harness, DuplicateNameRejected) {
    telemetry::harness h;
    h.add_channel("a", [] { return 0.0; });
    EXPECT_THROW(h.add_channel("a", [] { return 0.0; }), util::precondition_error);
}

TEST(Harness, ResetClearsEverything) {
    telemetry::harness h(10_s);
    h.add_channel("a", [] { return 1.0; });
    h.poll_now(0_s);
    h.poll_now(10_s);
    h.set_poll_suppressed(true);
    h.reset();
    EXPECT_TRUE(h.history().empty());
    EXPECT_FALSE(h.ever_polled());
    // After reset, polling from t = 0 again is legal (and no longer
    // suppressed).
    EXPECT_TRUE(h.poll_due(0_s));
    EXPECT_EQ(h.history().column("a").size(), 1U);
}

}  // namespace
