// Unit tests for the CSTH-style telemetry harness.
#include <gtest/gtest.h>

#include <sstream>

#include "telemetry/channel.hpp"
#include "telemetry/harness.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

// --- sample ring -----------------------------------------------------------

TEST(SampleRing, HoldsUpToCapacity) {
    telemetry::sample_ring ring(3);
    ring.push(0.0, 1.0);
    ring.push(1.0, 2.0);
    EXPECT_EQ(ring.size(), 2U);
    ring.push(2.0, 3.0);
    ring.push(3.0, 4.0);  // evicts the oldest
    EXPECT_EQ(ring.size(), 3U);
    EXPECT_DOUBLE_EQ(ring.recent(0).v, 4.0);
    EXPECT_DOUBLE_EQ(ring.recent(2).v, 2.0);
}

TEST(SampleRing, SnapshotOldestToNewest) {
    telemetry::sample_ring ring(4);
    for (int i = 0; i < 6; ++i) {
        ring.push(i, i * 10.0);
    }
    const auto snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 4U);
    EXPECT_DOUBLE_EQ(snap.front().v, 20.0);
    EXPECT_DOUBLE_EQ(snap.back().v, 50.0);
}

TEST(SampleRing, RecentOutOfRangeThrows) {
    telemetry::sample_ring ring(2);
    ring.push(0.0, 1.0);
    EXPECT_THROW(static_cast<void>(ring.recent(1)), util::precondition_error);
}

TEST(SampleRing, ClearEmpties) {
    telemetry::sample_ring ring(2);
    ring.push(0.0, 1.0);
    ring.clear();
    EXPECT_TRUE(ring.empty());
}

// --- channel -----------------------------------------------------------------

TEST(Channel, PollsSourceAndRecords) {
    // Histories live in the owning harness's shared columnar frame; the
    // channel exposes its column as a view.
    telemetry::harness h(10_s);
    double value = 42.0;
    h.add_channel("sig", "W", [&value] { return value; });
    h.poll_now(0_s);
    value = 43.0;
    h.poll_now(10_s);
    const telemetry::channel& ch = h.by_name("sig");
    ASSERT_TRUE(ch.latest().has_value());
    EXPECT_DOUBLE_EQ(ch.latest()->v, 43.0);
    EXPECT_EQ(ch.history().size(), 2U);
    EXPECT_DOUBLE_EQ(ch.history().at(0).v, 42.0);
    EXPECT_DOUBLE_EQ(ch.history().at(1).t, 10.0);
}

TEST(Channel, StandaloneChannelRecordsItsOwnHistory) {
    double value = 7.0;
    telemetry::channel ch("sig", "W", [&value] { return value; });
    EXPECT_DOUBLE_EQ(ch.poll(0.0), 7.0);
    value = 8.0;
    ch.poll(10.0);
    ASSERT_TRUE(ch.latest().has_value());
    EXPECT_EQ(ch.ring().size(), 2U);
    // No harness: the channel archives into its own columns.
    ASSERT_EQ(ch.history().size(), 2U);
    EXPECT_DOUBLE_EQ(ch.history().at(1).v, 8.0);
    EXPECT_THROW(ch.poll(5.0), util::precondition_error);  // time went backwards
    ch.clear();
    EXPECT_TRUE(ch.history().empty());
    telemetry::channel no_hist("sig", "W", [] { return 1.0; }, 8, false);
    no_hist.poll(0.0);
    EXPECT_TRUE(no_hist.history().empty());
}

TEST(Channel, HistoryCanBeDisabled) {
    telemetry::harness h;
    h.add_channel("sig", "W", [] { return 1.0; }, 8, false);
    h.poll_now(0_s);
    const telemetry::channel& ch = h.by_name("sig");
    EXPECT_TRUE(ch.history().empty());
    EXPECT_EQ(ch.ring().size(), 1U);
    EXPECT_EQ(h.history().channel_count(), 0U);
}

TEST(Channel, NamedSeriesExport) {
    telemetry::harness h;
    h.add_channel("cpu0_temp", "degC", [] { return 55.0; });
    h.poll_now(0_s);
    const auto ns = h.by_name("cpu0_temp").to_named_series();
    EXPECT_EQ(ns.name, "cpu0_temp");
    EXPECT_EQ(ns.unit, "degC");
    EXPECT_EQ(ns.data.size(), 1U);
}

TEST(Channel, NullSourceThrows) {
    EXPECT_THROW(telemetry::channel("x", "W", nullptr), util::precondition_error);
}

// --- harness -------------------------------------------------------------------

TEST(Harness, PollsAtConfiguredCadence) {
    telemetry::harness h(10_s);
    int polls = 0;
    h.add_channel("c", "u", [&polls] { return static_cast<double>(++polls); });
    EXPECT_TRUE(h.poll_due(0_s));
    EXPECT_FALSE(h.poll_due(5_s));
    EXPECT_FALSE(h.poll_due(9.5_s));
    EXPECT_TRUE(h.poll_due(10_s));
    EXPECT_EQ(polls, 2);
}

TEST(Harness, LatestByName) {
    telemetry::harness h;
    h.add_channel("power", "W", [] { return 500.0; });
    h.poll_now(0_s);
    EXPECT_DOUBLE_EQ(h.latest("power"), 500.0);
    EXPECT_THROW(static_cast<void>(h.latest("missing")), util::precondition_error);
}

TEST(Harness, DuplicateNameRejected) {
    telemetry::harness h;
    h.add_channel("a", "u", [] { return 0.0; });
    EXPECT_THROW(h.add_channel("a", "u", [] { return 0.0; }), util::precondition_error);
}

TEST(Harness, NeverPolledLatestThrows) {
    telemetry::harness h;
    h.add_channel("a", "u", [] { return 0.0; });
    EXPECT_THROW(static_cast<void>(h.latest("a")), util::precondition_error);
}

TEST(Harness, ResetClearsEverything) {
    telemetry::harness h(10_s);
    h.add_channel("a", "u", [] { return 1.0; });
    h.poll_now(0_s);
    h.poll_now(10_s);
    h.reset();
    EXPECT_FALSE(h.by_name("a").latest().has_value());
    // After reset, polling from t = 0 again is legal.
    EXPECT_TRUE(h.poll_due(0_s));
}

TEST(Harness, CsvExportParses) {
    telemetry::harness h;
    h.add_channel("t1", "degC", [] { return 60.0; });
    h.add_channel("p1", "W", [] { return 400.0; });
    h.poll_now(0_s);
    h.poll_now(10_s);
    std::ostringstream os;
    h.write_csv(os);
    const auto doc = util::parse_csv(os.str());
    EXPECT_EQ(doc.rows.size(), 4U);  // 2 channels x 2 polls
}

TEST(Harness, ByIndexBoundsChecked) {
    telemetry::harness h;
    h.add_channel("a", "u", [] { return 0.0; });
    EXPECT_EQ(h.by_index(0).name(), "a");
    EXPECT_THROW(static_cast<void>(h.by_index(1)), util::precondition_error);
}

}  // namespace
