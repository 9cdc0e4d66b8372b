// Unit tests of the benchmark's own statistics: the tail-percentile rule,
// span self-time, and the failed-check tally.
#include <gtest/gtest.h>

#include <vector>

#include "metric_math.hpp"

namespace {

using perfbench::check_tally;
using perfbench::interval;
using perfbench::tail_percentile;

std::vector<double> one_to(std::size_t n) {
    std::vector<double> xs;
    for (std::size_t i = n; i >= 1; --i) {  // descending: the rule must sort
        xs.push_back(static_cast<double>(i));
    }
    return xs;
}

TEST(TailPercentile, TargetKeptWhenTenSamplesLieBeyondIt) {
    const auto p = tail_percentile(one_to(1000), 0.99);
    EXPECT_DOUBLE_EQ(p.value, 990.0);  // 10 samples (991..1000) beyond
    EXPECT_DOUBLE_EQ(p.quantile, 0.99);
    EXPECT_EQ(p.samples, 1000u);
}

TEST(TailPercentile, CappedToLeaveTenSamplesBeyond) {
    const auto p = tail_percentile(one_to(100), 0.99);
    EXPECT_DOUBLE_EQ(p.value, 90.0);  // p90: exactly 10 beyond
    EXPECT_DOUBLE_EQ(p.quantile, 0.90);
    EXPECT_EQ(p.samples, 100u);
}

TEST(TailPercentile, NeverBelowTheMedianAndEmptyIsZero) {
    const auto small = tail_percentile(one_to(5), 0.99);
    EXPECT_DOUBLE_EQ(small.value, 3.0);
    EXPECT_DOUBLE_EQ(small.quantile, 0.6);
    const auto empty = tail_percentile({}, 0.99);
    EXPECT_EQ(empty.samples, 0u);
    EXPECT_DOUBLE_EQ(empty.value, 0.0);
}

TEST(TailPercentile, MedianIsNearestRank) {
    EXPECT_DOUBLE_EQ(perfbench::median(one_to(9)), 5.0);
    EXPECT_DOUBLE_EQ(perfbench::median(one_to(10)), 5.0);
    EXPECT_DOUBLE_EQ(tail_percentile(one_to(10000), 0.5).value, 5000.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
    const interval parent{0.0, 10.0};
    // Two overlapping children (1..4 and 3..6 cover 5 s), one disjoint
    // (8..9), one spilling past the parent's end (9.5..12 clipped to 0.5).
    const std::vector<interval> kids = {{1.0, 4.0}, {3.0, 6.0}, {8.0, 9.0}, {9.5, 12.0}};
    EXPECT_DOUBLE_EQ(perfbench::covered_length(parent, kids), 6.5);
    EXPECT_DOUBLE_EQ(perfbench::self_time(parent, kids), 3.5);
    EXPECT_DOUBLE_EQ(perfbench::self_time(parent, {}), 10.0);
    EXPECT_DOUBLE_EQ(perfbench::self_time(parent, {{-5.0, 20.0}}), 0.0);
}

TEST(CheckTally, CountsAttemptsAndFailures) {
    check_tally t;
    EXPECT_DOUBLE_EQ(t.failed_ratio(), 0.0);
    EXPECT_TRUE(t.check(true));
    EXPECT_FALSE(t.check(false));
    t.check(true);
    t.check(true);
    EXPECT_EQ(t.attempted, 4u);
    EXPECT_EQ(t.failed, 1u);
    EXPECT_DOUBLE_EQ(t.failed_ratio(), 0.25);
}

TEST(ChunkStats, ReportsTheBestQuartileOfChunks) {
    EXPECT_DOUBLE_EQ(perfbench::quantile(one_to(8), 0.75), 6.0);
    EXPECT_DOUBLE_EQ(perfbench::quantile(one_to(8), 0.25), 2.0);
    EXPECT_DOUBLE_EQ(perfbench::quantile({}, 0.25), 0.0);
    perfbench::chunk_stats c;
    // Four chunks: rates 10, 20, 30, 40 per second; latency medians 4, 3, 2, 1.
    for (int i = 1; i <= 4; ++i) {
        c.add(10.0 * i, 1.0, std::vector<double>(20, 5.0 - i));
    }
    EXPECT_DOUBLE_EQ(c.best_rate(), 30.0);
    EXPECT_DOUBLE_EQ(c.best_p50(), 1.0);
    EXPECT_EQ(c.pooled.size(), 80u);
}

}  // namespace
