// Unit tests for the deterministic RNG and its distributions.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using ltsc::util::pcg32;
using ltsc::util::precondition_error;

TEST(Rng, DeterministicForSameSeed) {
    pcg32 a(42, 7);
    pcg32 b(42, 7);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next_u32(), b.next_u32());
    }
}

TEST(Rng, SkipNormalsMatchesDrawing) {
    // Skipping n normals leaves the generator exactly where drawing them
    // does, from a start with and without a cached half: the next
    // normals (cached half included) and raw draws agree bitwise.
    for (const bool cached : {false, true}) {
        for (std::size_t n = 0; n <= 9; ++n) {
            SCOPED_TRACE("cached " + std::to_string(cached) + " n " + std::to_string(n));
            pcg32 drawn(1234, 5);
            if (cached) {
                static_cast<void>(drawn.normal());
            }
            pcg32 skipped = drawn;
            for (std::size_t i = 0; i < n; ++i) {
                static_cast<void>(drawn.normal());
            }
            skipped.skip_normals(n);
            for (int i = 0; i < 8; ++i) {
                EXPECT_EQ(skipped.normal(), drawn.normal());
            }
            for (int i = 0; i < 8; ++i) {
                EXPECT_EQ(skipped.next_u32(), drawn.next_u32());
            }
        }
    }
}

TEST(Rng, DifferentSeedsDiverge) {
    pcg32 a(42, 7);
    pcg32 b(43, 7);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next_u32() == b.next_u32()) {
            ++same;
        }
    }
    EXPECT_LT(same, 5);
}

TEST(Rng, DifferentStreamsDiverge) {
    pcg32 a(42, 1);
    pcg32 b(42, 2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next_u32() == b.next_u32()) {
            ++same;
        }
    }
    EXPECT_LT(same, 5);
}

TEST(Rng, ReferenceStreamIsStable) {
    // Regression pin: the PCG32 reference stream for the default seed must
    // never change, or every recorded benchmark trace changes with it.
    pcg32 rng;
    const std::uint32_t first = rng.next_u32();
    pcg32 rng2;
    EXPECT_EQ(rng2.next_u32(), first);
}

TEST(Rng, NextDoubleInUnitInterval) {
    pcg32 rng(1);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.next_double();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, UniformRange) {
    pcg32 rng(2);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(-3.0, 5.0);
        EXPECT_GE(v, -3.0);
        EXPECT_LT(v, 5.0);
    }
}

TEST(Rng, UniformInvertedRangeThrows) {
    pcg32 rng(3);
    EXPECT_THROW(rng.uniform(5.0, -3.0), precondition_error);
}

TEST(Rng, UniformMeanConverges) {
    pcg32 rng(4);
    double acc = 0.0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
        acc += rng.next_double();
    }
    EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, NormalMomentsConverge) {
    pcg32 rng(5);
    std::vector<double> xs;
    xs.reserve(20000);
    for (int i = 0; i < 20000; ++i) {
        xs.push_back(rng.normal(10.0, 2.0));
    }
    EXPECT_NEAR(ltsc::util::mean(xs), 10.0, 0.1);
    EXPECT_NEAR(ltsc::util::stddev(xs), 2.0, 0.1);
}

TEST(Rng, NormalNegativeStddevThrows) {
    pcg32 rng(6);
    EXPECT_THROW(rng.normal(0.0, -1.0), precondition_error);
}

TEST(Rng, ExponentialMeanConverges) {
    pcg32 rng(7);
    std::vector<double> xs;
    xs.reserve(20000);
    for (int i = 0; i < 20000; ++i) {
        xs.push_back(rng.exponential(0.5));
    }
    EXPECT_NEAR(ltsc::util::mean(xs), 2.0, 0.1);
}

TEST(Rng, ExponentialIsPositive) {
    pcg32 rng(8);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_GT(rng.exponential(3.0), 0.0);
    }
}

TEST(Rng, ExponentialNonPositiveRateThrows) {
    pcg32 rng(9);
    EXPECT_THROW(rng.exponential(0.0), precondition_error);
}

TEST(Rng, PoissonSmallMean) {
    pcg32 rng(10);
    std::vector<double> xs;
    xs.reserve(20000);
    for (int i = 0; i < 20000; ++i) {
        xs.push_back(static_cast<double>(rng.poisson(3.5)));
    }
    EXPECT_NEAR(ltsc::util::mean(xs), 3.5, 0.1);
    // Poisson variance equals the mean.
    EXPECT_NEAR(ltsc::util::variance(xs), 3.5, 0.2);
}

TEST(Rng, PoissonLargeMeanUsesNormalApprox) {
    pcg32 rng(11);
    std::vector<double> xs;
    xs.reserve(20000);
    for (int i = 0; i < 20000; ++i) {
        xs.push_back(static_cast<double>(rng.poisson(100.0)));
    }
    EXPECT_NEAR(ltsc::util::mean(xs), 100.0, 1.0);
}

TEST(Rng, PoissonZeroMeanIsZero) {
    pcg32 rng(12);
    EXPECT_EQ(rng.poisson(0.0), 0U);
}

TEST(Rng, PoissonNegativeMeanThrows) {
    pcg32 rng(13);
    EXPECT_THROW(rng.poisson(-1.0), precondition_error);
}

}  // namespace
