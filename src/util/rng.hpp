// Deterministic pseudo-random number generation.
//
// Every stochastic element of the reproduction (Test-4 Poisson arrivals,
// sensor noise, random-walk profiles) draws from a seeded PCG32 so that
// benchmark tables are bit-reproducible across runs and platforms —
// std::mt19937 distributions are not portable across standard libraries,
// so the distributions are implemented here too.  A caller that must
// keep a stream aligned without using some of its normal deviates skips
// them (`skip_normals`), which advances the stream bit for bit as the
// draws would but leaves out their transcendental math.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ltsc::util {

/// PCG32 (O'Neill, pcg-random.org): small, fast, statistically excellent,
/// and fully specified so streams are identical on every platform.
class pcg32 {
public:
    /// Seeds the generator; `seq` selects an independent stream.
    explicit pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                   std::uint64_t seq = 0xda3e39cb94b95bdbULL);

    /// Next uniformly distributed 32-bit value.
    std::uint32_t next_u32();

    /// Uniform double in [0, 1).
    double next_double();

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi);

    /// Standard normal deviate (Box-Muller, cached pair).
    double normal();

    /// Advances the generator exactly as `n` calls of normal() would:
    /// the same next_u32 values are consumed (a zero u1 redrawn) and the
    /// cached half is left as they leave it.  Only a trailing odd
    /// half-pair is transformed, since its other half stays cached.
    void skip_normals(std::size_t n);

    /// Normal deviate with the given mean and standard deviation.
    double normal(double mean, double stddev);

    /// Exponentially distributed deviate with the given rate (1/mean).
    double exponential(double rate);

    /// Poisson-distributed count with the given mean (Knuth's method below
    /// mean 30, normal approximation above).
    std::uint32_t poisson(double mean);

private:
    std::uint64_t state_;
    std::uint64_t inc_;
    bool has_cached_normal_ = false;
    double cached_normal_ = 0.0;
};

}  // namespace ltsc::util
