#include "util/rng.hpp"

#include <cmath>

#include "util/error.hpp"

namespace ltsc::util {

pcg32::pcg32(std::uint64_t seed, std::uint64_t seq) {
    state_ = 0U;
    inc_ = (seq << 1U) | 1U;
    next_u32();
    state_ += seed;
    next_u32();
}

std::uint32_t pcg32::next_u32() {
    const std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    const auto xorshifted = static_cast<std::uint32_t>(((old >> 18U) ^ old) >> 27U);
    const auto rot = static_cast<std::uint32_t>(old >> 59U);
    return (xorshifted >> rot) | (xorshifted << ((32U - rot) & 31U));
}

double pcg32::next_double() {
    return static_cast<double>(next_u32()) * (1.0 / 4294967296.0);
}

double pcg32::uniform(double lo, double hi) {
    ensure(lo <= hi, "pcg32::uniform: inverted range");
    return lo + (hi - lo) * next_double();
}

double pcg32::normal() {
    if (has_cached_normal_) {
        has_cached_normal_ = false;
        return cached_normal_;
    }
    // Box-Muller transform; reject u1 == 0 to avoid log(0).
    double u1 = 0.0;
    do {
        u1 = next_double();
    } while (u1 <= 0.0);
    const double u2 = next_double();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * 3.14159265358979323846 * u2;
    cached_normal_ = r * std::sin(theta);
    has_cached_normal_ = true;
    return r * std::cos(theta);
}

void pcg32::skip_normals(std::size_t n) {
    if (n > 0 && has_cached_normal_) {
        has_cached_normal_ = false;
        --n;
    }
    for (; n >= 2; n -= 2) {
        // normal() redraws u1 while next_double() is 0, i.e. while the
        // draw is 0; u2 follows.
        while (next_u32() == 0U) {
        }
        static_cast<void>(next_u32());
    }
    if (n == 1) {
        static_cast<void>(normal());
    }
}

double pcg32::normal(double mean, double stddev) {
    ensure(stddev >= 0.0, "pcg32::normal: negative stddev");
    return mean + stddev * normal();
}

double pcg32::exponential(double rate) {
    ensure(rate > 0.0, "pcg32::exponential: non-positive rate");
    double u = 0.0;
    do {
        u = next_double();
    } while (u <= 0.0);
    return -std::log(u) / rate;
}

std::uint32_t pcg32::poisson(double mean) {
    ensure(mean >= 0.0, "pcg32::poisson: negative mean");
    if (mean == 0.0) {
        return 0;
    }
    if (mean < 30.0) {
        // Knuth: multiply uniforms until the product drops below e^-mean.
        const double limit = std::exp(-mean);
        double prod = 1.0;
        std::uint32_t k = 0;
        do {
            ++k;
            prod *= next_double();
        } while (prod > limit);
        return k - 1;
    }
    // Normal approximation with continuity correction for large means.
    const double x = normal(mean, std::sqrt(mean));
    return x <= 0.0 ? 0U : static_cast<std::uint32_t>(x + 0.5);
}

}  // namespace ltsc::util
