#include "workload/loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace ltsc::workload {

loadgen::loadgen(utilization_profile profile, const loadgen_config& config)
    : profile_(std::move(profile)), config_(config) {
    util::ensure(config.pwm_period.value() > 0.0, "loadgen: non-positive PWM period");
    util::ensure(config.stress_intensity > 0.0 && config.stress_intensity <= 1.0,
                 "loadgen: stress intensity out of (0, 1]");
}

loadgen::loadgen(const loadgen& other) : profile_(other.profile_), config_(other.config_) {}

loadgen::loadgen(loadgen&& other) noexcept
    : profile_(std::move(other.profile_)), config_(other.config_) {}

loadgen& loadgen::operator=(const loadgen& other) {
    if (this != &other) {
        profile_ = other.profile_;
        config_ = other.config_;
        const std::lock_guard<std::mutex> lock(window_mutex_);
        window_valid_ = false;
    }
    return *this;
}

loadgen& loadgen::operator=(loadgen&& other) noexcept {
    if (this != &other) {
        profile_ = std::move(other.profile_);
        config_ = other.config_;
        const std::lock_guard<std::mutex> lock(window_mutex_);
        window_valid_ = false;
    }
    return *this;
}

double loadgen::target_utilization(util::seconds_t t) const {
    return profile_.utilization_at(t);
}

double loadgen::instantaneous_utilization(util::seconds_t t) const {
    const double target = profile_.utilization_at(t);
    const double peak = 100.0 * config_.stress_intensity;
    if (target <= 0.0) {
        return 0.0;
    }
    if (target >= peak) {
        return peak;
    }
    const double duty = target / peak;
    const double period = config_.pwm_period.value();
    const double phase = std::fmod(t.value(), period) / period;
    return phase < duty ? peak : 0.0;
}

double loadgen::measured_utilization_sampled(util::seconds_t t, util::seconds_t window) const {
    util::ensure(window.value() > 0.0,
                 "loadgen::measured_utilization_sampled: non-positive window");
    // Integrate the instantaneous load over the window with a step well
    // below the PWM period so duty edges are resolved.
    const double t1 = t.value();
    const double t0 = std::max(0.0, t1 - window.value());
    if (t1 <= t0) {
        return instantaneous_utilization(t);
    }
    const double step = std::min(0.25, config_.pwm_period.value() / 64.0);
    double acc = 0.0;
    int n = 0;
    for (double x = t0; x < t1; x += step) {
        acc += instantaneous_utilization(util::seconds_t{x});
        ++n;
    }
    return n > 0 ? acc / n : instantaneous_utilization(t);
}

namespace {

/// The odd part of a finite positive double's integer significand.  A
/// k-fold running sum of `v` is exact iff k * odd_significand(v) still
/// fits in the 53-bit mantissa.
long long odd_significand(double v) {
    int e = 0;
    const double m = std::frexp(v, &e);  // v = m * 2^e, m in [0.5, 1)
    const auto sig = static_cast<long long>(std::ldexp(m, 53));
    return sig / (sig & -sig);  // divide out the lowest set bit's power of two
}

/// Busy quarter-second slots among slot indices [0, i): slots whose
/// residue mod `q4` (the PWM period in slots) is below `r_star`.
long long busy_below(long long i, long long q4, long long r_star) {
    return (i / q4) * r_star + std::min(i % q4, r_star);
}

}  // namespace

long long loadgen::busy_slots(long long lo, long long hi) const {
    if (hi <= lo) {
        return 0;
    }
    const double peak = 100.0 * config_.stress_intensity;
    const double period = config_.pwm_period.value();
    // Closed-form phase counting needs the period on the slot grid too;
    // ramps and off-grid periods are counted slot by slot instead.
    const double q4d = period * 4.0;
    const bool dyadic_period = q4d == std::floor(q4d) && q4d < 9.0e15;
    const auto q4 = static_cast<long long>(dyadic_period ? q4d : 0.0);

    const auto count_by_sampling = [&](long long from, long long to) {
        long long busy = 0;
        for (long long i = from; i < to; ++i) {
            busy += instantaneous_utilization(util::seconds_t{0.25 * static_cast<double>(i)}) > 0.0;
        }
        return busy;
    };

    // First segment holding slot `lo`, found as utilization_at finds
    // the segment of an instant; slots past the profile end are idle
    // (utilization_at returns 0) and contribute nothing.
    const std::vector<utilization_profile::segment>& segments = profile_.segments();
    const double x_lo = 0.25 * static_cast<double>(lo);
    auto it = std::upper_bound(segments.begin(), segments.end(), x_lo,
                               [](double lhs, const utilization_profile::segment& s) {
                                   return lhs < s.t1;
                               });
    long long busy = 0;
    for (; it != segments.end(); ++it) {
        const utilization_profile::segment& s = *it;
        // Slot range of this segment clipped to [lo, hi): a sample
        // x = i/4 lands in [s.t0, s.t1) iff 4*s.t0 <= i < 4*s.t1, and
        // both products are exact.
        const long long s_lo = static_cast<long long>(std::ceil(s.t0 * 4.0));
        if (s_lo >= hi) {
            break;
        }
        const long long from = std::max(lo, s_lo);
        const long long to = std::min(hi, static_cast<long long>(std::ceil(s.t1 * 4.0)));
        if (to <= from) {
            continue;
        }
        if (s.u0 != s.u1) {  // ramp: the duty threshold moves per sample
            busy += count_by_sampling(from, to);
            continue;
        }
        const double u = s.u0;
        if (u <= 0.0) {
            continue;  // idle segment
        }
        if (u >= peak) {
            busy += to - from;  // saturated: every slot is busy
            continue;
        }
        if (!dyadic_period) {
            busy += count_by_sampling(from, to);
            continue;
        }
        // A slot with residue r (mod q4) samples phase fl((0.25*r)/period)
        // — fmod is exact on the slot grid — and is busy iff that rounded
        // quotient is < duty.  The quotient is monotone in r, so the busy
        // residues are exactly a prefix [0, r_star); find the threshold
        // by bisection on the *rounded* comparison the reference makes.
        const double duty = u / peak;
        long long lo_r = 0;   // phase(0) = 0 < duty (duty > 0)
        long long hi_r = q4;  // phase(q4) = 1 >= duty
        while (hi_r - lo_r > 1) {
            const long long mid = lo_r + (hi_r - lo_r) / 2;
            if (0.25 * static_cast<double>(mid) / period < duty) {
                lo_r = mid;
            } else {
                hi_r = mid;
            }
        }
        const long long r_star = hi_r;
        busy += busy_below(to, q4, r_star) - busy_below(from, q4, r_star);
    }
    return busy;
}

bool loadgen::measured_analytic(double t0, double t1, double window, double& out) const {
    const double period = config_.pwm_period.value();
    // Eligibility: the reference sum's step must be exactly 0.25 s
    // (period >= 16 s), the window start must sit on the quarter-second
    // grid so every sample position t0 + 0.25*k is an exact double, and
    // all slot indices must stay well inside exact-integer range.
    if (period < 16.0) {
        return false;
    }
    const double i0d = t0 * 4.0;  // exact: multiplication by 4
    const double i1d = t1 * 4.0;
    const double end4 = profile_.duration().value() * 4.0;
    if (!(i1d < 9.0e15) || !(end4 < 9.0e15) || i0d != std::floor(i0d)) {
        return false;
    }
    const auto i0 = static_cast<long long>(i0d);
    const auto i1 = static_cast<long long>(std::ceil(i1d));  // count of slots < 4*t1
    const long long n = i1 - i0;
    if (n <= 0 || n > 2000000000LL) {  // the reference loop counts in int
        return false;
    }

    long long busy = 0;
    {
        // Slide the last window's count when this window, of the same
        // length, moved forward and still overlaps it: add the slots
        // that entered, [old i1, i1), and drop those that left,
        // [old i0, i0).  Anything else counts the window whole.
        const std::lock_guard<std::mutex> lock(window_mutex_);
        if (window_valid_ && window_s_ == window && i0 >= window_i0_ && i1 >= window_i1_ &&
            i0 < window_i1_) {
            busy = window_busy_ + busy_slots(window_i1_, i1) - busy_slots(window_i0_, i0);
        } else {
            busy = busy_slots(i0, i1);
        }
        window_valid_ = true;
        window_s_ = window;
        window_i0_ = i0;
        window_i1_ = i1;
        window_busy_ = busy;
    }

    // The reference accumulator is `busy` sequential additions of
    // `peak` (the 0.0 samples add exactly).  When every partial sum
    // k*peak is representable the whole chain is exact and collapses to
    // one multiplication; otherwise replay the cheap addition chain.
    const double peak = 100.0 * config_.stress_intensity;
    double acc = 0.0;
    if (busy > 0) {
        const bool exact_chain = odd_significand(peak) <= (1LL << 53) / busy;
        if (exact_chain) {
            acc = peak * static_cast<double>(busy);
        } else {
            for (long long k = 0; k < busy; ++k) {
                acc += peak;
            }
        }
    }
    out = acc / static_cast<double>(n);
    return true;
}

double loadgen::measured_utilization(util::seconds_t t, util::seconds_t window) const {
    util::ensure(window.value() > 0.0, "loadgen::measured_utilization: non-positive window");
    const double t1 = t.value();
    const double t0 = std::max(0.0, t1 - window.value());
    if (t1 <= t0) {
        return instantaneous_utilization(t);
    }
    double value = 0.0;
    if (!measured_analytic(t0, t1, window.value(), value)) {
        value = measured_utilization_sampled(t, window);
    }
    return value;
}

}  // namespace ltsc::workload
