// Shared read algorithms over any (time, value) series representation.
//
// `time_series` (array-of-structs samples) and `column_view` (strided
// columnar storage) expose the same read API — interpolation, windowed
// statistics, trapezoidal integration.  Both forward to these templates,
// so the arithmetic is literally the same instruction sequence over
// either layout and the columnar swap cannot perturb a single bit of any
// derived statistic.  The `Series` parameter must provide
// `std::size_t size()`, `double t(std::size_t)` and `double v(std::size_t)`;
// callers guarantee non-emptiness and window ordering (each facade keeps
// its own `ensure` messages).
#pragma once

#include <algorithm>
#include <cstddef>

namespace ltsc::util::detail {

/// First index whose time stamp is strictly greater than `x`
/// (`std::upper_bound` over the time column).
template <typename Series>
[[nodiscard]] std::size_t upper_bound_time(const Series& s, double x) {
    std::size_t lo = 0;
    std::size_t hi = s.size();
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (x < s.t(mid)) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    return lo;
}

template <typename Series>
[[nodiscard]] std::size_t index_at_or_before(const Series& s, double t) {
    const std::size_t ub = upper_bound_time(s, t);
    return ub == 0 ? 0 : ub - 1;
}

template <typename Series>
[[nodiscard]] double duration(const Series& s) {
    if (s.size() < 2) {
        return 0.0;
    }
    return s.t(s.size() - 1) - s.t(0);
}

template <typename Series>
[[nodiscard]] double value_at(const Series& s, double t) {
    if (t <= s.t(0)) {
        return s.v(0);
    }
    const std::size_t last = s.size() - 1;
    if (t >= s.t(last)) {
        return s.v(last);
    }
    const std::size_t hi = upper_bound_time(s, t);
    const double hi_t = s.t(hi);
    const double hi_v = s.v(hi);
    const double lo_t = s.t(hi - 1);
    const double lo_v = s.v(hi - 1);
    if (hi_t == lo_t) {
        return hi_v;
    }
    const double alpha = (t - lo_t) / (hi_t - lo_t);
    return lo_v + alpha * (hi_v - lo_v);
}

template <typename Series>
[[nodiscard]] double min_over(const Series& s, double t0, double t1) {
    double best = value_at(s, t0);
    best = std::min(best, value_at(s, t1));
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s.t(i) >= t0 && s.t(i) <= t1) {
            best = std::min(best, s.v(i));
        }
    }
    return best;
}

template <typename Series>
[[nodiscard]] double max_over(const Series& s, double t0, double t1) {
    double best = value_at(s, t0);
    best = std::max(best, value_at(s, t1));
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s.t(i) >= t0 && s.t(i) <= t1) {
            best = std::max(best, s.v(i));
        }
    }
    return best;
}

template <typename Series>
[[nodiscard]] double integrate(const Series& s, double t0, double t1) {
    const double lo = std::max(t0, s.t(0));
    const double hi = std::min(t1, s.t(s.size() - 1));
    if (hi <= lo || s.size() < 2) {
        return 0.0;
    }
    double acc = 0.0;
    double prev_t = lo;
    double prev_v = value_at(s, lo);
    const std::size_t first = index_at_or_before(s, lo) + 1;
    for (std::size_t i = first; i < s.size() && s.t(i) <= hi; ++i) {
        acc += 0.5 * (prev_v + s.v(i)) * (s.t(i) - prev_t);
        prev_t = s.t(i);
        prev_v = s.v(i);
    }
    if (prev_t < hi) {
        const double end_v = value_at(s, hi);
        acc += 0.5 * (prev_v + end_v) * (hi - prev_t);
    }
    return acc;
}

template <typename Series>
[[nodiscard]] double mean_over(const Series& s, double t0, double t1) {
    const double lo = std::max(t0, s.t(0));
    const double hi = std::min(t1, s.t(s.size() - 1));
    if (hi <= lo) {
        return value_at(s, lo);
    }
    return integrate(s, lo, hi) / (hi - lo);
}

}  // namespace ltsc::util::detail
