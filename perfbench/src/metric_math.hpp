// The benchmark's own statistics: the tail-percentile rule, span
// self-time, and the failed-check tally behind `failed`/`attempted`.
// Pure functions with no dependency on the simulator, unit-tested by
// perfbench/tests/metric_math_test.cpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// A percentile as reported: the value, the quantile it actually is, and
/// the number of samples it was taken from.
struct tail_stat {
    double value = 0.0;
    double quantile = 0.0;
    std::size_t samples = 0;
};

/// Minimum number of samples that must lie beyond a reported tail
/// percentile for it to be trusted.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank percentile with the tail rule: returns the `target`
/// quantile (e.g. 0.99) when at least kTailSamples samples lie beyond it,
/// otherwise the highest quantile that still has that many beyond it,
/// never below the median.  The rank is computed in integers so that
/// exactly kTailSamples samples lie beyond a capped percentile.
/// An empty input yields {0, 0, 0}.
inline tail_stat tail_percentile(std::vector<double> xs, double target) {
    tail_stat out;
    out.samples = xs.size();
    if (xs.empty()) {
        return out;
    }
    const std::size_t n = xs.size();
    // 1-based nearest rank of the target quantile (the epsilon keeps
    // 0.99 * 1000 from rounding up to rank 991).
    std::size_t rank = static_cast<std::size_t>(std::ceil(target * static_cast<double>(n) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, n);
    if (n - rank < kTailSamples) {
        rank = n > kTailSamples ? n - kTailSamples : 1;
    }
    const std::size_t median_rank = (n + 1) / 2;
    rank = std::max(rank, median_rank);
    std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(rank - 1), xs.end());
    out.value = xs[rank - 1];
    out.quantile = static_cast<double>(rank) / static_cast<double>(n);
    return out;
}

/// Nearest-rank median (no tail rule needed).
inline double median(std::vector<double> xs) { return tail_percentile(std::move(xs), 0.5).value; }

inline double mean(const std::vector<double>& xs) {
    if (xs.empty()) {
        return 0.0;
    }
    double sum = 0.0;
    for (const double x : xs) {
        sum += x;
    }
    return sum / static_cast<double>(xs.size());
}

/// Nearest-rank `q`-quantile (rank ceil(q n), at least 1) without the
/// tail rule; 0 for an empty input.
inline double quantile(std::vector<double> xs, double q) {
    if (xs.empty()) {
        return 0.0;
    }
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(xs.size()) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, xs.size());
    std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(rank - 1), xs.end());
    return xs[rank - 1];
}

/// A measurement split into chunks of work.  Each chunk contributes its
/// rate and its latency median and p90.  The benchmark reports the best
/// quartile over chunks: the upper quartile of the rates and the lower
/// quartile of the medians.  On a shared host, contention only ever slows
/// a chunk down, so the best quartile follows the program rather than its
/// neighbours.  All latencies are also pooled for the run's p99.
struct chunk_stats {
    std::vector<double> rate;    ///< Work per host second, per chunk.
    std::vector<double> p50;     ///< Latency median, per chunk.
    std::vector<double> p90;     ///< Latency p90 (the tail rule), per chunk.
    std::vector<double> pooled;  ///< Every latency sample.

    void add(double work, double wall_s, const std::vector<double>& latencies) {
        rate.push_back(work / wall_s);
        p50.push_back(tail_percentile(latencies, 0.50).value);
        p90.push_back(tail_percentile(latencies, 0.90).value);
        pooled.insert(pooled.end(), latencies.begin(), latencies.end());
    }

    [[nodiscard]] double best_rate() const { return quantile(rate, 0.75); }
    [[nodiscard]] double best_p50() const { return quantile(p50, 0.25); }
    [[nodiscard]] double median_p90() const { return median(p90); }
    /// The pooled tail at `target` under the tail rule.
    [[nodiscard]] tail_stat pooled_tail(double target) const {
        return tail_percentile(pooled, target);
    }
};

/// A closed time interval [start, end] in seconds.
struct interval {
    double start = 0.0;
    double end = 0.0;
};

/// Length of `parent` covered by the union of `children` (each clipped
/// to the parent).  Overlapping children, such as spans of one parent
/// recorded on several threads, are counted once.
inline double covered_length(const interval& parent, std::vector<interval> children) {
    for (interval& c : children) {
        c.start = std::max(c.start, parent.start);
        c.end = std::min(c.end, parent.end);
    }
    children.erase(std::remove_if(children.begin(), children.end(),
                                  [](const interval& c) { return c.end <= c.start; }),
                   children.end());
    std::sort(children.begin(), children.end(),
              [](const interval& a, const interval& b) { return a.start < b.start; });
    double covered = 0.0;
    double reach = parent.start;
    for (const interval& c : children) {
        const double from = std::max(c.start, reach);
        if (c.end > from) {
            covered += c.end - from;
            reach = c.end;
        }
    }
    return covered;
}

/// A span's self time: its duration minus the part its children cover.
inline double self_time(const interval& parent, std::vector<interval> children) {
    return (parent.end - parent.start) - covered_length(parent, std::move(children));
}

/// Output checks and operations: each attempt either passes or fails.
/// The benchmark reports `attempted` and `failed` from one of these and
/// prints failed_ratio = failed / attempted with its base.
struct check_tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /// Records one attempt; returns `ok` so callers can chain it.
    bool check(bool ok) {
        ++attempted;
        if (!ok) {
            ++failed;
        }
        return ok;
    }

    [[nodiscard]] double failed_ratio() const {
        return attempted == 0 ? 0.0
                              : static_cast<double>(failed) / static_cast<double>(attempted);
    }
};

}  // namespace perfbench
