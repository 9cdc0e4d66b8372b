#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ltsc::util {

double mean(const std::vector<double>& xs) {
    ensure(!xs.empty(), "mean: empty input");
    double acc = 0.0;
    for (double x : xs) {
        acc += x;
    }
    return acc / static_cast<double>(xs.size());
}

double variance(const std::vector<double>& xs) {
    ensure(xs.size() >= 2, "variance: need at least 2 samples");
    const double m = mean(xs);
    double acc = 0.0;
    for (double x : xs) {
        acc += (x - m) * (x - m);
    }
    return acc / static_cast<double>(xs.size() - 1);
}

double stddev(const std::vector<double>& xs) { return std::sqrt(variance(xs)); }

double rmse(const std::vector<double>& actual, const std::vector<double>& predicted) {
    ensure(actual.size() == predicted.size() && !actual.empty(), "rmse: size mismatch or empty");
    double acc = 0.0;
    for (std::size_t i = 0; i < actual.size(); ++i) {
        const double e = actual[i] - predicted[i];
        acc += e * e;
    }
    return std::sqrt(acc / static_cast<double>(actual.size()));
}

double mae(const std::vector<double>& actual, const std::vector<double>& predicted) {
    ensure(actual.size() == predicted.size() && !actual.empty(), "mae: size mismatch or empty");
    double acc = 0.0;
    for (std::size_t i = 0; i < actual.size(); ++i) {
        acc += std::fabs(actual[i] - predicted[i]);
    }
    return acc / static_cast<double>(actual.size());
}

double r_squared(const std::vector<double>& actual, const std::vector<double>& predicted) {
    ensure(actual.size() == predicted.size() && !actual.empty(),
           "r_squared: size mismatch or empty");
    const double m = mean(actual);
    double ss_tot = 0.0;
    double ss_res = 0.0;
    for (std::size_t i = 0; i < actual.size(); ++i) {
        ss_tot += (actual[i] - m) * (actual[i] - m);
        ss_res += (actual[i] - predicted[i]) * (actual[i] - predicted[i]);
    }
    ensure(ss_tot > 0.0, "r_squared: actual values are constant");
    return 1.0 - ss_res / ss_tot;
}

double percentile(std::vector<double> xs, double p) {
    ensure(!xs.empty(), "percentile: empty input");
    ensure(p >= 0.0 && p <= 100.0, "percentile: p out of range");
    std::sort(xs.begin(), xs.end());
    if (xs.size() == 1) {
        return xs.front();
    }
    const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return xs[lo] + frac * (xs[hi] - xs[lo]);
}

}  // namespace ltsc::util
