// Descriptive statistics over plain vectors.
//
// Used by the fitting module for goodness-of-fit metrics and by the
// benchmark harness for summarizing traces.
#pragma once

#include <vector>

namespace ltsc::util {

/// Arithmetic mean; throws on an empty input.
[[nodiscard]] double mean(const std::vector<double>& xs);

/// Unbiased sample variance (n-1 denominator); throws when n < 2.
[[nodiscard]] double variance(const std::vector<double>& xs);

/// Sample standard deviation; throws when n < 2.
[[nodiscard]] double stddev(const std::vector<double>& xs);

/// Root-mean-square error between two equally sized vectors.
[[nodiscard]] double rmse(const std::vector<double>& actual, const std::vector<double>& predicted);

/// Mean absolute error between two equally sized vectors.
[[nodiscard]] double mae(const std::vector<double>& actual, const std::vector<double>& predicted);

/// Coefficient of determination R^2 of `predicted` against `actual`.
/// Returns 1.0 for a perfect fit; can be negative for fits worse than the
/// mean.  Throws when sizes differ, inputs are empty, or actual is constant.
[[nodiscard]] double r_squared(const std::vector<double>& actual,
                               const std::vector<double>& predicted);

/// Linearly interpolated p-th percentile (p in [0, 100]); throws on empty
/// input or out-of-range p.  The input is copied and sorted internally.
[[nodiscard]] double percentile(std::vector<double> xs, double p);

}  // namespace ltsc::util
