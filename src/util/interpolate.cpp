#include "util/interpolate.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ltsc::util {

namespace {

/// Index of the interval [x[i], x[i+1]] containing q (clamped).
std::size_t interval_of(const std::vector<double>& x, double q) {
    const auto it = std::upper_bound(x.begin(), x.end(), q);
    if (it == x.begin()) {
        return 0;
    }
    const auto idx = static_cast<std::size_t>(std::distance(x.begin(), it)) - 1;
    return std::min(idx, x.size() - 2);
}

}  // namespace

linear_interpolator::linear_interpolator(std::vector<double> x, std::vector<double> y)
    : x_(std::move(x)), y_(std::move(y)) {
    ensure(x_.size() == y_.size(), "linear_interpolator: size mismatch");
    ensure(!x_.empty(), "linear_interpolator: too few knots");
    for (std::size_t i = 1; i < x_.size(); ++i) {
        ensure(x_[i] > x_[i - 1], "linear_interpolator: knots not strictly increasing");
    }
}

double linear_interpolator::operator()(double q) const {
    ensure(!x_.empty(), "linear_interpolator: empty");
    if (x_.size() == 1 || q <= x_.front()) {
        return y_.front();
    }
    if (q >= x_.back()) {
        return y_.back();
    }
    const std::size_t i = interval_of(x_, q);
    const double alpha = (q - x_[i]) / (x_[i + 1] - x_[i]);
    return y_[i] + alpha * (y_[i + 1] - y_[i]);
}

}  // namespace ltsc::util
