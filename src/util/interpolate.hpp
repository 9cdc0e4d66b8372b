// 1-D interpolation over tabulated data.
//
// A clamped linear interpolator for tabulated functions such as
// efficiency curves.
#pragma once

#include <cstddef>
#include <vector>

namespace ltsc::util {

/// Piecewise-linear interpolation over strictly increasing knots, clamped
/// to the end values outside the knot range.
class linear_interpolator {
public:
    linear_interpolator() = default;

    /// Builds the interpolator; `x` must be strictly increasing and the
    /// vectors equally sized with at least one knot.
    linear_interpolator(std::vector<double> x, std::vector<double> y);

    /// Interpolated value at `q` (clamped outside the knot range).
    [[nodiscard]] double operator()(double q) const;

    [[nodiscard]] std::size_t size() const { return x_.size(); }
    [[nodiscard]] const std::vector<double>& knots() const { return x_; }
    [[nodiscard]] const std::vector<double>& values() const { return y_; }

private:
    std::vector<double> x_;
    std::vector<double> y_;
};

}  // namespace ltsc::util
