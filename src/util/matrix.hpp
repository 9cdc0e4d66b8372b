// Small dense matrix algebra for the thermal solvers and model fitting.
//
// The library's linear-algebra needs are modest (RC networks with tens of
// nodes, Jacobians with a handful of parameters), so a row-major dense
// matrix with LU decomposition is the right tool — no external dependency.
#pragma once

#include <cstddef>
#include <vector>

namespace ltsc::util {

/// Row-major dense matrix of doubles.
class matrix {
public:
    matrix() = default;

    /// Creates an `rows` x `cols` matrix filled with `fill`.
    matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    /// Identity matrix of size n.
    static matrix identity(std::size_t n);

    [[nodiscard]] std::size_t rows() const { return rows_; }
    [[nodiscard]] std::size_t cols() const { return cols_; }

    /// Element access (bounds-checked in debug via vector::at semantics of
    /// ensure()).
    double& operator()(std::size_t r, std::size_t c);
    double operator()(std::size_t r, std::size_t c) const;

    /// Matrix sum; dimensions must match.
    [[nodiscard]] matrix operator+(const matrix& rhs) const;
    /// Matrix difference; dimensions must match.
    [[nodiscard]] matrix operator-(const matrix& rhs) const;
    /// Matrix product; inner dimensions must match.
    [[nodiscard]] matrix operator*(const matrix& rhs) const;
    /// Scales every element.
    [[nodiscard]] matrix operator*(double s) const;

    /// Matrix-vector product; `v.size()` must equal `cols()`.
    [[nodiscard]] std::vector<double> operator*(const std::vector<double>& v) const;

    /// Transposed copy.
    [[nodiscard]] matrix transposed() const;

    /// Maximum absolute element (infinity norm of the flattened matrix).
    [[nodiscard]] double max_abs() const;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/// LU decomposition with partial pivoting of a square matrix, reusable for
/// multiple right-hand sides (the steady thermal solve factors once per
/// fan-speed change and back-substitutes every fixed-point round).
class lu_decomposition {
public:
    /// Factors `a`; throws numeric_error when `a` is singular to working
    /// precision or not square.
    explicit lu_decomposition(const matrix& a);

    /// Solves A x = b for one right-hand side.
    [[nodiscard]] std::vector<double> solve(const std::vector<double>& b) const;

    /// Allocation-free variant: solves A x = b into `x` (resized to fit).
    /// `b` and `x` must be distinct vectors.
    void solve_into(const std::vector<double>& b, std::vector<double>& x) const;

    /// Determinant of the factored matrix.
    [[nodiscard]] double determinant() const;

private:
    matrix lu_;
    std::vector<std::size_t> perm_;
    int sign_ = 1;
};

/// Convenience one-shot solve of A x = b.
[[nodiscard]] std::vector<double> solve(const matrix& a, const std::vector<double>& b);

}  // namespace ltsc::util
