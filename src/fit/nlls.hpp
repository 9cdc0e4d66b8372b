// Levenberg-Marquardt nonlinear least squares.
//
// The paper's leakage model P_leak = C + k2 * e^(k3 * T) is nonlinear in
// k3; the characterization pipeline recovers (C, k2, k3) from sweep data
// with this solver.  The residual interface is generic: the caller closes
// over its data set and returns one residual per observation.
#pragma once

#include <functional>
#include <vector>

namespace ltsc::fit {

/// Residual function: maps a parameter vector to one residual per
/// observation (model(params, x_i) - y_i).
using residual_fn = std::function<std::vector<double>(const std::vector<double>&)>;

/// Result of a nonlinear fit.
struct nlls_result {
    std::vector<double> parameters;  ///< Best parameters found.
    double rmse = 0.0;               ///< Root-mean-square residual at the optimum.
    double initial_rmse = 0.0;       ///< RMSE at the starting point.
    int iterations = 0;              ///< Outer iterations performed.
    bool converged = false;          ///< Whether a stopping criterion fired.
};

/// Minimizes 0.5 * ||r(p)||^2 starting from `initial`.  The Jacobian is
/// computed by forward finite differences.  Throws when the residual
/// vector is empty, its size changes between calls, or numerics break down.
[[nodiscard]] nlls_result levenberg_marquardt(const residual_fn& residuals,
                                              std::vector<double> initial);

}  // namespace ltsc::fit
