#include "fit/nlls.hpp"

#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/matrix.hpp"

namespace ltsc::fit {

namespace {

constexpr int k_max_iterations = 200;      ///< Outer iteration cap.
constexpr double k_gradient_tol = 1e-10;   ///< Stop when ||J^T r||_inf falls below.
constexpr double k_step_tol = 1e-12;       ///< Stop when the relative step falls below.
constexpr double k_initial_lambda = 1e-3;  ///< Initial damping factor.
constexpr double k_lambda_up = 10.0;       ///< Damping multiplier on rejected steps.
constexpr double k_lambda_down = 0.5;      ///< Damping multiplier on accepted steps.
constexpr double k_jacobian_step = 1e-6;   ///< Relative finite-difference step.

/// Sum of squared residuals; +infinity when any residual is non-finite
/// (an overflowing trial step must be rejected, not fatal).
double sum_squares_or_inf(const std::vector<double>& r) {
    double acc = 0.0;
    for (double v : r) {
        if (!std::isfinite(v)) {
            return std::numeric_limits<double>::infinity();
        }
        acc += v * v;
    }
    return acc;
}

double sum_squares(const std::vector<double>& r) {
    const double acc = sum_squares_or_inf(r);
    util::ensure_numeric(std::isfinite(acc), "levenberg_marquardt: non-finite residual");
    return acc;
}

/// Forward-difference Jacobian: J(i, j) = d r_i / d p_j.
util::matrix numeric_jacobian(const residual_fn& residuals, const std::vector<double>& p,
                              const std::vector<double>& r0) {
    util::matrix jac(r0.size(), p.size());
    std::vector<double> probe = p;
    for (std::size_t j = 0; j < p.size(); ++j) {
        const double h = k_jacobian_step * std::max(1.0, std::fabs(p[j]));
        probe[j] = p[j] + h;
        const std::vector<double> r1 = residuals(probe);
        util::ensure(r1.size() == r0.size(), "levenberg_marquardt: residual size changed");
        for (std::size_t i = 0; i < r0.size(); ++i) {
            jac(i, j) = (r1[i] - r0[i]) / h;
        }
        probe[j] = p[j];
    }
    return jac;
}

}  // namespace

nlls_result levenberg_marquardt(const residual_fn& residuals, std::vector<double> initial) {
    util::ensure(!initial.empty(), "levenberg_marquardt: empty parameter vector");
    std::vector<double> p = std::move(initial);
    std::vector<double> r = residuals(p);
    util::ensure(!r.empty(), "levenberg_marquardt: empty residual vector");
    util::ensure(r.size() >= p.size(), "levenberg_marquardt: fewer residuals than parameters");

    double cost = sum_squares(r);
    const std::size_t n = p.size();
    double lambda = k_initial_lambda;

    nlls_result out;
    out.initial_rmse = std::sqrt(cost / static_cast<double>(r.size()));

    for (int iter = 0; iter < k_max_iterations; ++iter) {
        out.iterations = iter + 1;
        const util::matrix jac = numeric_jacobian(residuals, p, r);
        const util::matrix jt = jac.transposed();
        const util::matrix jtj = jt * jac;
        const std::vector<double> grad = jt * r;

        double grad_inf = 0.0;
        for (double g : grad) {
            grad_inf = std::max(grad_inf, std::fabs(g));
        }
        if (grad_inf < k_gradient_tol) {
            out.converged = true;
            break;
        }

        bool step_accepted = false;
        for (int attempt = 0; attempt < 30 && !step_accepted; ++attempt) {
            // (J^T J + lambda * diag(J^T J)) delta = -J^T r
            util::matrix damped = jtj;
            for (std::size_t i = 0; i < n; ++i) {
                const double d = jtj(i, i);
                damped(i, i) = d + lambda * std::max(d, 1e-12);
            }
            std::vector<double> rhs(n);
            for (std::size_t i = 0; i < n; ++i) {
                rhs[i] = -grad[i];
            }
            std::vector<double> delta;
            try {
                delta = util::solve(damped, rhs);
            } catch (const util::numeric_error&) {
                lambda *= k_lambda_up;
                continue;
            }

            std::vector<double> candidate = p;
            double step_norm = 0.0;
            double p_norm = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                candidate[i] += delta[i];
                step_norm += delta[i] * delta[i];
                p_norm += p[i] * p[i];
            }
            const std::vector<double> r_new = residuals(candidate);
            util::ensure(r_new.size() == r.size(), "levenberg_marquardt: residual size changed");
            const double cost_new = sum_squares_or_inf(r_new);
            if (cost_new < cost) {
                p = std::move(candidate);
                r = r_new;
                cost = cost_new;
                lambda = std::max(1e-12, lambda * k_lambda_down);
                step_accepted = true;
                if (std::sqrt(step_norm) < k_step_tol * (std::sqrt(p_norm) + k_step_tol)) {
                    out.converged = true;
                }
            } else {
                lambda *= k_lambda_up;
            }
        }
        if (!step_accepted || out.converged) {
            out.converged = out.converged || !step_accepted;
            break;
        }
    }

    out.parameters = std::move(p);
    out.rmse = std::sqrt(cost / static_cast<double>(r.size()));
    return out;
}

}  // namespace ltsc::fit
