// Unit tests for Levenberg-Marquardt NLLS.
#include <gtest/gtest.h>

#include <cmath>

#include "fit/nlls.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace ltsc;

TEST(Nlls, RecoversExponentialModel) {
    // y = a * e^(b x): the leakage functional form.
    const double a = 0.3231;
    const double b = 0.04749;
    std::vector<double> xs;
    std::vector<double> ys;
    for (double x = 45.0; x <= 85.0; x += 5.0) {
        xs.push_back(x);
        ys.push_back(a * std::exp(b * x));
    }
    const auto residuals = [&](const std::vector<double>& p) {
        std::vector<double> r;
        for (std::size_t i = 0; i < xs.size(); ++i) {
            r.push_back(p[0] * std::exp(p[1] * xs[i]) - ys[i]);
        }
        return r;
    };
    const auto res = fit::levenberg_marquardt(residuals, {1.0, 0.01});
    ASSERT_EQ(res.parameters.size(), 2U);
    EXPECT_NEAR(res.parameters[0], a, 1e-4);
    EXPECT_NEAR(res.parameters[1], b, 1e-5);
    EXPECT_LT(res.rmse, 1e-5);
}

TEST(Nlls, RecoversThreeParameterLeakage) {
    // y = C + k2 e^(k3 T) with an offset, from a noisy sweep.
    util::pcg32 rng(7);
    std::vector<double> ts;
    std::vector<double> ys;
    for (double t = 40.0; t <= 90.0; t += 2.0) {
        ts.push_back(t);
        ys.push_back(8.0 + 0.3231 * std::exp(0.04749 * t) + rng.normal(0.0, 0.05));
    }
    const auto residuals = [&](const std::vector<double>& p) {
        std::vector<double> r;
        for (std::size_t i = 0; i < ts.size(); ++i) {
            r.push_back(p[0] + p[1] * std::exp(p[2] * ts[i]) - ys[i]);
        }
        return r;
    };
    const auto res = fit::levenberg_marquardt(residuals, {0.0, 0.1, 0.03});
    EXPECT_NEAR(res.parameters[0], 8.0, 0.5);
    EXPECT_NEAR(res.parameters[1], 0.3231, 0.1);
    EXPECT_NEAR(res.parameters[2], 0.04749, 0.005);
}

TEST(Nlls, SolvesLinearProblemInOneHop) {
    const auto residuals = [](const std::vector<double>& p) {
        return std::vector<double>{p[0] - 3.0, p[0] + p[1] - 5.0, p[1] - 2.0};
    };
    const auto res = fit::levenberg_marquardt(residuals, {0.0, 0.0});
    EXPECT_NEAR(res.parameters[0], 3.0, 1e-6);
    EXPECT_NEAR(res.parameters[1], 2.0, 1e-6);
}

TEST(Nlls, ReportsInitialAndFinalRmse) {
    const auto residuals = [](const std::vector<double>& p) {
        return std::vector<double>{p[0] - 1.0, p[0] - 1.0};
    };
    const auto res = fit::levenberg_marquardt(residuals, {0.0});
    EXPECT_NEAR(res.initial_rmse, 1.0, 1e-12);
    EXPECT_LT(res.rmse, 1e-6);
}

TEST(Nlls, EmptyParametersThrow) {
    EXPECT_THROW(fit::levenberg_marquardt([](const std::vector<double>&) {
                     return std::vector<double>{1.0};
                 },
                                          {}),
                 util::precondition_error);
}

TEST(Nlls, FewerResidualsThanParametersThrow) {
    EXPECT_THROW(fit::levenberg_marquardt(
                     [](const std::vector<double>&) { return std::vector<double>{1.0}; },
                     {1.0, 2.0}),
                 util::precondition_error);
}

TEST(Nlls, RosenbrockValleyConverges) {
    // Classic hard case: residuals (10(y - x^2), 1 - x).
    const auto residuals = [](const std::vector<double>& p) {
        return std::vector<double>{10.0 * (p[1] - p[0] * p[0]), 1.0 - p[0]};
    };
    const auto res = fit::levenberg_marquardt(residuals, {-1.2, 1.0});
    EXPECT_NEAR(res.parameters[0], 1.0, 1e-4);
    EXPECT_NEAR(res.parameters[1], 1.0, 1e-4);
}

}  // namespace
