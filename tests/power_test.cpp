// Unit tests for the power models: leakage, active, fan, aggregate.
#include <gtest/gtest.h>

#include <cmath>

#include "power/active_model.hpp"
#include "power/fan_model.hpp"
#include "power/leakage_model.hpp"
#include "power/server_power_model.hpp"
#include "sim/server_config.hpp"
#include "util/error.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

// --- leakage -----------------------------------------------------------

TEST(Leakage, PaperConstantsEmbedded) {
    const auto p = power::leakage_params::paper_fit();
    EXPECT_DOUBLE_EQ(p.k2, 0.3231);
    EXPECT_DOUBLE_EQ(p.k3, 0.04749);
}

TEST(Leakage, ValueMatchesFormula) {
    const power::leakage_model m;
    const double expected = 8.0 + 0.3231 * std::exp(0.04749 * 70.0);
    EXPECT_NEAR(m.at(70_degC).value(), expected, 1e-12);
}

TEST(Leakage, MonotonicallyIncreasingInTemperature) {
    const power::leakage_model m;
    double prev = m.at(20_degC).value();
    for (double t = 25.0; t <= 95.0; t += 5.0) {
        const double v = m.at(util::celsius_t{t}).value();
        EXPECT_GT(v, prev);
        prev = v;
    }
}

TEST(Leakage, SharesSumToTotal) {
    const power::leakage_model m;
    const double total = m.at(65_degC).value();
    const double share = m.share_at(65_degC, 2).value();
    EXPECT_NEAR(2.0 * share, total, 1e-12);
}

TEST(Leakage, SlopeMatchesNumericDerivative) {
    const power::leakage_model m;
    const double h = 1e-5;
    const double numeric =
        (m.at(util::celsius_t{70.0 + h}).value() - m.at(util::celsius_t{70.0 - h}).value()) /
        (2.0 * h);
    EXPECT_NEAR(m.slope_at(70_degC), numeric, 1e-6);
}

TEST(Leakage, RejectsNegativePrefactor) {
    EXPECT_THROW(power::leakage_model(power::leakage_params{8.0, -1.0, 0.04}),
                 util::precondition_error);
}

TEST(Leakage, DoublingPer15Degrees) {
    // k3 = 0.04749 means the exponential component roughly doubles every
    // ~14.6 degC — the classic leakage rule of thumb the paper leans on.
    const power::leakage_model m;
    const double lo = m.at(60_degC).value() - 8.0;
    const double hi = m.at(util::celsius_t{60.0 + std::log(2.0) / 0.04749}).value() - 8.0;
    EXPECT_NEAR(hi / lo, 2.0, 1e-9);
}

// --- active ------------------------------------------------------------

TEST(Active, TotalIsLinearInUtilization) {
    const power::active_model m;
    EXPECT_DOUBLE_EQ(m.total(0.0).value(), 0.0);
    EXPECT_DOUBLE_EQ(m.total(50.0).value(), 175.0);
    EXPECT_DOUBLE_EQ(m.total(100.0).value(), 350.0);
}

TEST(Active, ComponentsSumToTotal) {
    const power::active_model m;
    for (double u : {0.0, 10.0, 33.0, 50.0, 75.0, 100.0}) {
        const double sum = m.cpu(u).value() + m.memory(u).value() + m.other(u).value();
        EXPECT_NEAR(sum, m.total(u).value(), 1e-9) << "u=" << u;
    }
}

TEST(Active, SplitFractionsAt100Pct) {
    const power::active_model m;
    EXPECT_NEAR(m.cpu(100.0).value(), 0.35 * 350.0, 1e-9);
    EXPECT_NEAR(m.memory(100.0).value(), 0.30 * 350.0, 1e-9);
    EXPECT_NEAR(m.other(100.0).value(), 0.35 * 350.0, 1e-9);
}

TEST(Active, ShapedSplitStillSumsToTotal) {
    const power::active_model m(3.5, power::active_split{}, 0.65);
    for (double u : {1.0, 5.0, 20.0, 50.0, 80.0, 100.0}) {
        const double sum = m.cpu(u).value() + m.memory(u).value() + m.other(u).value();
        EXPECT_NEAR(sum, m.total(u).value(), 1e-9) << "u=" << u;
        EXPECT_GE(m.memory(u).value(), -1e-12);
        EXPECT_GE(m.other(u).value(), -1e-12);
    }
}

TEST(Active, ShapedCpuHeatExceedsProportionalAtMidUtil) {
    const power::active_model shaped(3.5, power::active_split{}, 0.65);
    const power::active_model linear(3.5, power::active_split{}, 1.0);
    EXPECT_GT(shaped.cpu(50.0).value(), linear.cpu(50.0).value());
    EXPECT_NEAR(shaped.cpu(100.0).value(), linear.cpu(100.0).value(), 1e-9);
}

TEST(Active, UtilizationOutOfRangeThrows) {
    const power::active_model m;
    EXPECT_THROW(static_cast<void>(m.total(-1.0)), util::precondition_error);
    EXPECT_THROW(static_cast<void>(m.total(101.0)), util::precondition_error);
}

TEST(Active, BadSplitThrows) {
    EXPECT_THROW(power::active_model(3.5, power::active_split{0.5, 0.5, 0.5}),
                 util::precondition_error);
}

TEST(Active, PaperConstantsExposed) {
    EXPECT_DOUBLE_EQ(power::active_model::paper_rail_k1_w_per_pct, 0.4452);
    EXPECT_DOUBLE_EQ(power::active_model::system_k1_w_per_pct, 3.5);
}

// --- fan ---------------------------------------------------------------

TEST(Fan, CubicPowerLaw) {
    const power::fan_pair pair{power::fan_spec{}};
    const double p4200 = pair.power(4200_rpm).value();
    const double p2100 = pair.power(2100_rpm).value();
    EXPECT_NEAR(p4200 / p2100, 8.0, 1e-9);  // (2x RPM)^3
}

TEST(Fan, LinearAirflowLaw) {
    const power::fan_pair pair{power::fan_spec{}};
    const double q4200 = pair.airflow(4200_rpm).value();
    const double q2100 = pair.airflow(2100_rpm).value();
    EXPECT_NEAR(q4200 / q2100, 2.0, 1e-9);
}

TEST(Fan, ClampsToLegalRange) {
    const power::fan_pair pair{power::fan_spec{}};
    EXPECT_DOUBLE_EQ(pair.clamp(100_rpm).value(), 1800.0);
    EXPECT_DOUBLE_EQ(pair.clamp(9000_rpm).value(), 4200.0);
    EXPECT_DOUBLE_EQ(pair.clamp(3000_rpm).value(), 3000.0);
    EXPECT_THROW(static_cast<void>(pair.clamp(util::rpm_t{std::nan("")})),
                 util::precondition_error);
    EXPECT_THROW(static_cast<void>(pair.clamp(util::rpm_t{HUGE_VAL})), util::precondition_error);
}

TEST(Fan, BankTotalsAcrossPairs) {
    power::fan_bank bank;  // 3 pairs at 3600
    EXPECT_EQ(bank.pair_count(), 3U);
    const double one = bank.pair().power(3600_rpm).value();
    EXPECT_NEAR(bank.total_power().value(), 3.0 * one, 1e-9);
}

TEST(Fan, PaperBankPowerAnchors) {
    // Whole-bank power: ~50 W at 4200 RPM (Fig. 2(a)), ~24 W at the 3300
    // RPM default, ~4 W at 1800 RPM.
    power::fan_bank bank;
    bank.set_all(4200_rpm);
    EXPECT_NEAR(bank.total_power().value(), 50.1, 0.2);
    bank.set_all(3300_rpm);
    EXPECT_NEAR(bank.total_power().value(), 24.3, 0.2);
    bank.set_all(1800_rpm);
    EXPECT_NEAR(bank.total_power().value(), 3.95, 0.2);
}

TEST(Fan, PerPairControl) {
    power::fan_bank bank;
    bank.set_speed(0, 1800_rpm);
    bank.set_speed(1, 3000_rpm);
    bank.set_speed(2, 4200_rpm);
    EXPECT_DOUBLE_EQ(bank.speed(0).value(), 1800.0);
    EXPECT_DOUBLE_EQ(bank.average_speed().value(), 3000.0);
    EXPECT_THROW(bank.set_speed(3, 2000_rpm), util::precondition_error);
}

TEST(Fan, PaperRpmGrid) {
    const auto grid = power::paper_rpm_settings();
    ASSERT_EQ(grid.size(), 5U);
    EXPECT_DOUBLE_EQ(grid.front().value(), 1800.0);
    EXPECT_DOUBLE_EQ(grid.back().value(), 4200.0);
}

TEST(Fan, TabulatedModelMatchesCalibrationPoints) {
    std::vector<power::fan_calibration_point> pts;
    for (double r : {1800.0, 2400.0, 3000.0, 3600.0, 4200.0}) {
        pts.push_back({util::rpm_t{r}, util::watts_t{16.7 * std::pow(r / 4200.0, 3.0)}});
    }
    const power::tabulated_fan_model m(pts);
    EXPECT_NEAR(m.power(3000_rpm).value(), 16.7 * std::pow(3000.0 / 4200.0, 3.0), 1e-9);
    // Between points the monotone interpolant stays within the bracket.
    const double mid = m.power(2700_rpm).value();
    EXPECT_GT(mid, m.power(2400_rpm).value());
    EXPECT_LT(mid, m.power(3000_rpm).value());
}

TEST(Fan, TabulatedModelRejectsNonMonotonicPower) {
    std::vector<power::fan_calibration_point> pts{{1800_rpm, 10_W}, {2400_rpm, 5_W}};
    EXPECT_THROW(power::tabulated_fan_model{pts}, util::precondition_error);
}

// --- aggregate -----------------------------------------------------------

TEST(ServerPower, BreakdownSums) {
    const power::server_power_model m = sim::power_model_for(sim::paper_server());
    const auto b = m.breakdown_at(50.0, {60.0, 60.0}, 10_W);
    EXPECT_NEAR(b.total().value(),
                b.base.value() + b.active.value() + b.leakage.value() + b.fan.value(), 1e-12);
}

TEST(ServerPower, Eqn1Decomposition) {
    const power::server_power_model m = sim::power_model_for(sim::paper_server());
    const auto b = m.breakdown_at(100.0, {62.0, 62.0}, 24.3_W);
    EXPECT_DOUBLE_EQ(b.base.value(), sim::paper_server().base_power_w);
    EXPECT_DOUBLE_EQ(b.base.value(), 331.6);
    EXPECT_DOUBLE_EQ(b.active.value(), 350.0);
    EXPECT_NEAR(b.leakage.value(), 8.0 + 0.3231 * std::exp(0.04749 * 62.0), 1e-9);
    // Peak wall power lands near the 710-720 W band of Table I.
    EXPECT_NEAR(b.total().value(), 719.0, 5.0);
}

TEST(ServerPower, HeatIsTheThermalPartOfEqn1) {
    // Die, DIMM and downstream heat plus the base power no node
    // dissipates add back up to the breakdown's non-fan total.
    const sim::server_config cfg = sim::paper_server();
    const power::server_power_model m = sim::power_model_for(cfg);
    const power::die_temps die = {60.0, 70.0};
    const power::server_heat h = m.heat_at(100.0, 0.7, die);
    const power::leakage_model leak(cfg.leakage);
    EXPECT_NEAR(h.cpu_w[0], 45.0 + 122.5 * 0.7 + leak.share_at(60_degC, 2).value(), 1e-9);
    EXPECT_NEAR(h.cpu_w[1], 45.0 + 122.5 * 0.3 + leak.share_at(70_degC, 2).value(), 1e-9);
    EXPECT_NEAR(h.dimm_w, 40.0 + 105.0, 1e-9);
    EXPECT_NEAR(h.other_w, 122.5, 1e-9);
    const auto b = m.breakdown_at(100.0, die, 0_W);
    const double floor_w = cfg.base_power_w - 2.0 * cfg.cpu_idle_each_w - cfg.dimm_idle_total_w;
    EXPECT_NEAR(h.cpu_w[0] + h.cpu_w[1] + h.dimm_w + h.other_w + floor_w, b.total().value(),
                1e-9);
}

TEST(ServerPower, NegativeFanPowerThrows) {
    const power::server_power_model m = sim::power_model_for(sim::paper_server());
    EXPECT_THROW(static_cast<void>(m.breakdown_at(10.0, {50.0, 50.0}, util::watts_t{-1.0})),
                 util::precondition_error);
}

}  // namespace
