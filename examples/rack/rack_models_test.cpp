// Tests for the rack example's facility models: the PSU efficiency
// curve and the CRAC room model.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "rack/psu_model.hpp"
#include "rack/room_model.hpp"
#include "sim/experiment.hpp"
#include "sim/server_simulator.hpp"
#include "util/error.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

// --- PSU ----------------------------------------------------------------

TEST(Psu, EfficiencyPeaksMidLoad) {
    const power::psu_model psu;
    const double lo = psu.efficiency(100_W);
    const double mid = psu.efficiency(1000_W);
    EXPECT_GT(mid, lo);
}

TEST(Psu, AcInputExceedsDcLoad) {
    const power::psu_model psu;
    EXPECT_GT(psu.ac_input(500_W).value(), 500.0);
    EXPECT_DOUBLE_EQ(psu.ac_input(0_W).value(), 0.0);
}

TEST(Psu, LossIsInputMinusOutput) {
    const power::psu_model psu;
    const double in = psu.ac_input(700_W).value();
    EXPECT_NEAR(psu.loss(700_W).value(), in - 700.0, 1e-12);
}

TEST(Psu, BadCurveThrows) {
    EXPECT_THROW(power::psu_model(2000_W, {0.5}, {0.9}), util::precondition_error);
    EXPECT_THROW(power::psu_model(2000_W, {0.5, 1.5}, {0.9, 0.9}), util::precondition_error);
    EXPECT_THROW(power::psu_model(2000_W, {0.2, 0.5}, {0.9, 1.2}), util::precondition_error);
}

// --- CRAC room model -----------------------------------------------------------------

TEST(Crac, HpLabsCurveValues) {
    const thermal::crac_model crac;
    // COP at 15 degC supply: 0.0068*225 + 0.0008*15 + 0.458 = 2.0.
    EXPECT_NEAR(crac.cop(15_degC), 2.0, 0.01);
    // COP improves with warmer supply.
    EXPECT_GT(crac.cop(25_degC), crac.cop(15_degC));
}

TEST(Crac, CoolingPowerInverseInCop) {
    const thermal::crac_model crac;
    const double cold = crac.cooling_power(10000_W, 15_degC).value();
    const double warm = crac.cooling_power(10000_W, 25_degC).value();
    EXPECT_GT(cold, warm);
    EXPECT_NEAR(cold, 10000.0 / crac.cop(15_degC), 1e-9);
}

TEST(Crac, FacilityAccounting) {
    const thermal::crac_model crac;
    const auto f = crac.facility(50000_W, 20_degC);
    EXPECT_NEAR(f.total.value(), f.it.value() + f.cooling.value(), 1e-9);
    EXPECT_GT(f.pue, 1.0);
    EXPECT_LT(f.pue, 2.0);
    EXPECT_NEAR(f.pue, f.total.value() / f.it.value(), 1e-12);
}

TEST(Crac, ZeroItLoad) {
    const thermal::crac_model crac;
    const auto f = crac.facility(0_W, 20_degC);
    EXPECT_DOUBLE_EQ(f.total.value(), 0.0);
    EXPECT_DOUBLE_EQ(f.pue, 1.0);
}

TEST(Crac, NegativeLoadThrows) {
    const thermal::crac_model crac;
    EXPECT_THROW(static_cast<void>(crac.cooling_power(util::watts_t{-1.0}, 20_degC)),
                 util::precondition_error);
}

TEST(Crac, DegenerateCurveThrows) {
    thermal::cop_curve curve;
    curve.a = 0.0;
    curve.b = 0.0;
    curve.c = -1.0;
    const thermal::crac_model crac(curve);
    EXPECT_THROW(static_cast<void>(crac.cop(20_degC)), util::numeric_error);
}

TEST(Crac, ServerPlusRoomTradeoff) {
    // Raising the room setpoint improves CRAC COP but heats the servers
    // (more leakage, more fan effort under a thermal-aware policy).  The
    // facility optimum is interior — exactly the motivation the paper's
    // introduction lays out.
    const thermal::crac_model crac;
    std::vector<double> totals;
    for (double setpoint : {16.0, 20.0, 24.0, 28.0, 32.0}) {
        auto cfg = sim::paper_server();
        cfg.thermal.ambient_c = setpoint;
        sim::server_simulator s(cfg);
        const auto p = sim::measure_steady_point(s, 70.0, 2400_rpm);
        const auto f = crac.facility(util::watts_t{p.total_power_w},
                                     util::celsius_t{setpoint});
        totals.push_back(f.total.value());
    }
    // Facility total at the coldest setpoint must exceed the best-found
    // total (over-cooling the room wastes compressor power).
    const double best = *std::min_element(totals.begin(), totals.end());
    EXPECT_GT(totals.front(), best);
}

}  // namespace
