// Validates the *measured* characterization path (full protocol runs,
// per-poll sampling) against the analytic steady-sweep shortcut and
// the paper's constants.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>

#include "core/characterization.hpp"
#include "sim/server_simulator.hpp"
#include "util/error.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

class MeasuredSweep : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        sim_ = new sim::server_simulator();
        // A reduced grid keeps the suite fast: 4 utilization levels x 3
        // fan speeds x 45-minute protocol runs.  The fan-speed axis spans
        // the full range so the leakage exponent is identifiable.
        const std::vector<double> utils{25.0, 50.0, 75.0, 100.0};
        const std::vector<util::rpm_t> rpms{1800_rpm, 3000_rpm, 4200_rpm};
        measured_ = new std::vector<sim::steady_point>(
            core::measure_protocol_sweep(*sim_, utils, rpms));
        analytic_ = new std::vector<sim::steady_point>(
            sim::run_steady_sweep(*sim_, utils, rpms));
    }
    static void TearDownTestSuite() {
        delete analytic_;
        delete measured_;
        delete sim_;
        sim_ = nullptr;
    }
    static sim::server_simulator* sim_;
    static std::vector<sim::steady_point>* measured_;
    static std::vector<sim::steady_point>* analytic_;
};

sim::server_simulator* MeasuredSweep::sim_ = nullptr;
std::vector<sim::steady_point>* MeasuredSweep::measured_ = nullptr;
std::vector<sim::steady_point>* MeasuredSweep::analytic_ = nullptr;

TEST_F(MeasuredSweep, GridCovered) { EXPECT_EQ(measured_->size(), 12U); }

TEST_F(MeasuredSweep, TemperaturesAgreeWithAnalyticSteadyState) {
    for (std::size_t i = 0; i < measured_->size(); ++i) {
        const auto& m = (*measured_)[i];
        const auto& a = (*analytic_)[i];
        ASSERT_DOUBLE_EQ(m.utilization_pct, a.utilization_pct);
        ASSERT_DOUBLE_EQ(m.fan_rpm, a.fan_rpm);
        // Sensor bias/noise, PWM averaging and finite settling account for
        // a small gap; anything beyond ~3 degC means the shortcut lies.
        EXPECT_NEAR(m.avg_cpu_temp_c, a.avg_cpu_temp_c, 3.0)
            << "u=" << m.utilization_pct << " rpm=" << m.fan_rpm;
    }
}

TEST_F(MeasuredSweep, PowersAgreeWithAnalyticSteadyState) {
    for (std::size_t i = 0; i < measured_->size(); ++i) {
        const auto& m = (*measured_)[i];
        const auto& a = (*analytic_)[i];
        EXPECT_NEAR(m.fan_power_w, a.fan_power_w, 0.5);
        // PWM sampling at 10 s vs the continuous average: allow ~4 %.
        EXPECT_NEAR(m.total_power_w, a.total_power_w, 0.04 * a.total_power_w)
            << "u=" << m.utilization_pct << " rpm=" << m.fan_rpm;
    }
}

TEST_F(MeasuredSweep, FitFromMeasurementsRecoversPaperConstants) {
    const core::power_model_fit fit = core::fit_power_model(*measured_);
    EXPECT_TRUE(fit.converged);
    // Measured path carries sensor noise, finite settling and PWM
    // averaging; the paper's own fit had 2.243 W RMS error, so match at
    // that fidelity rather than exactly.
    EXPECT_NEAR(fit.k3_per_c, 0.04749, 0.015);
    EXPECT_NEAR(fit.k1_w_per_pct, 3.5, 0.25);
    EXPECT_LT(fit.rmse_w, 5.0);
    EXPECT_GT(fit.r_squared, 0.97);
}

TEST_F(MeasuredSweep, MeasuredHotterAtLowerFanSpeed) {
    // Within each utilization, temperature decreases along the RPM axis
    // (grid order: rpm-major within each utilization).
    for (std::size_t i = 0; i + 2 < measured_->size(); i += 3) {
        EXPECT_GT((*measured_)[i].avg_cpu_temp_c, (*measured_)[i + 1].avg_cpu_temp_c);
        EXPECT_GT((*measured_)[i + 1].avg_cpu_temp_c, (*measured_)[i + 2].avg_cpu_temp_c);
    }
}

TEST_F(MeasuredSweep, ValuesArePinned) {
    // The sweep's exact output (%.17g, so every bit is pinned): the
    // operating points come from the polls sampled during each run, and
    // any change to the plant, the sensor stream or the window moves them.
    struct pinned {
        double u, rpm, cpu_c, dimm_c, fan_w, total_w;
    };
    const pinned expected[] = {
        {25, 1800, 57.886067708333336, 36.594332272427422, 3.9437317784256538, 436.16165399084474},
        {25, 3000, 47.483072916666664, 31.556868962279346, 18.258017492711385, 448.48270804422816},
        {25, 4200, 43.147786458333336, 29.397763984041035, 50.099999999999994, 479.74361221216083},
        {50, 1800, 66.579427083333329, 41.584588300763684, 3.9437317784256538, 526.31990567769776},
        {50, 3000, 53.3046875, 34.551100219572433, 18.258017492711385, 536.99914567306166},
        {50, 4200, 47.83984375, 31.536500657345087, 50.099999999999994, 567.8969723422997},
        {75, 1800, 75.600911458333329, 46.574781675048669, 3.9437317784256538, 617.90513293481013},
        {75, 3000, 59.129557291666671, 37.545331397412724, 18.258017492711385, 625.78925005443443},
        {75, 4200, 52.554036458333329, 33.67523733053936, 50.099999999999994, 656.16758814120271},
        {100, 1800, 85.229166666666671, 51.564882092341072, 3.9437317784256538, 708.38519859289124},
        {100, 3000, 65.063151041666671, 40.539562421910048, 18.258017492711385, 711.31595822312067},
        {100, 4200, 57.254557291666664, 35.813974003458448, 50.099999999999994, 740.95500357975072},
    };
    ASSERT_EQ(measured_->size(), std::size(expected));
    for (std::size_t i = 0; i < measured_->size(); ++i) {
        const sim::steady_point& m = (*measured_)[i];
        const pinned& e = expected[i];
        EXPECT_EQ(m.utilization_pct, e.u) << "point " << i;
        EXPECT_EQ(m.fan_rpm, e.rpm) << "point " << i;
        EXPECT_EQ(m.avg_cpu_temp_c, e.cpu_c) << "point " << i;
        EXPECT_EQ(m.dimm_temp_c, e.dimm_c) << "point " << i;
        EXPECT_EQ(m.fan_power_w, e.fan_w) << "point " << i;
        EXPECT_EQ(m.total_power_w, e.total_w) << "point " << i;
    }
}

TEST(MeasuredSweepErrors, EmptyAxesThrow) {
    sim::server_simulator s;
    EXPECT_THROW(core::measure_protocol_sweep(s, {}, {1800_rpm}), util::precondition_error);
    EXPECT_THROW(core::measure_protocol_sweep(s, {50.0}, {}), util::precondition_error);
}

}  // namespace
