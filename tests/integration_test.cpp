// End-to-end closed-loop tests: controllers driving the simulated server
// through the paper's workloads, checking Table-I-level behaviour.
#include <gtest/gtest.h>

#include <set>

#include "core/bang_bang_controller.hpp"
#include "core/characterization.hpp"
#include "core/controller_runtime.hpp"
#include "core/default_controller.hpp"
#include "core/extremum_seeking_controller.hpp"
#include "core/lut_controller.hpp"
#include "core/pid_controller.hpp"
#include "sim/metrics.hpp"
#include "workload/paper_tests.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

/// Shared fixture: characterize once, run each controller on Test-2 (the
/// sustained-burst workload where the orderings are most pronounced).
class ClosedLoop : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        sim_ = new sim::server_simulator();
        lut_table_ = new core::fan_lut(core::characterize(*sim_).lut);
        idle_power_w_ = sim_->idle_power(3300_rpm).value();

        const auto profile = workload::make_paper_test(workload::paper_test::test2_periods);
        core::default_controller dflt;
        core::bang_bang_controller bang;
        core::lut_controller lut(*lut_table_);
        metrics_default_ = new sim::run_metrics(core::run_controlled(*sim_, dflt, profile));
        metrics_bang_ = new sim::run_metrics(core::run_controlled(*sim_, bang, profile));
        metrics_lut_ = new sim::run_metrics(core::run_controlled(*sim_, lut, profile));
    }
    static void TearDownTestSuite() {
        delete metrics_lut_;
        delete metrics_bang_;
        delete metrics_default_;
        delete lut_table_;
        delete sim_;
        sim_ = nullptr;
    }

    static sim::server_simulator* sim_;
    static core::fan_lut* lut_table_;
    static double idle_power_w_;
    static sim::run_metrics* metrics_default_;
    static sim::run_metrics* metrics_bang_;
    static sim::run_metrics* metrics_lut_;
};

sim::server_simulator* ClosedLoop::sim_ = nullptr;
core::fan_lut* ClosedLoop::lut_table_ = nullptr;
double ClosedLoop::idle_power_w_ = 0.0;
sim::run_metrics* ClosedLoop::metrics_default_ = nullptr;
sim::run_metrics* ClosedLoop::metrics_bang_ = nullptr;
sim::run_metrics* ClosedLoop::metrics_lut_ = nullptr;

TEST_F(ClosedLoop, DefaultNeverChangesFanSpeed) {
    EXPECT_EQ(metrics_default_->fan_changes, 0U);
    EXPECT_NEAR(metrics_default_->avg_rpm, 3300.0, 1.0);
}

TEST_F(ClosedLoop, DefaultOvercoolsTheServer) {
    // Table I: the stock policy keeps max temperature near 60 degC.
    EXPECT_LT(metrics_default_->max_temp_c, 68.0);
}

TEST_F(ClosedLoop, BothControllersSaveEnergyVsDefault) {
    EXPECT_LT(metrics_bang_->energy_kwh, metrics_default_->energy_kwh);
    EXPECT_LT(metrics_lut_->energy_kwh, metrics_default_->energy_kwh);
}

TEST_F(ClosedLoop, LutBeatsBangBang) {
    // The paper's headline ordering on Test-2: LUT saves the most.
    EXPECT_LE(metrics_lut_->energy_kwh, metrics_bang_->energy_kwh);
}

TEST_F(ClosedLoop, NetSavingsInPlausibleBand) {
    const double s_lut =
        sim::net_savings(*metrics_lut_, *metrics_default_, util::watts_t{idle_power_w_});
    const double s_bang =
        sim::net_savings(*metrics_bang_, *metrics_default_, util::watts_t{idle_power_w_});
    EXPECT_GT(s_lut, 0.03);
    EXPECT_LT(s_lut, 0.25);
    EXPECT_GE(s_lut, s_bang);
}

TEST_F(ClosedLoop, LutReducesPeakPower) {
    // Table I: LUT peak ~705-710 W vs default ~720 W.
    EXPECT_LT(metrics_lut_->peak_power_w, metrics_default_->peak_power_w - 5.0);
}

TEST_F(ClosedLoop, EnergiesInTableIBand) {
    EXPECT_NEAR(metrics_default_->energy_kwh, 0.6857, 0.035);
    EXPECT_NEAR(metrics_lut_->energy_kwh, 0.6685, 0.035);
}

TEST_F(ClosedLoop, ControllersKeepTemperatureUnderReliabilityCeiling) {
    // Paper: bang-bang tops out ~76-77, LUT stays lower; neither hits the
    // 90 degC critical threshold.
    EXPECT_LT(metrics_bang_->max_temp_c, 80.0);
    EXPECT_LT(metrics_lut_->max_temp_c, 78.0);
}

TEST_F(ClosedLoop, LutRunsWarmerThanDefault) {
    // Energy is saved precisely by not overcooling.
    EXPECT_GT(metrics_lut_->avg_cpu_temp_c, metrics_default_->avg_cpu_temp_c + 3.0);
}

TEST_F(ClosedLoop, FanChangeCountsAreModest) {
    // Table I: 6-14 changes across controllers and tests.
    EXPECT_GE(metrics_bang_->fan_changes, 2U);
    EXPECT_LE(metrics_bang_->fan_changes, 25U);
    EXPECT_GE(metrics_lut_->fan_changes, 2U);
    EXPECT_LE(metrics_lut_->fan_changes, 25U);
}

TEST_F(ClosedLoop, AverageRpmNearPaperBand) {
    EXPECT_GT(metrics_lut_->avg_rpm, 1800.0);
    EXPECT_LT(metrics_lut_->avg_rpm, 2600.0);
    EXPECT_GT(metrics_bang_->avg_rpm, 1800.0);
    EXPECT_LT(metrics_bang_->avg_rpm, 2600.0);
}

TEST_F(ClosedLoop, RunsAreReproducible) {
    // Re-running the default controller yields the identical energy (the
    // whole pipeline is deterministic by construction).
    const auto profile = workload::make_paper_test(workload::paper_test::test2_periods);
    core::default_controller dflt;
    const auto again = core::run_controlled(*sim_, dflt, profile);
    EXPECT_DOUBLE_EQ(again.energy_kwh, metrics_default_->energy_kwh);
    EXPECT_DOUBLE_EQ(again.peak_power_w, metrics_default_->peak_power_w);
}

// --- per-test behaviours beyond the shared fixture ----------------------------

TEST(ClosedLoopExtra, LutChangesBetweenTwoSpeedsOnTest3) {
    // Paper (Fig. 3): "LUT controller only needs to change the RPM between
    // two different fan speeds" on Test-3.
    sim::server_simulator s;
    const auto lut_table = core::characterize(s).lut;
    core::lut_controller lut(lut_table);
    const auto profile = workload::make_paper_test(workload::paper_test::test3_frequent);
    (void)core::run_controlled(s, lut, profile);
    std::set<double> speeds;
    for (const auto& smp : s.trace().avg_fan_rpm().samples()) {
        speeds.insert(smp.v);
    }
    // Initial stock speed plus exactly two working speeds.
    EXPECT_LE(speeds.size(), 3U);
    EXPECT_TRUE(speeds.count(1800.0) == 1);
    EXPECT_TRUE(speeds.count(2400.0) == 1);
}

TEST(ClosedLoopExtra, BangBangOscillatesOnTest3) {
    // Paper (Fig. 3): the bang-bang controller produces temperature spikes
    // and oscillations on the frequently-changing workload.
    sim::server_simulator s;
    core::bang_bang_controller bang;
    const auto profile = workload::make_paper_test(workload::paper_test::test3_frequent);
    const auto m = core::run_controlled(s, bang, profile);
    EXPECT_GE(m.fan_changes, 4U);
    EXPECT_GT(m.max_temp_c, 74.0);
}

TEST(ClosedLoopExtra, PidHoldsSetpointOnSustainedLoad) {
    sim::server_simulator s;
    core::pid_controller pid;
    workload::utilization_profile p("sustained");
    p.idle(5.0_min).constant(100.0, 40.0_min);
    const auto m = core::run_controlled(s, pid, p);
    (void)m;
    // In the last 10 minutes the max sensor temperature sits near the
    // 70 degC setpoint.
    const auto& tr = s.trace();
    const double end_t = tr.max_sensor_temp().back().t;
    const double tail_mean = tr.max_sensor_temp().mean(end_t - 600.0, end_t);
    EXPECT_NEAR(tail_mean, 70.0, 4.0);
}

TEST(ClosedLoopExtra, ExtremumSeekerApproachesLutOptimum) {
    // Given a long constant plateau, perturb-and-observe should settle
    // near the LUT's optimal speed for that load.
    sim::server_simulator s;
    core::extremum_seeking_controller seeker;
    workload::utilization_profile p("plateau");
    p.constant(100.0, 80.0_min);
    (void)core::run_controlled(s, seeker, p);
    const util::column_view rpm = s.trace().avg_fan_rpm();
    const double tail_mean = rpm.mean(rpm.back().t - 900.0, rpm.back().t);
    // LUT optimum at 100 % is 2400; the seeker dithers around it.
    EXPECT_NEAR(tail_mean, 2400.0, 450.0);
}

TEST(ClosedLoopExtra, EmergencyOverrideFiresUnderImpossibleLut) {
    // A deliberately wrong LUT (min speed everywhere) must still be saved
    // by the emergency override before the 90 degC critical threshold.
    sim::server_simulator s;
    std::vector<core::lut_entry> rows{{100.0, 1800_rpm, 0.0, 0.0}};
    core::lut_controller lut{core::fan_lut(rows)};
    workload::utilization_profile p("hot");
    p.constant(100.0, 40.0_min);
    const auto m = core::run_controlled(s, lut, p);
    EXPECT_LT(m.max_temp_c, 90.0);
}

TEST(ClosedLoopExtra, HigherAmbientShiftsEverythingUp) {
    sim::server_simulator cool;
    auto hot_cfg = sim::paper_server();
    hot_cfg.thermal.ambient_c = 35.0;
    sim::server_simulator hot(hot_cfg);
    core::default_controller d1;
    core::default_controller d2;
    workload::utilization_profile p("load");
    p.constant(80.0, 20.0_min);
    const auto mc = core::run_controlled(cool, d1, p);
    const auto mh = core::run_controlled(hot, d2, p);
    EXPECT_GT(mh.max_temp_c, mc.max_temp_c + 8.0);
    EXPECT_GT(mh.energy_kwh, mc.energy_kwh);  // leakage penalty
}

}  // namespace
