// Tests of the coupled server simulator: calibration anchors, control
// surface semantics, protocol runner and metrics extraction.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/server_batch.hpp"
#include "sim/server_simulator.hpp"
#include "util/error.hpp"
#include "workload/profile.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;
using sim::server_simulator;

TEST(ServerConfig, PaperTopology) {
    const auto cfg = sim::paper_server();
    EXPECT_EQ(cfg.sockets, 2U);
    EXPECT_EQ(cfg.cores_per_socket, 16U);
    EXPECT_EQ(cfg.threads_per_core, 8U);
    EXPECT_EQ(cfg.hardware_threads(), 256U);
    EXPECT_EQ(cfg.dimm_count, 32U);
    EXPECT_EQ(cfg.fan_pairs, 3U);
    EXPECT_NO_THROW(sim::validate(cfg));
}

TEST(ServerConfig, ValidationCatchesInconsistencies) {
    auto cfg = sim::paper_server();
    cfg.split.cpu = 0.9;  // no longer sums to 1
    EXPECT_THROW(sim::validate(cfg), util::precondition_error);

    cfg = sim::paper_server();
    cfg.fan_pairs = 2;  // mismatch with thermal zones
    EXPECT_THROW(sim::validate(cfg), util::precondition_error);

    cfg = sim::paper_server();
    cfg.base_power_w = 10.0;  // less than component idles
    EXPECT_THROW(sim::validate(cfg), util::precondition_error);
}

/// Constructing either plant with `field` set to +inf or NaN must throw.
template <typename Field>
void expect_non_finite_rejected(const char* name, Field field) {
    for (const double bad : {INFINITY, NAN}) {
        sim::server_config cfg = sim::paper_server();
        field(cfg) = bad;
        EXPECT_THROW(server_simulator{cfg}, util::precondition_error) << name << " = " << bad;
        EXPECT_THROW((sim::server_batch{cfg, 2}), util::precondition_error) << name << " = " << bad;
    }
}

TEST(ServerConfig, NonFiniteFieldsRejectedAtConstruction) {
    // Infinities pass every range check (an infinite poll period would
    // construct and then never poll again), so each floating-point field
    // the validator reads must be finite.
    expect_non_finite_rejected("base_power_w", [](auto& c) -> auto& { return c.base_power_w; });
    expect_non_finite_rejected("cpu_idle_each_w",
                               [](auto& c) -> auto& { return c.cpu_idle_each_w; });
    expect_non_finite_rejected("dimm_idle_total_w",
                               [](auto& c) -> auto& { return c.dimm_idle_total_w; });
    expect_non_finite_rejected("active_coeff_w_per_pct",
                               [](auto& c) -> auto& { return c.active_coeff_w_per_pct; });
    expect_non_finite_rejected("split.cpu", [](auto& c) -> auto& { return c.split.cpu; });
    expect_non_finite_rejected("split.memory", [](auto& c) -> auto& { return c.split.memory; });
    expect_non_finite_rejected("split.other", [](auto& c) -> auto& { return c.split.other; });
    expect_non_finite_rejected("cpu_heat_shape_exponent",
                               [](auto& c) -> auto& { return c.cpu_heat_shape_exponent; });
    expect_non_finite_rejected("telemetry_period_s",
                               [](auto& c) -> auto& { return c.telemetry_period_s; });
    expect_non_finite_rejected("sensor_noise_sigma",
                               [](auto& c) -> auto& { return c.sensor_noise_sigma; });
    expect_non_finite_rejected("sensor_quantum", [](auto& c) -> auto& { return c.sensor_quantum; });
}

TEST(Simulator, IdlePowerMatchesTableI) {
    // Table I implies ~366 W idle at the default 3300 RPM policy.
    server_simulator s;
    EXPECT_NEAR(s.idle_power(3300_rpm).value(), 366.0, 2.0);
}

TEST(Simulator, IdlePowerIncreasesWithFanSpeed) {
    server_simulator s;
    const double lo = s.idle_power(1800_rpm).value();
    const double hi = s.idle_power(4200_rpm).value();
    // Fan power dominates idle differences: ~46 W spread, slightly offset
    // by lower leakage at the cold end.
    EXPECT_GT(hi, lo + 35.0);
}

TEST(Simulator, PeakPowerMatchesTableI) {
    server_simulator s;
    const auto p = sim::measure_steady_point(s, 100.0, 3300_rpm);
    EXPECT_NEAR(p.total_power_w, 720.0, 4.0);
}

TEST(Simulator, SteadyTemperatureAnchors) {
    server_simulator s;
    EXPECT_NEAR(sim::measure_steady_point(s, 100.0, 1800_rpm).avg_cpu_temp_c, 85.4, 1.5);
    EXPECT_NEAR(sim::measure_steady_point(s, 100.0, 2400_rpm).avg_cpu_temp_c, 72.0, 1.5);
    EXPECT_NEAR(sim::measure_steady_point(s, 100.0, 4200_rpm).avg_cpu_temp_c, 57.0, 1.5);
}

TEST(Simulator, FanChangeCounting) {
    server_simulator s;
    workload::utilization_profile p("idle");
    p.idle(60_s);
    s.bind_workload(p);
    s.force_cold_start();
    EXPECT_EQ(s.fan_change_count(), 0U);
    s.set_all_fans(3300_rpm);
    EXPECT_EQ(s.fan_change_count(), 1U);
    s.set_all_fans(3300_rpm);  // no-op
    EXPECT_EQ(s.fan_change_count(), 1U);
    s.set_fan_speed(0, 2400_rpm);
    EXPECT_EQ(s.fan_change_count(), 2U);
    s.reset_fan_change_counter();
    EXPECT_EQ(s.fan_change_count(), 0U);
}

TEST(Simulator, FanCommandsClampToRange) {
    server_simulator s;
    s.set_all_fans(util::rpm_t{100.0});
    EXPECT_DOUBLE_EQ(s.fan_speed(0).value(), 1800.0);
    s.set_all_fans(util::rpm_t{9999.0});
    EXPECT_DOUBLE_EQ(s.fan_speed(1).value(), 4200.0);
}

TEST(Simulator, ColdStartMatchesProtocol) {
    server_simulator s;
    workload::utilization_profile p("x");
    p.constant(100.0, 10.0_min);
    s.bind_workload(p);
    s.force_cold_start();
    EXPECT_DOUBLE_EQ(s.now().value(), 0.0);
    // Cold state: idle steady with fans at 3600 -> CPU in the low 40s.
    EXPECT_NEAR(s.true_avg_cpu_temp().value(), 41.0, 4.0);
    EXPECT_DOUBLE_EQ(s.fan_speed(0).value(), 3600.0);
}

TEST(Simulator, StepAdvancesTimeAndRecords) {
    server_simulator s;
    workload::utilization_profile p("x");
    p.constant(50.0, 60_s);
    s.bind_workload(p);
    s.force_cold_start();
    s.advance(30_s);
    EXPECT_DOUBLE_EQ(s.now().value(), 30.0);
    EXPECT_EQ(s.trace().total_power().size(), 30U);
}

TEST(Simulator, TelemetryPollsEvery10s) {
    server_simulator s;
    workload::utilization_profile p("x");
    p.constant(50.0, 120_s);
    s.bind_workload(p);
    s.force_cold_start();
    s.advance(100_s);
    // Cold-start poll at t=0 plus one every 10 s.
    const util::column_view power = s.telemetry().history().column("system_power");
    EXPECT_NEAR(static_cast<double>(power.size()), 11.0, 1.0);
}

/// `cleared` must hold exactly the trailing rows of `kept`: same poll
/// instants, same sampled values.
void expect_history_is_tail(const util::frame& cleared, const util::frame& kept) {
    ASSERT_FALSE(cleared.empty());
    ASSERT_LT(cleared.size(), kept.size());
    ASSERT_EQ(cleared.channel_count(), kept.channel_count());
    const std::size_t skip = kept.size() - cleared.size();
    for (std::size_t r = 0; r < cleared.size(); ++r) {
        ASSERT_EQ(cleared.time()[r], kept.time()[skip + r]) << "row " << r;
        for (std::size_t c = 0; c < cleared.channel_count(); ++c) {
            ASSERT_EQ(cleared.values(c)[r], kept.values(c)[skip + r])
                << "row " << r << " channel " << cleared.channel_name(c);
        }
    }
}

TEST(Simulator, ClearTraceDropsTelemetryHistoryButKeepsPollClock) {
    workload::utilization_profile p("x");
    p.constant(50.0, 120_s);
    server_simulator cleared;
    server_simulator kept;
    for (server_simulator* s : {&cleared, &kept}) {
        s->bind_workload(p);
        s->force_cold_start();
        s->advance(25_s);
    }
    ASSERT_FALSE(cleared.telemetry().history().empty());
    cleared.clear_trace();
    EXPECT_TRUE(cleared.trace().empty());
    EXPECT_TRUE(cleared.telemetry().history().empty());
    EXPECT_EQ(cleared.telemetry().last_poll_time(), kept.telemetry().last_poll_time());

    cleared.advance(40_s);
    kept.advance(40_s);
    // Polls stay on the 10 s grid from the cold start: the first row
    // after the clear is the t = 30 s poll the uncleared twin also took.
    EXPECT_EQ(cleared.telemetry().history().time().front(), 30.0);
    expect_history_is_tail(cleared.telemetry().history(), kept.telemetry().history());
    EXPECT_EQ(cleared.cpu_sensor_temps(), kept.cpu_sensor_temps());
}

TEST(Simulator, BatchClearTraceDropsOnlyThatLanesTelemetryHistory) {
    workload::utilization_profile p("x");
    p.constant(50.0, 120_s);
    sim::server_batch cleared(sim::paper_server(), 2);
    sim::server_batch kept(sim::paper_server(), 2);
    for (sim::server_batch* b : {&cleared, &kept}) {
        for (std::size_t l = 0; l < 2; ++l) {
            b->bind_workload(l, p);
        }
        b->force_cold_start();
        for (int k = 0; k < 25; ++k) {
            b->step(1_s);
        }
    }
    cleared.clear_trace(1);
    EXPECT_TRUE(cleared.telemetry(1).history().empty());
    EXPECT_EQ(cleared.telemetry(0).history().size(), kept.telemetry(0).history().size());

    for (sim::server_batch* b : {&cleared, &kept}) {
        for (int k = 0; k < 40; ++k) {
            b->step(1_s);
        }
    }
    EXPECT_EQ(cleared.telemetry(1).history().time().front(), 30.0);
    expect_history_is_tail(cleared.telemetry(1).history(), kept.telemetry(1).history());
    EXPECT_EQ(cleared.cpu_sensor_temps(1), kept.cpu_sensor_temps(1));
}

TEST(Simulator, SensorTempsTrackTruth) {
    server_simulator s;
    workload::utilization_profile p("x");
    p.constant(100.0, 20.0_min);
    s.bind_workload(p);
    s.force_cold_start();
    s.set_all_fans(1800_rpm);
    s.advance(15.0_min);
    const double truth = s.true_avg_cpu_temp().value();
    const double sensor = s.max_cpu_sensor_temp().value();
    // Max sensor reads the hotter placement (+0.8 bias) plus noise, and
    // lags by at most one 10 s poll.
    EXPECT_NEAR(sensor, truth, 4.0);
    EXPECT_EQ(s.cpu_sensor_temps().size(), 4U);
}

TEST(Simulator, PowerBreakdownConsistent) {
    server_simulator s;
    workload::utilization_profile p("x");
    p.constant(100.0, 5.0_min);
    s.bind_workload(p);
    s.force_cold_start();
    s.advance(2.0_min);
    const auto b = s.current_power();
    EXPECT_NEAR(b.total().value(),
                b.base.value() + b.active.value() + b.leakage.value() + b.fan.value(), 1e-9);
    EXPECT_DOUBLE_EQ(b.active.value(), 350.0);
    EXPECT_GT(b.leakage.value(), 8.0);
}

TEST(Simulator, MeasuredUtilizationMatchesTargetOverWindow) {
    server_simulator s;
    workload::utilization_profile p("x");
    p.constant(60.0, 30.0_min);
    s.bind_workload(p);
    s.force_cold_start();
    s.advance(10.0_min);
    EXPECT_NEAR(s.measured_utilization(util::seconds_t{240.0}), 60.0, 3.0);
}

TEST(Simulator, DimmsHeatWithMemoryLoad) {
    server_simulator s;
    const auto idle = sim::measure_steady_point(s, 0.0, 3000_rpm);
    const auto busy = sim::measure_steady_point(s, 100.0, 3000_rpm);
    EXPECT_GT(busy.dimm_temp_c, idle.dimm_temp_c + 5.0);
}

// --- protocol experiment -----------------------------------------------------

TEST(Experiment, ProtocolTimelineIs45Minutes) {
    server_simulator s;
    sim::run_protocol_experiment(s, 3000_rpm, 100.0);
    EXPECT_NEAR(s.trace().total_power().duration(), 45.0 * 60.0, 2.0);
}

TEST(Experiment, ProtocolPhasesVisibleInTrace) {
    server_simulator s;
    sim::run_protocol_experiment(s, 1800_rpm, 100.0);
    const auto& tr = s.trace();
    // Idle head: utilization 0 at minute 2.
    EXPECT_DOUBLE_EQ(tr.target_util().value_at(2.0 * 60.0), 0.0);
    // Load window: utilization 100 at minute 20.
    EXPECT_DOUBLE_EQ(tr.target_util().value_at(20.0 * 60.0), 100.0);
    // Cooldown: idle again at minute 40.
    EXPECT_DOUBLE_EQ(tr.target_util().value_at(40.0 * 60.0), 0.0);
    // Temperature near the end of the load window approaches the 1800 RPM
    // steady anchor.
    EXPECT_NEAR(tr.avg_cpu_temp().value_at(35.0 * 60.0 - 10.0), 85.4, 3.0);
}

TEST(Experiment, SweepCoversCrossProduct) {
    server_simulator s;
    const auto pts = sim::run_steady_sweep(s, {25.0, 100.0}, {1800_rpm, 4200_rpm});
    ASSERT_EQ(pts.size(), 4U);
    EXPECT_DOUBLE_EQ(pts[0].utilization_pct, 25.0);
    EXPECT_DOUBLE_EQ(pts[0].fan_rpm, 1800.0);
    EXPECT_DOUBLE_EQ(pts[3].utilization_pct, 100.0);
    EXPECT_DOUBLE_EQ(pts[3].fan_rpm, 4200.0);
}

TEST(Experiment, PaperUtilizationLevels) {
    const auto levels = sim::paper_utilization_levels();
    ASSERT_EQ(levels.size(), 8U);
    EXPECT_DOUBLE_EQ(levels.front(), 10.0);
    EXPECT_DOUBLE_EQ(levels.back(), 100.0);
}

// --- metrics -----------------------------------------------------------------

TEST(Metrics, EnergyIntegralOfConstantPower) {
    server_simulator s;
    workload::utilization_profile p("const");
    p.idle(10.0_min);
    s.bind_workload(p);
    s.force_cold_start();
    s.advance(10.0_min);
    const auto m = sim::compute_metrics(s, "const", "none");
    const double avg_w = s.trace().total_power().mean();
    EXPECT_NEAR(m.energy_kwh, avg_w * (10.0 / 60.0) / 1000.0, 0.002);
    EXPECT_NEAR(m.duration_s, 600.0, 2.0);
}

TEST(Metrics, NetSavingsDefinition) {
    sim::run_metrics base;
    base.energy_kwh = 0.6695;
    base.duration_s = 80.0 * 60.0;
    sim::run_metrics cand = base;
    cand.energy_kwh = 0.6556;
    // With 366 W idle power the paper's Test-1 numbers give ~7.7 %.
    const double s = sim::net_savings(cand, base, 366_W);
    EXPECT_NEAR(s, 0.077, 0.005);
}

TEST(Metrics, NetSavingsRequiresPositiveBaselineNet) {
    sim::run_metrics base;
    base.energy_kwh = 0.4;
    base.duration_s = 80.0 * 60.0;
    sim::run_metrics cand = base;
    EXPECT_THROW(static_cast<void>(sim::net_savings(cand, base, 366_W)), util::precondition_error);
}

TEST(Metrics, TraceTooShortThrows) {
    server_simulator s;
    EXPECT_THROW(sim::compute_metrics(s, "t", "c"), util::precondition_error);
}

}  // namespace
