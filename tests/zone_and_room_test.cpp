// Tests for the extensions: per-socket load imbalance and the per-zone
// LUT controller.  The CRAC room model's tests live with the rack
// example (examples/rack/rack_models_test.cpp).
#include <gtest/gtest.h>

#include "core/characterization.hpp"
#include "core/controller_runtime.hpp"
#include "core/lut_controller.hpp"
#include "core/zone_lut_controller.hpp"
#include "sim/metrics.hpp"
#include "sim/server_simulator.hpp"
#include "util/error.hpp"
#include "workload/profile.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

// --- load imbalance ------------------------------------------------------------

TEST(Imbalance, DefaultIsBalanced) {
    sim::server_simulator s;
    EXPECT_DOUBLE_EQ(s.load_imbalance(), 0.5);
}

TEST(Imbalance, OutOfRangeThrows) {
    sim::server_simulator s;
    EXPECT_THROW(s.set_load_imbalance(-0.1), util::precondition_error);
    EXPECT_THROW(s.set_load_imbalance(1.1), util::precondition_error);
}

TEST(Imbalance, SkewHeatsTheLoadedSocket) {
    sim::server_simulator s;
    s.set_load_imbalance(0.8);
    const auto p = sim::measure_steady_point(s, 80.0, 2400_rpm);
    (void)p;
    EXPECT_GT(s.true_cpu_temp(0).value(), s.true_cpu_temp(1).value() + 5.0);
    s.set_load_imbalance(0.5);
}

TEST(Imbalance, TotalPowerUnaffectedBySkew) {
    // The split moves heat between sockets; the wall power stays put
    // (modulo the leakage convexity, which is small).
    sim::server_simulator a;
    sim::server_simulator b;
    b.set_load_imbalance(0.8);
    const auto pa = sim::measure_steady_point(a, 80.0, 2400_rpm);
    const auto pb = sim::measure_steady_point(b, 80.0, 2400_rpm);
    EXPECT_NEAR(pa.total_power_w, pb.total_power_w, 3.0);
}

TEST(Imbalance, SocketUtilizationTelemetry) {
    sim::server_simulator s;
    workload::utilization_profile p("x");
    p.constant(60.0, 30.0_min);
    s.bind_workload(p);
    s.force_cold_start();
    s.set_load_imbalance(0.75);
    s.advance(10.0_min);
    EXPECT_NEAR(s.measured_socket_utilization(0, util::seconds_t{240.0}), 90.0, 5.0);
    EXPECT_NEAR(s.measured_socket_utilization(1, util::seconds_t{240.0}), 30.0, 5.0);
}

TEST(Imbalance, SocketUtilizationClampsAt100) {
    sim::server_simulator s;
    workload::utilization_profile p("x");
    p.constant(90.0, 30.0_min);
    s.bind_workload(p);
    s.force_cold_start();
    s.set_load_imbalance(1.0);
    s.advance(10.0_min);
    EXPECT_LE(s.measured_socket_utilization(0, util::seconds_t{240.0}), 100.0);
}

// --- zone LUT controller -----------------------------------------------------------

core::fan_lut tiny_lut() {
    std::vector<core::lut_entry> rows{{60.0, 1800_rpm, 65.0, 12.0}, {100.0, 2400_rpm, 71.0, 19.0}};
    return core::fan_lut(rows);
}

core::controller_inputs zone_inputs(double u0, double u1, double t0, double t1) {
    core::controller_inputs in;
    in.now = util::seconds_t{0.0};
    in.socket_util_pct = {u0, u1};
    in.socket_temp_c = {t0, t1};
    in.zone_rpm = {3300_rpm, 3300_rpm, 3300_rpm};
    in.current_rpm = 3300_rpm;
    return in;
}

TEST(ZoneLut, BalancedLoadCommandsUniformSpeeds) {
    core::zone_lut_controller c(tiny_lut());
    const auto cmd = c.decide_zones(zone_inputs(80.0, 80.0, 60.0, 60.0));
    ASSERT_TRUE(cmd.has_value());
    ASSERT_EQ(cmd->size(), 3U);
    EXPECT_DOUBLE_EQ((*cmd)[0].value(), 2400.0);
    EXPECT_DOUBLE_EQ((*cmd)[1].value(), 2400.0);
    EXPECT_DOUBLE_EQ((*cmd)[2].value(), 2400.0);
}

TEST(ZoneLut, SkewedLoadCommandsDifferentialSpeeds) {
    core::zone_lut_controller c(tiny_lut());
    const auto cmd = c.decide_zones(zone_inputs(95.0, 20.0, 68.0, 50.0));
    ASSERT_TRUE(cmd.has_value());
    EXPECT_DOUBLE_EQ((*cmd)[0].value(), 2400.0);  // loaded socket
    EXPECT_DOUBLE_EQ((*cmd)[1].value(), 1800.0);  // light socket
    EXPECT_DOUBLE_EQ((*cmd)[2].value(), 1800.0);  // shared zone follows lighter
}

TEST(ZoneLut, PerZoneEmergencyOverride) {
    core::zone_lut_controller c(tiny_lut());
    const auto cmd = c.decide_zones(zone_inputs(20.0, 20.0, 88.0, 50.0));
    ASSERT_TRUE(cmd.has_value());
    EXPECT_DOUBLE_EQ((*cmd)[0].value(), 4200.0);  // runaway socket 0
    EXPECT_DOUBLE_EQ((*cmd)[1].value(), 1800.0);
}

TEST(ZoneLut, RateLimitAppliesAcrossZones) {
    core::zone_lut_controller c(tiny_lut());
    ASSERT_TRUE(c.decide_zones(zone_inputs(80.0, 80.0, 60.0, 60.0)).has_value());
    // 10 s later a new target appears, but the hold is active.
    auto in = zone_inputs(20.0, 20.0, 60.0, 60.0);
    in.now = util::seconds_t{10.0};
    in.zone_rpm = {2400_rpm, 2400_rpm, 2400_rpm};
    EXPECT_FALSE(c.decide_zones(in).has_value());
    in.now = util::seconds_t{70.0};
    EXPECT_TRUE(c.decide_zones(in).has_value());
}

TEST(ZoneLut, ScalarInterfaceReturnsMean) {
    core::zone_lut_controller c(tiny_lut());
    const auto cmd = c.decide(zone_inputs(95.0, 20.0, 68.0, 50.0));
    ASSERT_TRUE(cmd.has_value());
    EXPECT_NEAR(cmd->value(), (2400.0 + 1800.0 + 1800.0) / 3.0, 1e-9);
}

TEST(ZoneLut, ClosedLoopBeatsLockstepUnderSkew) {
    sim::server_simulator s;
    const core::fan_lut table = core::characterize(s).lut;
    workload::utilization_profile p("skew");
    p.idle(5.0_min).constant(80.0, 40.0_min).idle(5.0_min);

    s.set_load_imbalance(0.8);
    core::lut_controller lockstep(table);
    core::zone_lut_controller zones(table);
    const auto m_lock = core::run_controlled(s, lockstep, p);
    const auto m_zone = core::run_controlled(s, zones, p);
    s.set_load_imbalance(0.5);

    EXPECT_LT(m_zone.energy_kwh, m_lock.energy_kwh);
    // One socket carries 160 % of its balanced share: it briefly crosses
    // the 85 degC emergency threshold before the per-zone override fires,
    // but must stay clear of the 90 degC critical limit.
    EXPECT_LT(m_zone.max_temp_c, 88.0);
}

TEST(ZoneLut, ClosedLoopMatchesLockstepWhenBalanced) {
    sim::server_simulator s;
    const core::fan_lut table = core::characterize(s).lut;
    workload::utilization_profile p("bal");
    p.idle(5.0_min).constant(80.0, 30.0_min).idle(5.0_min);
    core::lut_controller lockstep(table);
    core::zone_lut_controller zones(table);
    const auto m_lock = core::run_controlled(s, lockstep, p);
    const auto m_zone = core::run_controlled(s, zones, p);
    EXPECT_NEAR(m_zone.energy_kwh, m_lock.energy_kwh, 0.003);
}

}  // namespace
