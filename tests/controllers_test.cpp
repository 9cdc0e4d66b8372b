// Unit tests for the fan controllers: default, bang-bang, LUT, PID and
// extremum-seeking.  These test the *decision logic* in isolation; the
// closed-loop behaviour is covered by integration_test.cpp.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <vector>

#include "core/bang_bang_controller.hpp"
#include "core/default_controller.hpp"
#include "core/extremum_seeking_controller.hpp"
#include "core/fan_lut.hpp"
#include "core/lut_controller.hpp"
#include "core/pid_controller.hpp"
#include "util/error.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;
using core::controller_inputs;

controller_inputs at(double t_s, double util, double temp, double rpm) {
    controller_inputs in;
    in.now = util::seconds_t{t_s};
    in.utilization_pct = util;
    in.max_cpu_temp = util::celsius_t{temp};
    in.current_rpm = util::rpm_t{rpm};
    return in;
}

// --- default ----------------------------------------------------------------

TEST(DefaultController, CommandsFixedSpeedOnce) {
    core::default_controller c;
    auto cmd = c.decide(at(0.0, 0.0, 40.0, 3600.0));
    ASSERT_TRUE(cmd.has_value());
    EXPECT_DOUBLE_EQ(cmd->value(), 3300.0);
    // Already at speed: no further commands regardless of conditions.
    EXPECT_FALSE(c.decide(at(10.0, 100.0, 90.0, 3300.0)).has_value());
}

TEST(DefaultController, CustomSpeed) {
    core::default_controller c(3000_rpm);
    EXPECT_DOUBLE_EQ(c.decide(at(0.0, 0.0, 40.0, 3300.0))->value(), 3000.0);
    EXPECT_EQ(c.name(), "Default");
}

// --- bang-bang -----------------------------------------------------------------

TEST(BangBang, FiveActionTable) {
    core::bang_bang_controller c;
    // T < 60: minimum speed.
    EXPECT_DOUBLE_EQ(c.decide(at(0, 0, 55.0, 3300.0))->value(), 1800.0);
    // 60 <= T < 65: step down.
    EXPECT_DOUBLE_EQ(c.decide(at(0, 0, 62.0, 3000.0))->value(), 2400.0);
    // 65 <= T <= 75: hold.
    EXPECT_FALSE(c.decide(at(0, 0, 70.0, 2400.0)).has_value());
    // 75 < T <= 80: step up.
    EXPECT_DOUBLE_EQ(c.decide(at(0, 0, 77.0, 2400.0))->value(), 3000.0);
    // T > 80: maximum.
    EXPECT_DOUBLE_EQ(c.decide(at(0, 0, 82.0, 2400.0))->value(), 4200.0);
}

TEST(BangBang, ExactBandEdgesHold) {
    core::bang_bang_controller c;
    EXPECT_FALSE(c.decide(at(0, 0, 65.0, 2400.0)).has_value());
    EXPECT_FALSE(c.decide(at(0, 0, 75.0, 2400.0)).has_value());
}

TEST(BangBang, ClampsAtRails) {
    core::bang_bang_controller c;
    // Already at min and told to go lower: no command.
    EXPECT_FALSE(c.decide(at(0, 0, 62.0, 1800.0)).has_value());
    EXPECT_FALSE(c.decide(at(0, 0, 55.0, 1800.0)).has_value());
    // Already at max and told to go higher: no command.
    EXPECT_FALSE(c.decide(at(0, 0, 77.0, 4200.0)).has_value());
    EXPECT_FALSE(c.decide(at(0, 0, 85.0, 4200.0)).has_value());
}

TEST(BangBang, IgnoresUtilization) {
    core::bang_bang_controller c;
    const auto lo = c.decide(at(0, 0.0, 70.0, 2400.0));
    const auto hi = c.decide(at(0, 100.0, 70.0, 2400.0));
    EXPECT_EQ(lo.has_value(), hi.has_value());
}

TEST(BangBang, ActsSlowerThanCsth) {
    core::bang_bang_controller c;
    EXPECT_GE(c.polling_period().value(), 10.0);
}

TEST(BangBang, MisorderedThresholdsThrow) {
    core::bang_bang_thresholds t;
    t.low_c = 80.0;  // above high_c
    EXPECT_THROW(core::bang_bang_controller{t}, util::precondition_error);
}

// --- LUT table -------------------------------------------------------------------

core::fan_lut paper_like_lut() {
    std::vector<core::lut_entry> entries;
    for (double u : {0.0, 10.0, 25.0, 40.0, 50.0, 60.0}) {
        entries.push_back({u, 1800_rpm, 60.0, 10.0});
    }
    for (double u : {75.0, 90.0, 100.0}) {
        entries.push_back({u, 2400_rpm, 70.0, 18.0});
    }
    return core::fan_lut(entries);
}

TEST(FanLut, StaircaseLookupRoundsUp) {
    const auto lut = paper_like_lut();
    EXPECT_DOUBLE_EQ(lut.lookup(0.0).value(), 1800.0);
    EXPECT_DOUBLE_EQ(lut.lookup(55.0).value(), 1800.0);
    EXPECT_DOUBLE_EQ(lut.lookup(60.0).value(), 1800.0);
    // Between 60 and 75 the table assumes the hotter level.
    EXPECT_DOUBLE_EQ(lut.lookup(61.0).value(), 2400.0);
    EXPECT_DOUBLE_EQ(lut.lookup(100.0).value(), 2400.0);
    // Above the last level the last entry applies.
    EXPECT_DOUBLE_EQ(lut.lookup(150.0).value(), 2400.0);
}

TEST(FanLut, EntriesSortedOnConstruction) {
    std::vector<core::lut_entry> entries{{50.0, 2400_rpm, 0, 0}, {10.0, 1800_rpm, 0, 0}};
    const core::fan_lut lut(entries);
    EXPECT_DOUBLE_EQ(lut.entries().front().utilization_pct, 10.0);
}

TEST(FanLut, DuplicateLevelsRejected) {
    std::vector<core::lut_entry> entries{{50.0, 2400_rpm, 0, 0}, {50.0, 1800_rpm, 0, 0}};
    EXPECT_THROW(core::fan_lut{entries}, util::precondition_error);
}

TEST(FanLut, EmptyTableRejected) {
    EXPECT_THROW(core::fan_lut{std::vector<core::lut_entry>{}}, util::precondition_error);
}

TEST(FanLut, NonFiniteEntriesRejected) {
    // +inf passes an `rpm > 0` check, and a lut_controller would then
    // command an infinite fan speed.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    // Whether a table of one valid row plus `bad` is rejected.
    const auto rejected = [](const core::lut_entry& bad) {
        const std::vector<core::lut_entry> entries{{20.0, 1800_rpm, 50.0, 10.0}, bad};
        try {
            static_cast<void>(core::fan_lut{entries});
        } catch (const util::precondition_error&) {
            return true;
        }
        return false;
    };
    EXPECT_TRUE(rejected({80.0, util::rpm_t{inf}, 60.0, 12.0}));
    EXPECT_TRUE(rejected({80.0, util::rpm_t{nan}, 60.0, 12.0}));
    EXPECT_TRUE(rejected({80.0, 2400_rpm, nan, 12.0}));
    EXPECT_TRUE(rejected({80.0, 2400_rpm, inf, 12.0}));
    EXPECT_TRUE(rejected({80.0, 2400_rpm, 60.0, nan}));
    EXPECT_TRUE(rejected({80.0, 2400_rpm, 60.0, -inf}));
    EXPECT_TRUE(rejected({nan, 2400_rpm, 60.0, 12.0}));
}

TEST(FanLut, CsvRoundTrip) {
    // Write-only format: the header, then one line per entry in level
    // order, each cell the format_number text of the stored field.
    std::ostringstream os;
    paper_like_lut().write_csv(os);
    EXPECT_EQ(os.str(),
              "utilization_pct,rpm,expected_cpu_temp_c,expected_fan_leak_w\n"
              "0,1800,60,10\n10,1800,60,10\n25,1800,60,10\n40,1800,60,10\n"
              "50,1800,60,10\n60,1800,60,10\n"
              "75,2400,70,18\n90,2400,70,18\n100,2400,70,18\n");
}

// --- LUT controller ------------------------------------------------------------

TEST(LutController, PollsEverySecond) {
    core::lut_controller c(paper_like_lut());
    EXPECT_DOUBLE_EQ(c.polling_period().value(), 1.0);
}

TEST(LutController, CommandsLutSpeedOnUtilizationChange) {
    core::lut_controller c(paper_like_lut());
    const auto cmd = c.decide(at(0.0, 100.0, 50.0, 3300.0));
    ASSERT_TRUE(cmd.has_value());
    EXPECT_DOUBLE_EQ(cmd->value(), 2400.0);
}

TEST(LutController, RateLimitHoldsForOneMinute) {
    core::lut_controller c(paper_like_lut());
    ASSERT_TRUE(c.decide(at(0.0, 100.0, 50.0, 3300.0)).has_value());  // -> 2400
    // 10 s later the load drops; the LUT wants 1800 but the lockout holds.
    EXPECT_FALSE(c.decide(at(10.0, 10.0, 50.0, 2400.0)).has_value());
    EXPECT_FALSE(c.decide(at(59.0, 10.0, 50.0, 2400.0)).has_value());
    // After the minute the change goes through.
    const auto cmd = c.decide(at(61.0, 10.0, 50.0, 2400.0));
    ASSERT_TRUE(cmd.has_value());
    EXPECT_DOUBLE_EQ(cmd->value(), 1800.0);
}

TEST(LutController, NoCommandWhenAlreadyOptimal) {
    core::lut_controller c(paper_like_lut());
    EXPECT_FALSE(c.decide(at(0.0, 100.0, 50.0, 2400.0)).has_value());
}

TEST(LutController, EmergencyOverrideBypassesRateLimit) {
    core::lut_controller c(paper_like_lut());
    ASSERT_TRUE(c.decide(at(0.0, 10.0, 50.0, 3300.0)).has_value());  // -> 1800
    // 5 s later a runaway temperature: the override fires despite lockout.
    const auto cmd = c.decide(at(5.0, 10.0, 88.0, 1800.0));
    ASSERT_TRUE(cmd.has_value());
    EXPECT_DOUBLE_EQ(cmd->value(), 4200.0);
}

TEST(LutController, ResetClearsRateLimiter) {
    core::lut_controller c(paper_like_lut());
    ASSERT_TRUE(c.decide(at(0.0, 100.0, 50.0, 3300.0)).has_value());
    c.reset();
    // Fresh run at t=0: first change must not be blocked by stale state.
    EXPECT_TRUE(c.decide(at(0.0, 10.0, 50.0, 2400.0)).has_value());
}

TEST(LutController, ProactiveIgnoresTemperatureBelowEmergency) {
    core::lut_controller c(paper_like_lut());
    // Hot but below emergency: decision driven purely by utilization.
    const auto cmd = c.decide(at(0.0, 10.0, 74.0, 2400.0));
    ASSERT_TRUE(cmd.has_value());
    EXPECT_DOUBLE_EQ(cmd->value(), 1800.0);
}

// --- PID --------------------------------------------------------------------------

TEST(Pid, PushesUpWhenHot) {
    core::pid_controller c;
    const auto cmd = c.decide(at(0.0, 0.0, 85.0, 1800.0));
    ASSERT_TRUE(cmd.has_value());
    EXPECT_GT(cmd->value(), 1800.0);
}

TEST(Pid, StaysLowWhenCold) {
    core::pid_controller c;
    const auto cmd = c.decide(at(0.0, 0.0, 40.0, 3300.0));
    ASSERT_TRUE(cmd.has_value());
    EXPECT_DOUBLE_EQ(cmd->value(), 1800.0);
}

TEST(Pid, DeadbandSuppressesSmallMoves) {
    core::pid_controller c;
    // First decision establishes state near the current speed.
    (void)c.decide(at(0.0, 0.0, 70.0, 1800.0));
    // Tiny error: commanded move smaller than the deadband.
    EXPECT_FALSE(c.decide(at(10.0, 0.0, 70.2, 1800.0)).has_value());
}

TEST(Pid, OutputClampedToRange) {
    core::pid_controller c;
    for (int i = 0; i < 50; ++i) {
        const auto cmd = c.decide(at(i * 10.0, 0.0, 95.0, 4200.0));
        if (cmd.has_value()) {
            EXPECT_LE(cmd->value(), 4200.0);
            EXPECT_GE(cmd->value(), 1800.0);
        }
    }
}

TEST(Pid, AntiWindupFreezesIntegralAtRail) {
    core::pid_controller c;
    // Long saturation at max with persistent positive error.
    for (int i = 0; i < 100; ++i) {
        (void)c.decide(at(i * 10.0, 0.0, 90.0, 4200.0));
    }
    // Error flips: without anti-windup the integral would pin the output
    // high for a long time; with it, the command falls promptly.
    std::optional<util::rpm_t> cmd;
    for (int i = 100; i < 110 && !cmd.has_value(); ++i) {
        cmd = c.decide(at(i * 10.0, 0.0, 50.0, 4200.0));
    }
    ASSERT_TRUE(cmd.has_value());
    EXPECT_LT(cmd->value(), 4200.0);
}

// --- extremum seeking -----------------------------------------------------------

TEST(ExtremumSeek, ProbesDownFirst) {
    core::extremum_seeking_controller c;
    const auto cmd = c.decide(at(0.0, 50.0, 60.0, 3300.0));
    ASSERT_TRUE(cmd.has_value());
    EXPECT_DOUBLE_EQ(cmd->value(), 2700.0);
}

TEST(ExtremumSeek, KeepsDirectionWhileImproving) {
    core::extremum_seeking_controller c;
    controller_inputs in = at(0.0, 50.0, 60.0, 3300.0);
    in.system_power = 520_W;
    auto cmd = c.decide(in);  // baseline + probe down
    ASSERT_TRUE(cmd.has_value());
    in = at(120.0, 50.0, 60.0, cmd->value());
    in.system_power = 510_W;  // improved
    cmd = c.decide(in);
    ASSERT_TRUE(cmd.has_value());
    EXPECT_LT(cmd->value(), 2700.0);  // keeps descending
}

TEST(ExtremumSeek, ReversesWhenWorse) {
    core::extremum_seeking_controller c;
    controller_inputs in = at(0.0, 50.0, 60.0, 2400.0);
    in.system_power = 500_W;
    auto cmd = c.decide(in);  // probe down to 1800
    ASSERT_TRUE(cmd.has_value());
    EXPECT_DOUBLE_EQ(cmd->value(), 1800.0);
    in = at(120.0, 50.0, 60.0, 1800.0);
    in.system_power = 515_W;  // worse: leakage won
    cmd = c.decide(in);
    ASSERT_TRUE(cmd.has_value());
    EXPECT_DOUBLE_EQ(cmd->value(), 2400.0);  // turns around
}

TEST(ExtremumSeek, TemperatureGuardOverrides) {
    core::extremum_seeking_controller c;
    controller_inputs in = at(0.0, 50.0, 78.0, 2400.0);
    in.system_power = 500_W;
    const auto cmd = c.decide(in);
    ASSERT_TRUE(cmd.has_value());
    EXPECT_DOUBLE_EQ(cmd->value(), 3000.0);
}

TEST(ExtremumSeek, UtilizationJumpRestartsSearch) {
    core::extremum_seeking_controller c;
    controller_inputs in = at(0.0, 20.0, 60.0, 3300.0);
    in.system_power = 450_W;
    (void)c.decide(in);
    // Utilization leaps by 60 points: previous comparison is void; the
    // controller re-baselines and probes downward again.
    in = at(120.0, 80.0, 65.0, 2700.0);
    in.system_power = 600_W;
    const auto cmd = c.decide(in);
    ASSERT_TRUE(cmd.has_value());
    EXPECT_DOUBLE_EQ(cmd->value(), 2100.0);
}

}  // namespace
