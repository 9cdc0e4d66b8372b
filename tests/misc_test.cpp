// Coverage for the remaining corners: logging, error types, trace export,
// runtime configuration validation, and failure injection around the
// telemetry/controller boundary.
#include <gtest/gtest.h>

#include <sstream>

#include "core/controller_runtime.hpp"
#include "core/default_controller.hpp"
#include "sim/experiment.hpp"
#include "sim/trace_io.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "workload/profile.hpp"

#include "trace_csv_check.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

// --- error hierarchy ---------------------------------------------------------

TEST(Errors, HierarchyAndMessages) {
    try {
        util::ensure(false, "contract broken");
        FAIL() << "ensure did not throw";
    } catch (const util::precondition_error& e) {
        EXPECT_STREQ(e.what(), "contract broken");
    }
    try {
        util::ensure_numeric(false, "diverged");
        FAIL() << "ensure_numeric did not throw";
    } catch (const util::numeric_error& e) {
        EXPECT_STREQ(e.what(), "diverged");
    }
    // Both derive from ltsc_error and std::runtime_error.
    EXPECT_THROW(util::ensure(false, "x"), util::ltsc_error);
    EXPECT_THROW(util::ensure(false, "x"), std::runtime_error);
    EXPECT_NO_THROW(util::ensure(true, "x"));
}

// --- logging ------------------------------------------------------------------

class LogLevelGuard {
public:
    LogLevelGuard() : saved_(util::get_log_level()) {}
    ~LogLevelGuard() { util::set_log_level(saved_); }

private:
    util::log_level saved_;
};

TEST(Log, LevelRoundTrips) {
    LogLevelGuard guard;
    util::set_log_level(util::log_level::debug);
    EXPECT_EQ(util::get_log_level(), util::log_level::debug);
    util::set_log_level(util::log_level::off);
    EXPECT_EQ(util::get_log_level(), util::log_level::off);
}

TEST(Log, LevelNames) {
    EXPECT_STREQ(util::to_string(util::log_level::info), "info");
    EXPECT_STREQ(util::to_string(util::log_level::error), "error");
    EXPECT_STREQ(util::to_string(util::log_level::off), "off");
}

TEST(Log, StreamInterfaceDoesNotThrow) {
    LogLevelGuard guard;
    util::set_log_level(util::log_level::off);
    EXPECT_NO_THROW(util::log_info() << "value = " << 42 << " W");
    EXPECT_NO_THROW(util::log(util::log_level::warn, "suppressed"));
}

// --- trace export ---------------------------------------------------------------

class TraceFixture : public ::testing::Test {
protected:
    void SetUp() override {
        workload::utilization_profile p("t");
        p.constant(50.0, 2.0_min);
        sim_.bind_workload(p);
        sim_.force_cold_start();
        sim_.advance(2.0_min);
    }
    sim::server_simulator sim_;
};

TEST_F(TraceFixture, NamedSeriesCoverAllChannels) {
    EXPECT_EQ(sim::trace_channel_count, 16U);
    for (std::size_t c = 0; c < sim::trace_channel_count; ++c) {
        const auto ch = static_cast<sim::trace_channel>(c);
        const std::string name = sim::trace_channel_name(ch);
        EXPECT_FALSE(name.empty());
        EXPECT_EQ(sim_.trace().channel(ch).size(), sim_.trace().total_power().size()) << name;
    }
}

TEST_F(TraceFixture, ColumnarCsvParsesBack) {
    // Columnar layout: the shared time axis appears once, so the dump is
    // one line per recorded step instead of 16.
    std::ostringstream os;
    sim::write_trace_csv(os, sim_.trace());
    test::expect_columnar_trace_csv(os.str(), sim_.trace());
}

// --- runtime configuration validation ----------------------------------------------

TEST(Runtime, RejectsBadConfig) {
    sim::server_simulator s;
    core::default_controller c;
    workload::utilization_profile p("x");
    p.constant(10.0, 1.0_min);
    core::runtime_config cfg;
    cfg.sim_dt = util::seconds_t{0.0};
    EXPECT_THROW(core::run_controlled(s, c, p, cfg), util::precondition_error);
    cfg = core::runtime_config{};
    cfg.util_window = util::seconds_t{0.0};
    EXPECT_THROW(core::run_controlled(s, c, p, cfg), util::precondition_error);
}

TEST(Runtime, InitialRpmRespected) {
    sim::server_simulator s;
    core::default_controller c(3000_rpm);
    workload::utilization_profile p("x");
    p.constant(10.0, 2.0_min);
    core::runtime_config cfg;
    cfg.initial_rpm = 4200_rpm;
    const auto m = core::run_controlled(s, c, p, cfg);
    // The controller pulls the speed from the initial 4200 to its fixed
    // 3000 at the first decision; that counts as one change.
    EXPECT_EQ(m.fan_changes, 1U);
    EXPECT_DOUBLE_EQ(s.fan_speed(0).value(), 3000.0);
}

// --- failure injection: missing sensors / misuse --------------------------------------

TEST(FailureInjection, SimulatorWithoutWorkloadIdles) {
    sim::server_simulator s;
    s.step(1_s);  // no workload bound: behaves as idle, must not throw
    EXPECT_DOUBLE_EQ(s.trace().target_util().back().v, 0.0);
    EXPECT_DOUBLE_EQ(s.measured_utilization(util::seconds_t{60.0}), 0.0);
}

TEST(FailureInjection, StepRejectsNonPositiveDt) {
    sim::server_simulator s;
    EXPECT_THROW(s.step(util::seconds_t{0.0}), util::precondition_error);
    EXPECT_THROW(s.step(util::seconds_t{-1.0}), util::precondition_error);
}

// --- scalar -> per-zone adapter -------------------------------------------------------

TEST(ZoneAdapter, ScalarControllerReplicatesAcrossZones) {
    core::default_controller c(3000_rpm);
    core::controller_inputs in;
    in.current_rpm = 3300_rpm;
    in.zone_rpm = {3300_rpm, 3300_rpm, 3300_rpm};
    const auto zones = c.decide_zones(in);
    ASSERT_TRUE(zones.has_value());
    ASSERT_EQ(zones->size(), 3U);
    for (const auto& z : *zones) {
        EXPECT_DOUBLE_EQ(z.value(), 3000.0);
    }
}

TEST(ZoneAdapter, NoDecisionMeansNoZoneCommand) {
    core::default_controller c(3300_rpm);
    core::controller_inputs in;
    in.current_rpm = 3300_rpm;  // already at target
    in.zone_rpm = {3300_rpm, 3300_rpm, 3300_rpm};
    EXPECT_FALSE(c.decide_zones(in).has_value());
}

// --- protocol timing customization -----------------------------------------------------

TEST(Protocol, CustomTimingHonoured) {
    sim::server_simulator s;
    sim::protocol_timing t;
    t.stabilization = 1.0_min;
    t.load_window = 3.0_min;
    t.cooldown = 1.0_min;
    sim::run_protocol_experiment(s, 2400_rpm, 80.0, t);
    EXPECT_NEAR(s.trace().total_power().duration(), 5.0 * 60.0, 2.0);
    EXPECT_DOUBLE_EQ(s.trace().target_util().value_at(30.0), 0.0);
    EXPECT_DOUBLE_EQ(s.trace().target_util().value_at(2.0 * 60.0), 80.0);
}

TEST(FailureInjection, TelemetryChannelsPresent) {
    // The CSTH complement: 4 CPU temps, 32 DIMM temps, system power
    // (+ fan power).  The DIMM sensors are read at every poll (keeping
    // the noise stream aligned) but not recorded.
    sim::server_simulator s;
    const util::frame& h = s.telemetry().history();
    EXPECT_EQ(h.channel_count(), 4U + 1U + 1U);
    for (const char* name : {"cpu0_temp_a", "cpu0_temp_b", "cpu1_temp_a", "cpu1_temp_b"}) {
        EXPECT_TRUE(h.has_channel(name)) << name;
    }
    EXPECT_TRUE(h.has_channel("system_power"));
    EXPECT_TRUE(h.has_channel("fan_power"));
    EXPECT_FALSE(h.has_channel("dimm31_temp"));
    EXPECT_THROW(static_cast<void>(h.column("nonexistent")), util::precondition_error);
}

}  // namespace
