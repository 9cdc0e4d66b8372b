// Tests of the calibrated server thermal model against the paper's
// Fig. 1 anchors: steady temperatures per fan speed and fan-speed-
// dependent time constants.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/server_simulator.hpp"
#include "thermal/sensors.hpp"
#include "thermal/server_thermal_model.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/paper_tests.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;
using thermal::server_thermal_model;

/// Applies the heat corresponding to a given utilization at the paper's
/// calibration (45 W idle + 61.25 W active per socket at 100 %, DIMMs
/// 40 W idle + 105 W active, leakage share from the paper model).
void apply_utilization_heat(server_thermal_model& m, double util_pct) {
    for (int iter = 0; iter < 10; ++iter) {
        for (std::size_t s = 0; s < server_thermal_model::socket_count(); ++s) {
            const double leak_share =
                0.5 * (8.0 + 0.3231 * std::exp(0.04749 * m.cpu_die_temp(0, s).value()));
            m.set_cpu_heat(0, s, util::watts_t{45.0 + 61.25 * util_pct / 100.0 + leak_share});
        }
        m.set_dimm_heat(0, util::watts_t{40.0 + 105.0 * util_pct / 100.0});
        m.settle(0);
    }
}

std::vector<util::cfm_t> airflow_at(double rpm) {
    // Pair airflow = 51 CFM at 4200 RPM, linear in RPM.
    const double per_pair = 51.0 * rpm / 4200.0;
    return {util::cfm_t{per_pair}, util::cfm_t{per_pair}, util::cfm_t{per_pair}};
}

TEST(ServerThermal, SteadyAnchorsAt100PctLoad) {
    // Fig. 1(a): ~85 degC at 1800 RPM down to ~55 degC at 4200 RPM.
    const struct {
        double rpm;
        double expected_c;
        double tol;
    } anchors[] = {
        {1800.0, 85.4, 1.5}, {2400.0, 72.0, 1.5}, {3000.0, 65.0, 1.5},
        {3600.0, 60.5, 1.5}, {4200.0, 57.3, 1.5},
    };
    for (const auto& a : anchors) {
        server_thermal_model m;
        m.set_zone_airflow(0, airflow_at(a.rpm));
        apply_utilization_heat(m, 100.0);
        EXPECT_NEAR(m.average_cpu_temp(0).value(), a.expected_c, a.tol) << "rpm " << a.rpm;
    }
}

TEST(ServerThermal, SteadyTempMonotonicallyDecreasesWithRpm) {
    double prev = 1e9;
    for (double rpm : {1800.0, 2400.0, 3000.0, 3600.0, 4200.0}) {
        server_thermal_model m;
        m.set_zone_airflow(0, airflow_at(rpm));
        apply_utilization_heat(m, 100.0);
        EXPECT_LT(m.average_cpu_temp(0).value(), prev);
        prev = m.average_cpu_temp(0).value();
    }
}

TEST(ServerThermal, SteadyTempMonotonicallyIncreasesWithLoad) {
    double prev = 0.0;
    for (double util : {0.0, 25.0, 50.0, 75.0, 100.0}) {
        server_thermal_model m;
        m.set_zone_airflow(0, airflow_at(1800.0));
        apply_utilization_heat(m, util);
        EXPECT_GT(m.average_cpu_temp(0).value(), prev);
        prev = m.average_cpu_temp(0).value();
    }
}

/// Time to close 95 % of the gap to steady state after a cold start, with
/// heats frozen at the full-utilization values.
double settle_time_s(double rpm) {
    const auto configure = [&](server_thermal_model& m) {
        m.set_zone_airflow(0, airflow_at(rpm));
        for (std::size_t s = 0; s < server_thermal_model::socket_count(); ++s) {
            m.set_cpu_heat(0, s, util::watts_t{45.0 + 61.25 + 10.0});
        }
        m.set_dimm_heat(0, util::watts_t{145.0});
    };
    server_thermal_model steady;
    configure(steady);
    steady.settle(0);
    const double end = steady.average_cpu_temp(0).value();

    server_thermal_model probe;
    configure(probe);
    probe.reset(0);
    const double start = probe.average_cpu_temp(0).value();
    for (double t = 0.0; t < 3600.0; t += 5.0) {
        probe.step(util::seconds_t{5.0});
        if (probe.average_cpu_temp(0).value() >= start + 0.95 * (end - start)) {
            return t + 5.0;
        }
    }
    return 3600.0;
}

TEST(ServerThermal, TimeConstantDependsOnFanSpeed) {
    // Fig. 1(a): steady state after ~15 min at 1800 RPM vs ~5 min at 4200.
    const double slow = settle_time_s(1800.0);
    const double fast = settle_time_s(4200.0);
    EXPECT_GT(slow, 1.8 * fast);
    EXPECT_GT(slow, 8.0 * 60.0);   // minutes-scale at low RPM
    EXPECT_LT(slow, 20.0 * 60.0);
    EXPECT_LT(fast, 8.0 * 60.0);   // settles within ~5-8 min at high RPM
}

TEST(ServerThermal, FastTransientOnLoadStep) {
    // Fig. 1(b): a step from idle to full load raises die temperature by
    // 5-8 degC in under 30 seconds (the junction fast path).
    server_thermal_model m;
    m.set_zone_airflow(0, airflow_at(1800.0));
    apply_utilization_heat(m, 0.0);
    const double before = m.average_cpu_temp(0).value();
    for (std::size_t s = 0; s < server_thermal_model::socket_count(); ++s) {
        const double leak_share =
            0.5 * (8.0 + 0.3231 * std::exp(0.04749 * m.cpu_die_temp(0, s).value()));
        m.set_cpu_heat(0, s, util::watts_t{45.0 + 61.25 + leak_share});
    }
    m.set_dimm_heat(0, util::watts_t{145.0});
    m.step(util::seconds_t{30.0});
    const double rise = m.average_cpu_temp(0).value() - before;
    EXPECT_GE(rise, 5.0);
    EXPECT_LE(rise, 10.0);
}

TEST(ServerThermal, DimmPreheatRaisesCpuInletTemp) {
    // The DIMM field has no edge to the CPUs: its heat reaches them only
    // as preheat of the CPU inlet air, which shifts both dies by the
    // inlet rise (fixed heats, so no leakage feedback).
    const auto settled_die = [](double dimm_w) {
        server_thermal_model m;
        m.set_zone_airflow(0, airflow_at(1800.0));
        m.set_cpu_heat(0, 0, util::watts_t{110.0});
        m.set_cpu_heat(0, 1, util::watts_t{110.0});
        m.set_dimm_heat(0, util::watts_t{dimm_w});
        m.settle(0);
        return m.average_cpu_temp(0).value();
    };
    const double rise = settled_die(145.0) - settled_die(0.0);
    EXPECT_GT(rise, 1.0);
    EXPECT_LT(rise, 10.0);
}

TEST(ServerThermal, AmbientShiftShiftsSteadyState) {
    server_thermal_model a;
    a.set_zone_airflow(0, airflow_at(3000.0));
    apply_utilization_heat(a, 50.0);
    const double at24 = a.average_cpu_temp(0).value();
    a.set_ambient(0, util::celsius_t{34.0});
    apply_utilization_heat(a, 50.0);
    // Raising ambient 10 degC raises steady CPU temp by ~10 degC (plus a
    // little extra leakage feedback).
    EXPECT_NEAR(a.average_cpu_temp(0).value() - at24, 10.0, 2.0);
}

TEST(ServerThermal, AsymmetricZoneAirflowSkewsSockets) {
    server_thermal_model m;
    m.set_zone_airflow(0, {util::cfm_t{40.0}, util::cfm_t{10.0}, util::cfm_t{25.0}});
    for (std::size_t s = 0; s < server_thermal_model::socket_count(); ++s) {
        m.set_cpu_heat(0, s, util::watts_t{110.0});
    }
    m.set_dimm_heat(0, util::watts_t{100.0});
    m.settle(0);
    // Socket 0 sits in the high-flow zone: it must run cooler.
    EXPECT_LT(m.cpu_die_temp(0, 0).value(), m.cpu_die_temp(0, 1).value() - 3.0);
}

TEST(ServerThermal, ZeroTotalAirflowRejected) {
    server_thermal_model m;
    EXPECT_THROW(m.set_zone_airflow(0, {util::cfm_t{0.0}, util::cfm_t{0.0}, util::cfm_t{0.0}}),
                 util::precondition_error);
}

TEST(ServerThermal, ZoneCountMismatchThrows) {
    server_thermal_model m;
    EXPECT_THROW(m.set_zone_airflow(0, {util::cfm_t{30.0}}), util::precondition_error);
}

TEST(ServerThermal, NegativeHeatThrows) {
    server_thermal_model m;
    EXPECT_THROW(m.set_cpu_heat(0, 0, util::watts_t{-5.0}), util::precondition_error);
    EXPECT_THROW(m.set_dimm_heat(0, util::watts_t{-5.0}), util::precondition_error);
    EXPECT_THROW(m.set_cpu_heat(0, 7, util::watts_t{5.0}), util::precondition_error);
}

TEST(ServerThermal, ResetReturnsToAmbient) {
    server_thermal_model m;
    apply_utilization_heat(m, 100.0);
    EXPECT_GT(m.average_cpu_temp(0).value(), 50.0);
    m.reset(0);
    EXPECT_NEAR(m.average_cpu_temp(0).value(), m.ambient(0).value(), 1e-9);
}

TEST(ServerThermal, LanesMatchOneLaneModelsBitwise) {
    // An N-lane model is N one-lane models stepped together: lanes with
    // different calibrations, airflow and heat stay bitwise-equal to their
    // one-lane twins through steps, steady solves and a masked step.
    std::vector<thermal::server_thermal_config> configs(3);
    configs[1].ambient_c = 30.0;
    configs[1].c_die = 45.0;
    configs[2].r_junction_sink = 0.2;
    configs[2].g_dimm_ref = 4.0;
    server_thermal_model lanes(configs);
    std::vector<server_thermal_model> singles;
    singles.reserve(configs.size());
    for (const auto& c : configs) {
        singles.emplace_back(c);
    }
    ASSERT_EQ(lanes.lane_count(), 3U);
    const auto drive = [](server_thermal_model& m, std::size_t lane, std::size_t k) {
        m.set_zone_airflow(lane, airflow_at(1800.0 + 600.0 * static_cast<double>(k)));
        m.set_cpu_heat(lane, 0, util::watts_t{100.0 + 10.0 * static_cast<double>(k)});
        m.set_cpu_heat(lane, 1, util::watts_t{90.0});
        m.set_dimm_heat(lane, util::watts_t{120.0});
    };
    const auto expect_equal = [&](const char* where) {
        for (std::size_t l = 0; l < 3; ++l) {
            for (std::size_t s = 0; s < server_thermal_model::socket_count(); ++s) {
                ASSERT_EQ(lanes.cpu_die_temp(l, s).value(), singles[l].cpu_die_temp(0, s).value())
                    << where << ", lane " << l;
            }
            ASSERT_EQ(lanes.dimm_temp(l).value(), singles[l].dimm_temp(0).value())
                << where << ", lane " << l;
        }
    };
    for (std::size_t l = 0; l < 3; ++l) {
        drive(lanes, l, l);
        drive(singles[l], 0, l);
    }
    for (int k = 0; k < 100; ++k) {
        lanes.step(util::seconds_t{1.0});
        for (auto& m : singles) {
            m.step(util::seconds_t{1.0});
        }
    }
    expect_equal("after steps");
    lanes.settle(1);
    singles[1].settle(0);
    expect_equal("after settling lane 1");
    const unsigned char active[3] = {1, 0, 1};
    lanes.step(util::seconds_t{1.0}, active);
    singles[0].step(util::seconds_t{1.0});
    singles[2].step(util::seconds_t{1.0});
    expect_equal("after a masked step");
}

// --- sensors -------------------------------------------------------------

TEST(Sensors, NoiselessSensorReportsBiasedTruth) {
    util::pcg32 rng(1);
    const thermal::temperature_sensor s(util::celsius_t{1.5}, 0.0, 0.0);
    EXPECT_DOUBLE_EQ(s.read(60_degC, rng).value(), 61.5);
}

TEST(Sensors, QuantizationSnapsToGrid) {
    util::pcg32 rng(2);
    const thermal::temperature_sensor s(util::celsius_t{0.0}, 0.0, 0.25);
    EXPECT_DOUBLE_EQ(s.read(util::celsius_t{60.13}, rng).value(), 60.25);
}

TEST(Sensors, NoiseHasExpectedSpread) {
    util::pcg32 rng(3);
    const thermal::temperature_sensor s(util::celsius_t{0.0}, 0.5, 0.0);
    double acc = 0.0;
    double acc2 = 0.0;
    constexpr int n = 5000;
    for (int i = 0; i < n; ++i) {
        const double v = s.read(60_degC, rng).value();
        acc += v;
        acc2 += v * v;
    }
    const double mean = acc / n;
    const double var = acc2 / n - mean * mean;
    EXPECT_NEAR(mean, 60.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 0.5, 0.05);
}

TEST(Sensors, ServerSuiteHasPaperComplement) {
    const auto suite = thermal::make_server_sensors(32);
    EXPECT_EQ(suite.cpu.size(), 4U);    // 2 per die
    EXPECT_EQ(suite.dimm.size(), 32U);  // 1 per DIMM
}

TEST(Sensors, DimmGradientSpreadsReadings) {
    util::pcg32 rng(5);
    const auto suite = thermal::make_server_sensors(32, /*noise=*/0.0, /*quantum=*/0.0);
    const double first = suite.dimm.front().read(45_degC, rng).value();
    const double last = suite.dimm.back().read(45_degC, rng).value();
    EXPECT_NEAR(last - first, 3.0, 1e-9);  // positional gradient
}

TEST(Sensors, PlantReadingStreamIsPinned) {
    // The goldens compare within bands, so a reordered or dropped noise
    // draw could slip past them.  Readings are quantized to 0.25 degC,
    // so the delivered CPU values of the first 30 polls (cold-start poll
    // included) are exact.  Each poll draws cpu0_a, cpu0_b, cpu1_a,
    // cpu1_b, then skips every DIMM sensor's draw, on the lane's one RNG
    // stream.
    const std::vector<std::vector<double>> expected = {
        {39, 40.5, 39, 40.5},
        {39, 40.75, 39, 40.75},
        {39.25, 40.75, 39.25, 40.75},
        {39.25, 40.5, 39, 40.5},
        {38.75, 40.25, 39, 40.5},
        {39, 41, 39.25, 40.5},
        {38.75, 40.75, 39, 40.5},
        {39.25, 40.75, 39, 40.75},
        {39, 40.5, 39.25, 40.75},
        {39, 40.75, 39.25, 40.75},
        {39, 41, 38.75, 40.5},
        {39, 40.5, 39.25, 40.5},
        {39, 40.25, 39.25, 41},
        {38.75, 40.75, 39, 40.75},
        {38.5, 40.5, 39, 40.5},
        {38.75, 40.5, 39, 40.5},
        {38.75, 40.75, 39.25, 41},
        {38.75, 40.75, 39.25, 40.75},
        {39.25, 40.5, 39, 40.5},
        {39.25, 40.5, 39, 40.75},
        {39, 40.25, 39, 40.5},
        {39.25, 40.75, 39, 41},
        {39, 40.75, 39, 40.5},
        {38.75, 40.75, 39, 40.75},
        {39, 40.5, 39, 40.75},
        {38.75, 41, 39, 40.75},
        {39.25, 40.75, 39, 40.5},
        {39.25, 40.5, 39.25, 40.5},
        {39, 40.75, 39.25, 40.5},
        {39.25, 40.5, 39, 40.75},
    };
    sim::server_config config = sim::paper_server();
    config.seed = 1;
    sim::server_simulator s(config);
    s.bind_workload(workload::make_paper_test(workload::paper_test::test2_periods));
    s.force_cold_start();
    std::vector<std::vector<double>> polls{s.cpu_sensor_temps()};
    while (polls.size() < expected.size()) {
        s.step(1_s);
        if (s.telemetry_age_s() == 0.0) {  // this step polled
            polls.push_back(s.cpu_sensor_temps());
        }
    }
    for (std::size_t p = 0; p < expected.size(); ++p) {
        EXPECT_EQ(polls[p], expected[p]) << "poll " << p;
    }
}

TEST(Sensors, OddDimmCountMonitoredStreamIsPinned) {
    // With 31 DIMMs a poll draws 35 normals, so every other poll starts
    // on a cached half left by the skipped DIMM draws: this pins the
    // odd half-pair the skip must still transform.  A monitored lane,
    // so the monitor's poll path rides along.
    const std::vector<std::vector<double>> expected = {
        {39, 40.75, 39, 40.75},
        {39, 41, 39.25, 40.5},
        {39, 41, 39, 40.5},
        {39, 40.5, 39, 40.5},
        {38.75, 41, 38.75, 40.75},
        {39.25, 40.5, 39.25, 40.75},
        {39.25, 40.75, 39, 40.5},
        {39, 40.5, 39.25, 40.5},
        {39, 40.5, 39, 40.75},
        {39, 40.75, 39, 40.75},
        {39, 40.75, 39.25, 40.5},
        {39, 40.75, 39.25, 40.5},
        {39, 40.5, 39, 40.75},
        {39.25, 40.75, 39, 40.5},
        {39, 40.75, 39, 40.5},
        {38.75, 40.5, 39.25, 40.5},
        {38.75, 40.5, 39, 40.75},
        {39.25, 40.5, 39, 40.75},
        {38.75, 40.75, 39, 40.75},
        {39, 40.75, 38.75, 40.75},
        {39, 40.5, 39, 40.75},
        {39, 40.75, 38.75, 40.75},
        {39, 40.5, 39, 40.75},
        {39, 40.5, 39, 40.5},
        {39, 41, 39.25, 40.5},
        {39, 40.25, 39, 40.75},
        {39, 40.25, 39, 40.75},
        {39, 40.25, 39, 41},
        {39, 40.75, 39, 40.75},
        {39, 40.75, 39, 40.5},
    };
    sim::server_config config = sim::paper_server();
    config.seed = 7;
    config.dimm_count = 31;
    config.monitor.enabled = true;
    sim::server_simulator s(config);
    s.bind_workload(workload::make_paper_test(workload::paper_test::test2_periods));
    s.force_cold_start();
    std::vector<std::vector<double>> polls{s.cpu_sensor_temps()};
    while (polls.size() < expected.size()) {
        s.step(1_s);
        if (s.telemetry_age_s() == 0.0) {  // this step polled
            polls.push_back(s.cpu_sensor_temps());
        }
    }
    for (std::size_t p = 0; p < expected.size(); ++p) {
        EXPECT_EQ(polls[p], expected[p]) << "poll " << p;
    }
}

}  // namespace
