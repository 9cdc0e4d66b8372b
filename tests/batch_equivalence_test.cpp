// Batch-equivalence suite: lane-packing invariance.  Every lane of an
// N-lane sim::server_batch must be *bitwise-identical* to an independent
// sim::server_simulator (a one-lane batch) driven through the same
// schedule — same trace samples, same sensor noise stream, same
// fan-change accounting, same metrics.  The SoA plant only exists
// because this contract makes it safe to pack servers into one batch.
//
// Scenarios are randomized over (config, workload, controller, ambient)
// from a fixed seed; mutations (fan commands, room drift, load skew) are
// generated once and applied to both plants mid-run so stale-cache and
// masked-substep paths get exercised.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/bang_bang_controller.hpp"
#include "core/characterization.hpp"
#include "core/controller_runtime.hpp"
#include "core/default_controller.hpp"
#include "core/lut_controller.hpp"
#include "sim/metrics.hpp"
#include "sim/server_batch.hpp"
#include "sim/server_simulator.hpp"
#include "sim/trace_io.hpp"
#include "util/rng.hpp"
#include "workload/paper_tests.hpp"
#include "workload/profile.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

void expect_traces_identical(const sim::trace_view& batch_tr, const sim::trace_view& scalar_tr) {
    for (std::size_t c = 0; c < sim::trace_channel_count; ++c) {
        const auto ch = static_cast<sim::trace_channel>(c);
        SCOPED_TRACE(sim::trace_channel_name(ch));
        const util::column_view sb = batch_tr.channel(ch);
        const util::column_view ss = scalar_tr.channel(ch);
        ASSERT_EQ(sb.size(), ss.size());
        for (std::size_t j = 0; j < sb.size(); ++j) {
            ASSERT_EQ(sb.t(j), ss.t(j)) << "sample " << j << " time diverged";
            ASSERT_EQ(sb.v(j), ss.v(j)) << "sample " << j << " value diverged";
        }
    }
}

void expect_lane_matches_scalar(const sim::server_batch& batch, std::size_t lane,
                                const sim::server_simulator& scalar) {
    SCOPED_TRACE("lane " + std::to_string(lane));
    expect_traces_identical(batch.trace(lane), scalar.trace());
    ASSERT_EQ(batch.now(lane).value(), scalar.now().value());
    ASSERT_EQ(batch.fan_change_count(lane), scalar.fan_change_count());
    const auto sensors_b = batch.cpu_sensor_temps(lane);
    const auto sensors_s = scalar.cpu_sensor_temps();
    ASSERT_EQ(sensors_b.size(), sensors_s.size());
    for (std::size_t i = 0; i < sensors_b.size(); ++i) {
        ASSERT_EQ(sensors_b[i], sensors_s[i]) << "sensor " << i;
    }
    for (std::size_t s = 0; s < 2; ++s) {
        ASSERT_EQ(batch.true_cpu_temp(lane, s).value(), scalar.true_cpu_temp(s).value());
    }
    ASSERT_EQ(batch.true_dimm_temp(lane).value(), scalar.true_dimm_temp().value());
    ASSERT_EQ(batch.system_power_reading(lane).value(), scalar.system_power_reading().value());
    ASSERT_EQ(batch.average_fan_rpm(lane).value(), scalar.average_fan_rpm().value());
}

/// Randomized lane scenario: a config, a workload, and a mid-run
/// mutation schedule, generated once and applied to both plants.
struct lane_scenario {
    sim::server_config config = sim::paper_server();
    workload::utilization_profile profile{"scenario"};

    struct mutation {
        int at_step = 0;
        enum class kind { all_fans, one_fan, ambient, imbalance } what = kind::all_fans;
        std::size_t pair = 0;
        double value = 0.0;
    };
    std::vector<mutation> mutations;
};

lane_scenario make_scenario(util::pcg32& rng, std::size_t index, int steps) {
    lane_scenario sc;
    sc.config.thermal.ambient_c = 18.0 + 2.0 * static_cast<double>(rng.next_u32() % 10);
    sc.config.seed = 0x5eed + 17 * index + rng.next_u32() % 1000;
    sc.config.default_fan_rpm =
        util::rpm_t{1800.0 + 600.0 * static_cast<double>(rng.next_u32() % 5)};
    if (index % 3 == 1) {
        sc.config.telemetry_period_s = 5.0;
    }
    if (index % 4 == 2) {
        sc.config.sensor_noise_sigma = 0.0;  // noiseless lanes draw no RNG
    }

    workload::utilization_profile p("rand" + std::to_string(index));
    const double u1 = 10.0 + static_cast<double>(rng.next_u32() % 80);
    const double u2 = 10.0 + static_cast<double>(rng.next_u32() % 80);
    p.idle(2.0_min).constant(u1, 4.0_min).ramp(u1, u2, 3.0_min).constant(u2, 3.0_min);
    sc.profile = p;

    const int mutation_count = 2 + static_cast<int>(rng.next_u32() % 3);
    for (int m = 0; m < mutation_count; ++m) {
        lane_scenario::mutation mu;
        mu.at_step = 30 + static_cast<int>(rng.next_u32() % (steps - 60));
        switch (rng.next_u32() % 4) {
            case 0:
                mu.what = lane_scenario::mutation::kind::all_fans;
                mu.value = 1800.0 + 600.0 * static_cast<double>(rng.next_u32() % 5);
                break;
            case 1:
                mu.what = lane_scenario::mutation::kind::one_fan;
                mu.pair = rng.next_u32() % sc.config.fan_pairs;
                mu.value = 1800.0 + 300.0 * static_cast<double>(rng.next_u32() % 9);
                break;
            case 2:
                mu.what = lane_scenario::mutation::kind::ambient;
                mu.value = sc.config.thermal.ambient_c +
                           static_cast<double>(rng.next_u32() % 9) - 4.0;
                break;
            default:
                mu.what = lane_scenario::mutation::kind::imbalance;
                mu.value = 0.3 + 0.05 * static_cast<double>(rng.next_u32() % 9);
                break;
        }
        sc.mutations.push_back(mu);
    }
    return sc;
}

TEST(BatchEquivalence, RandomizedOpenLoopLanesMatchScalarBitwise) {
    constexpr int kSteps = 12 * 60;  // 12 simulated minutes at 1 s cadence
    constexpr std::size_t kLanes = 6;

    util::pcg32 rng(0xba7c4e55ULL, 0x42);
    std::vector<lane_scenario> scenarios;
    std::vector<sim::server_config> configs;
    for (std::size_t l = 0; l < kLanes; ++l) {
        scenarios.push_back(make_scenario(rng, l, kSteps));
        configs.push_back(scenarios[l].config);
    }

    sim::server_batch batch(configs);
    std::vector<std::unique_ptr<sim::server_simulator>> scalars;
    for (std::size_t l = 0; l < kLanes; ++l) {
        scalars.push_back(std::make_unique<sim::server_simulator>(configs[l]));
        batch.bind_workload(l, scenarios[l].profile);
        scalars[l]->bind_workload(scenarios[l].profile);
        batch.force_cold_start(l);
        scalars[l]->force_cold_start();
    }

    for (int k = 0; k < kSteps; ++k) {
        for (std::size_t l = 0; l < kLanes; ++l) {
            for (const auto& mu : scenarios[l].mutations) {
                if (mu.at_step != k) {
                    continue;
                }
                switch (mu.what) {
                    case lane_scenario::mutation::kind::all_fans:
                        batch.set_all_fans(l, util::rpm_t{mu.value});
                        scalars[l]->set_all_fans(util::rpm_t{mu.value});
                        break;
                    case lane_scenario::mutation::kind::one_fan:
                        batch.set_fan_speed(l, mu.pair, util::rpm_t{mu.value});
                        scalars[l]->set_fan_speed(mu.pair, util::rpm_t{mu.value});
                        break;
                    case lane_scenario::mutation::kind::ambient:
                        batch.set_ambient(l, util::celsius_t{mu.value});
                        scalars[l]->set_ambient(util::celsius_t{mu.value});
                        break;
                    case lane_scenario::mutation::kind::imbalance:
                        batch.set_load_imbalance(l, mu.value);
                        scalars[l]->set_load_imbalance(mu.value);
                        break;
                }
            }
            scalars[l]->step(1_s);
        }
        batch.step(1_s);
    }

    for (std::size_t l = 0; l < kLanes; ++l) {
        expect_lane_matches_scalar(batch, l, *scalars[l]);
        if (::testing::Test::HasFatalFailure()) {
            return;
        }
    }
}

TEST(BatchEquivalence, HeterogeneousSubstepLanesMatchScalar) {
    // Lane 1 gets a stiff die (tiny capacity -> stable dt < 1 s), forcing
    // a different substep count than its neighbors: the masked tail of
    // the shared RK4 loop must leave uniform lanes bitwise-untouched and
    // step the stiff lane exactly like its scalar twin.
    std::vector<sim::server_config> configs(3, sim::paper_server());
    configs[1].thermal.c_die = 2.0;
    configs[2].thermal.ambient_c = 32.0;

    sim::server_batch batch(configs);
    std::vector<std::unique_ptr<sim::server_simulator>> scalars;
    workload::utilization_profile p("step");
    p.idle(1.0_min).constant(85.0, 6.0_min).idle(1.0_min);
    for (std::size_t l = 0; l < configs.size(); ++l) {
        scalars.push_back(std::make_unique<sim::server_simulator>(configs[l]));
        batch.bind_workload(l, p);
        scalars[l]->bind_workload(p);
        batch.force_cold_start(l);
        scalars[l]->force_cold_start();
    }
    for (int k = 0; k < 8 * 60; ++k) {
        if (k == 100) {
            batch.set_all_fans(0, 1800_rpm);
            scalars[0]->set_all_fans(1800_rpm);
            batch.set_all_fans(1, 4200_rpm);
            scalars[1]->set_all_fans(4200_rpm);
        }
        for (std::size_t l = 0; l < configs.size(); ++l) {
            scalars[l]->step(1_s);
        }
        batch.step(1_s);
    }
    for (std::size_t l = 0; l < configs.size(); ++l) {
        expect_lane_matches_scalar(batch, l, *scalars[l]);
        if (::testing::Test::HasFatalFailure()) {
            return;
        }
    }
}

TEST(BatchEquivalence, ControlledRunsMatchScalarRunControlled) {
    // Full closed-loop cells: run_controlled_batch per lane must be
    // bitwise-identical to run_controlled on a fresh scalar plant with
    // the same (config, workload, controller) cell.
    sim::server_simulator rig;
    const core::fan_lut lut_table = core::characterize(rig).lut;

    const auto test1 = workload::make_paper_test(workload::paper_test::test1_ramp);
    const auto test3 = workload::make_paper_test(workload::paper_test::test3_frequent);

    std::vector<sim::server_config> configs(4, sim::paper_server());
    configs[3].thermal.ambient_c = 30.0;
    std::vector<workload::utilization_profile> profiles{test1, test1, test3, test3};

    core::default_controller dflt_b;
    core::bang_bang_controller bang_b;
    core::lut_controller lut_b(lut_table);
    core::bang_bang_controller bang_warm_b;
    const std::vector<core::fan_controller*> controllers{&dflt_b, &bang_b, &lut_b, &bang_warm_b};

    sim::server_batch batch(configs);
    const auto batch_rows = core::run_controlled_batch(batch, controllers, profiles);
    ASSERT_EQ(batch_rows.size(), 4U);

    core::default_controller dflt_s;
    core::bang_bang_controller bang_s;
    core::lut_controller lut_s(lut_table);
    core::bang_bang_controller bang_warm_s;
    core::fan_controller* scalar_controllers[] = {&dflt_s, &bang_s, &lut_s, &bang_warm_s};
    for (std::size_t l = 0; l < 4; ++l) {
        SCOPED_TRACE("cell " + std::to_string(l));
        sim::server_simulator scalar(configs[l]);
        const auto row = core::run_controlled(scalar, *scalar_controllers[l], profiles[l]);
        EXPECT_EQ(batch_rows[l].test_name, row.test_name);
        EXPECT_EQ(batch_rows[l].controller_name, row.controller_name);
        EXPECT_EQ(batch_rows[l].energy_kwh, row.energy_kwh);
        EXPECT_EQ(batch_rows[l].peak_power_w, row.peak_power_w);
        EXPECT_EQ(batch_rows[l].max_temp_c, row.max_temp_c);
        EXPECT_EQ(batch_rows[l].fan_changes, row.fan_changes);
        EXPECT_EQ(batch_rows[l].avg_rpm, row.avg_rpm);
        EXPECT_EQ(batch_rows[l].avg_cpu_temp_c, row.avg_cpu_temp_c);
        EXPECT_EQ(batch_rows[l].duration_s, row.duration_s);
        expect_lane_matches_scalar(batch, l, scalar);
        if (::testing::Test::HasFatalFailure()) {
            return;
        }
    }
}

TEST(BatchEquivalence, SettleAtAndIdlePowerMatchScalar) {
    auto cfg = sim::paper_server();
    cfg.thermal.ambient_c = 28.0;
    sim::server_batch batch(cfg, 2);
    sim::server_simulator scalar(cfg);

    batch.settle_at(1, 75.0);
    scalar.settle_at(75.0);
    for (std::size_t s = 0; s < 2; ++s) {
        EXPECT_EQ(batch.true_cpu_temp(1, s).value(), scalar.true_cpu_temp(s).value());
    }
    EXPECT_EQ(batch.true_dimm_temp(1).value(), scalar.true_dimm_temp().value());

    EXPECT_EQ(batch.idle_power(0, 3300_rpm).value(), scalar.idle_power(3300_rpm).value());
    EXPECT_EQ(batch.idle_power(0, 1800_rpm).value(), scalar.idle_power(1800_rpm).value());
}

TEST(BatchEquivalence, MetricsOverloadsAgree) {
    sim::server_batch batch(sim::paper_server(), 1);
    workload::utilization_profile p("m");
    p.constant(50.0, 5.0_min);
    batch.bind_workload(0, p);
    batch.force_cold_start(0);
    batch.advance(5.0_min);
    const auto by_lane = sim::compute_metrics(batch, 0, "m", "none");
    const auto by_trace =
        sim::compute_metrics(batch.trace(0), batch.fan_change_count(0), "m", "none");
    EXPECT_EQ(by_lane.energy_kwh, by_trace.energy_kwh);
    EXPECT_EQ(by_lane.fan_changes, by_trace.fan_changes);
    EXPECT_EQ(by_lane.duration_s, by_trace.duration_s);
}

TEST(BatchEquivalence, ConstructionAndLaneErrors) {
    EXPECT_THROW(sim::server_batch(std::vector<sim::server_config>{}), util::precondition_error);
    EXPECT_THROW(sim::server_batch(sim::paper_server(), 0), util::precondition_error);

    sim::server_batch batch(sim::paper_server(), 2);
    EXPECT_THROW(static_cast<void>(batch.trace(2)), util::precondition_error);
    EXPECT_THROW(static_cast<void>(batch.fan_speed(0, 99)), util::precondition_error);
    EXPECT_THROW(batch.set_load_imbalance(0, 1.5), util::precondition_error);
    EXPECT_THROW(batch.step(util::seconds_t{0.0}), util::precondition_error);

    // run_controlled_batch lane-count mismatches (ragged durations are
    // legal now; see RaggedProfileLengthsMatchScalar).
    core::default_controller c0;
    core::default_controller c1;
    workload::utilization_profile p1("a");
    p1.constant(40.0, 5.0_min);
    const std::vector<core::fan_controller*> one{&c0};
    const std::vector<core::fan_controller*> two{&c0, &c1};
    EXPECT_THROW(static_cast<void>(core::run_controlled_batch(batch, one, {p1, p1})),
                 util::precondition_error);
    EXPECT_THROW(static_cast<void>(core::run_controlled_batch(batch, two, {p1})),
                 util::precondition_error);
}

TEST(BatchEquivalence, RaggedProfileLengthsMatchScalar) {
    // Ragged fleets: profiles of different durations share one batch.  A
    // lane whose profile ends goes inert (no stepping, no recording, no
    // decisions) while the others run on; every lane must still be
    // bitwise-identical to run_controlled on a fresh scalar plant.
    std::vector<sim::server_config> configs(3, sim::paper_server());
    configs[1].seed = 0x5eed + 7;
    configs[2].thermal.ambient_c = 28.0;

    workload::utilization_profile short_p("short");
    short_p.idle(1.0_min).constant(70.0, 3.0_min);
    workload::utilization_profile mid_p("mid");
    mid_p.idle(1.0_min).constant(45.0, 5.0_min).idle(2.0_min);
    workload::utilization_profile long_p("long");
    long_p.idle(2.0_min).constant(85.0, 8.0_min).constant(30.0, 2.0_min);
    const std::vector<workload::utilization_profile> profiles{short_p, long_p, mid_p};

    core::bang_bang_controller bang_b;
    core::default_controller dflt_b;
    core::bang_bang_controller bang_warm_b;
    const std::vector<core::fan_controller*> controllers{&bang_b, &dflt_b, &bang_warm_b};

    sim::server_batch batch(configs);
    const auto rows = core::run_controlled_batch(batch, controllers, profiles);
    ASSERT_EQ(rows.size(), 3U);

    core::bang_bang_controller bang_s;
    core::default_controller dflt_s;
    core::bang_bang_controller bang_warm_s;
    core::fan_controller* scalar_controllers[] = {&bang_s, &dflt_s, &bang_warm_s};
    for (std::size_t l = 0; l < 3; ++l) {
        SCOPED_TRACE("lane " + std::to_string(l));
        // Short lanes went inert mid-run (their traces stopped at their
        // own durations, checked below); the runtime hands the batch
        // back with every lane live again.
        EXPECT_TRUE(batch.lane_active(l));
        sim::server_simulator scalar(configs[l]);
        const auto row = core::run_controlled(scalar, *scalar_controllers[l], profiles[l]);
        EXPECT_EQ(rows[l].energy_kwh, row.energy_kwh);
        EXPECT_EQ(rows[l].peak_power_w, row.peak_power_w);
        EXPECT_EQ(rows[l].max_temp_c, row.max_temp_c);
        EXPECT_EQ(rows[l].fan_changes, row.fan_changes);
        EXPECT_EQ(rows[l].avg_rpm, row.avg_rpm);
        EXPECT_EQ(rows[l].duration_s, row.duration_s);
        expect_lane_matches_scalar(batch, l, scalar);
        if (::testing::Test::HasFatalFailure()) {
            return;
        }
    }
}

}  // namespace
