// Seed determinism: the simulator is a pure function of (config, seed,
// inputs).  Two runs with identical seeds must produce bitwise-identical
// metric streams; any divergence means hidden global state (an unseeded
// RNG, time(), static mutable data) crept into the plant.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "core/bang_bang_controller.hpp"
#include "core/controller_runtime.hpp"
#include "core/default_controller.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/server_batch.hpp"
#include "sim/server_simulator.hpp"
#include "sim/trace_io.hpp"
#include "workload/paper_tests.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

// Compares every channel of two traces sample-by-sample with exact
// (bitwise for non-NaN doubles) equality.
void expect_traces_identical(const sim::trace_view& a, const sim::trace_view& b) {
    for (std::size_t c = 0; c < sim::trace_channel_count; ++c) {
        const auto ch = static_cast<sim::trace_channel>(c);
        SCOPED_TRACE(sim::trace_channel_name(ch));
        const util::column_view sa = a.channel(ch);
        const util::column_view sb = b.channel(ch);
        ASSERT_EQ(sa.size(), sb.size());
        for (std::size_t j = 0; j < sa.size(); ++j) {
            ASSERT_EQ(sa.at(j), sb.at(j)) << "sample " << j << " diverged";
        }
    }
}

TEST(Determinism, ProtocolRunsAreBitwiseIdentical) {
    sim::server_simulator s1;
    sim::server_simulator s2;
    sim::run_protocol_experiment(s1, 2400_rpm, 75.0);
    sim::run_protocol_experiment(s2, 2400_rpm, 75.0);
    expect_traces_identical(s1.trace(), s2.trace());
}

TEST(Determinism, ControlledRunsAreBitwiseIdentical) {
    const auto profile = workload::make_paper_test(workload::paper_test::test3_frequent);
    sim::server_simulator s1;
    sim::server_simulator s2;
    core::bang_bang_controller c1;
    core::bang_bang_controller c2;
    const auto m1 = core::run_controlled(s1, c1, profile);
    const auto m2 = core::run_controlled(s2, c2, profile);

    expect_traces_identical(s1.trace(), s2.trace());
    EXPECT_EQ(m1.energy_kwh, m2.energy_kwh);
    EXPECT_EQ(m1.peak_power_w, m2.peak_power_w);
    EXPECT_EQ(m1.max_temp_c, m2.max_temp_c);
    EXPECT_EQ(m1.fan_changes, m2.fan_changes);
    EXPECT_EQ(m1.avg_rpm, m2.avg_rpm);
}

TEST(Determinism, CsvExportIsByteIdentical) {
    // The exported artifact (what figures are plotted from) must also be
    // reproducible byte-for-byte.
    sim::server_simulator s1;
    sim::server_simulator s2;
    sim::run_protocol_experiment(s1, 3000_rpm, 50.0);
    sim::run_protocol_experiment(s2, 3000_rpm, 50.0);
    std::ostringstream o1;
    std::ostringstream o2;
    sim::write_trace_csv(o1, s1.trace());
    sim::write_trace_csv(o2, s2.trace());
    EXPECT_EQ(o1.str(), o2.str());
}

// The parallel experiment runner must be a pure reordering of work: the
// same scenario list produces bitwise-identical metric rows whether it
// runs serially or fanned out across threads.
TEST(Determinism, ParallelRunnerIsThreadCountInvariant) {
    const auto scenarios = [] {
        std::vector<sim::scenario> out;
        for (const auto test :
             {workload::paper_test::test1_ramp, workload::paper_test::test3_frequent}) {
            sim::scenario dflt;
            dflt.profile = workload::make_paper_test(test);
            dflt.make_controller = [] { return std::make_unique<core::default_controller>(); };
            out.push_back(dflt);

            sim::scenario bang;
            bang.profile = workload::make_paper_test(test);
            bang.make_controller = [] { return std::make_unique<core::bang_bang_controller>(); };
            // A non-default seed must flow through to the parallel plant.
            bang.config.seed = 0xfeedU;
            out.push_back(bang);
        }
        return out;
    }();

    sim::parallel_runner serial(1);
    sim::parallel_runner wide(4);
    ASSERT_EQ(serial.thread_count(), 1U);
    ASSERT_EQ(wide.thread_count(), 4U);

    const auto a = serial.run(scenarios);
    const auto b = wide.run(scenarios);
    ASSERT_EQ(a.size(), scenarios.size());
    ASSERT_EQ(b.size(), scenarios.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("scenario " + std::to_string(i));
        EXPECT_EQ(a[i].test_name, b[i].test_name);
        EXPECT_EQ(a[i].controller_name, b[i].controller_name);
        EXPECT_EQ(a[i].energy_kwh, b[i].energy_kwh);
        EXPECT_EQ(a[i].peak_power_w, b[i].peak_power_w);
        EXPECT_EQ(a[i].max_temp_c, b[i].max_temp_c);
        EXPECT_EQ(a[i].fan_changes, b[i].fan_changes);
        EXPECT_EQ(a[i].avg_rpm, b[i].avg_rpm);
        EXPECT_EQ(a[i].avg_cpu_temp_c, b[i].avg_cpu_temp_c);
        EXPECT_EQ(a[i].duration_s, b[i].duration_s);
    }

    // And a rerun at the same width reproduces the same rows (no hidden
    // cross-run state in the pool or the scenarios).
    const auto c = wide.run(scenarios);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].energy_kwh, c[i].energy_kwh);
        EXPECT_EQ(a[i].fan_changes, c[i].fan_changes);
    }
}

// A server_batch job fanned out through parallel_runner must be a pure
// reordering too: batched fleet rows are bitwise-identical whether the
// jobs run serially or across threads.
TEST(Determinism, BatchUnderParallelRunnerIsThreadCountInvariant) {
    const auto run_fleet = [](std::size_t job) {
        std::vector<sim::server_config> configs(3, sim::paper_server());
        configs[1].seed = 0xfeed + job;
        configs[2].thermal.ambient_c = 24.0 + 2.0 * static_cast<double>(job);
        sim::server_batch batch(configs);
        const auto profile = workload::make_paper_test(workload::paper_test::test3_frequent);
        core::default_controller dflt;
        core::bang_bang_controller bang_a;
        core::bang_bang_controller bang_b;
        const std::vector<core::fan_controller*> controllers{&dflt, &bang_a, &bang_b};
        return core::run_controlled_batch(batch, controllers, {profile, profile, profile});
    };

    sim::parallel_runner serial(1);
    sim::parallel_runner wide(4);
    const auto a = serial.map<std::vector<sim::run_metrics>>(2, run_fleet);
    const auto b = wide.map<std::vector<sim::run_metrics>>(2, run_fleet);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
        ASSERT_EQ(a[j].size(), b[j].size());
        for (std::size_t l = 0; l < a[j].size(); ++l) {
            SCOPED_TRACE("job " + std::to_string(j) + " lane " + std::to_string(l));
            EXPECT_EQ(a[j][l].energy_kwh, b[j][l].energy_kwh);
            EXPECT_EQ(a[j][l].peak_power_w, b[j][l].peak_power_w);
            EXPECT_EQ(a[j][l].max_temp_c, b[j][l].max_temp_c);
            EXPECT_EQ(a[j][l].fan_changes, b[j][l].fan_changes);
            EXPECT_EQ(a[j][l].avg_rpm, b[j][l].avg_rpm);
            EXPECT_EQ(a[j][l].avg_cpu_temp_c, b[j][l].avg_cpu_temp_c);
        }
    }
}

// Lane packing is an implementation detail: N lanes stepped together,
// the same scenarios split across two smaller batches, and N separate
// single-lane batches all yield bitwise-identical traces.
TEST(Determinism, LanePackingIsObservationallyInvariant) {
    std::vector<sim::server_config> configs(4, sim::paper_server());
    configs[1].seed = 0xabcd;
    configs[2].thermal.ambient_c = 30.0;
    configs[3].default_fan_rpm = util::rpm_t{2400.0};

    workload::utilization_profile profile("pack");
    profile.idle(util::seconds_t{60.0})
        .constant(70.0, util::seconds_t{240.0})
        .constant(30.0, util::seconds_t{180.0});

    // The mid-run fan command rides with the scenario (not the lane slot),
    // so any packing of the same scenarios is comparable.
    const std::vector<double> fan_rpm{1800.0, 2400.0, 3000.0, 4200.0};
    const auto run_lanes = [&](std::vector<sim::server_config> cfgs, std::vector<double> rpms) {
        sim::server_batch batch(std::move(cfgs));
        for (std::size_t l = 0; l < batch.lane_count(); ++l) {
            batch.bind_workload(l, profile);
            batch.force_cold_start(l);
        }
        for (int k = 0; k < 8 * 60; ++k) {
            if (k == 120) {
                for (std::size_t l = 0; l < batch.lane_count(); ++l) {
                    batch.set_all_fans(l, util::rpm_t{rpms[l]});
                }
            }
            batch.step();
        }
        std::vector<sim::simulation_trace> out;
        for (std::size_t l = 0; l < batch.lane_count(); ++l) {
            // Materialize: the view dies with the batch's arena.
            out.emplace_back(batch.trace(l));
        }
        return out;
    };

    const auto packed = run_lanes(configs, fan_rpm);
    std::vector<sim::simulation_trace> split;
    {
        auto front = run_lanes({configs[0], configs[1]}, {fan_rpm[0], fan_rpm[1]});
        auto back = run_lanes({configs[2], configs[3]}, {fan_rpm[2], fan_rpm[3]});
        for (auto& t : front) {
            split.push_back(std::move(t));
        }
        for (auto& t : back) {
            split.push_back(std::move(t));
        }
    }

    ASSERT_EQ(packed.size(), 4U);
    ASSERT_EQ(split.size(), 4U);
    for (std::size_t l = 0; l < packed.size(); ++l) {
        SCOPED_TRACE("lane " + std::to_string(l));
        // 4-lane batch vs two 2-lane batches vs a single-lane batch: the
        // packing must be invisible in every recorded sample.
        expect_traces_identical(packed[l], split[l]);
        const auto single = run_lanes({configs[l]}, {fan_rpm[l]});
        expect_traces_identical(packed[l], single.front());
    }
}

TEST(Determinism, DifferentSeedsDiverge) {
    // Sanity check that the seed actually reaches the noise sources:
    // otherwise the identical-stream tests above would pass vacuously.
    sim::server_config cfg_a = sim::paper_server();
    sim::server_config cfg_b = sim::paper_server();
    cfg_b.seed = cfg_a.seed + 1;
    sim::server_simulator s1(cfg_a);
    sim::server_simulator s2(cfg_b);
    sim::run_protocol_experiment(s1, 2400_rpm, 75.0);
    sim::run_protocol_experiment(s2, 2400_rpm, 75.0);

    const auto sa = s1.trace().max_sensor_temp().samples();
    const auto sb = s2.trace().max_sensor_temp().samples();
    ASSERT_EQ(sa.size(), sb.size());
    bool any_diff = false;
    for (std::size_t j = 0; j < sa.size() && !any_diff; ++j) {
        any_diff = sa[j].v != sb[j].v;
    }
    EXPECT_TRUE(any_diff) << "seed change did not affect sensor streams";
}

}  // namespace
