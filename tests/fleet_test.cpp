// sim::fleet suite: sharded fleets must be a pure repartitioning of
// server_batch — per-lane results bitwise-invariant under shard count
// and thread count, equal to a monolithic batch of the same lanes, and
// safe to step concurrently (the hammer tests run under TSan in CI).
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/bang_bang_controller.hpp"
#include "core/controller_runtime.hpp"
#include "sim/fleet.hpp"
#include "sim/metrics.hpp"
#include "sim/server_batch.hpp"
#include "sim/server_simulator.hpp"
#include "sim/trace_io.hpp"
#include "util/error.hpp"
#include "workload/paper_tests.hpp"
#include "workload/profile.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

sim::fleet_config fleet_cfg(std::size_t shards, std::size_t threads) {
    sim::fleet_config c;
    c.shards = shards;
    c.threads = threads;
    return c;
}

std::vector<sim::server_config> make_configs(std::size_t n) {
    std::vector<sim::server_config> configs;
    configs.reserve(n);
    for (std::size_t l = 0; l < n; ++l) {
        sim::server_config cfg = sim::paper_server();
        cfg.seed = 0xf1ee7 + 31 * l;
        cfg.thermal.ambient_c = 18.0 + static_cast<double>(l % 5);
        cfg.default_fan_rpm = util::rpm_t{1800.0 + 300.0 * static_cast<double>(l % 4)};
        configs.push_back(cfg);
    }
    return configs;
}

std::vector<workload::utilization_profile> make_profiles(std::size_t n) {
    std::vector<workload::utilization_profile> profiles;
    profiles.reserve(n);
    for (std::size_t l = 0; l < n; ++l) {
        workload::utilization_profile p("fleet-" + std::to_string(l));
        const double u = 20.0 + 10.0 * static_cast<double>(l % 7);
        p.idle(30.0_s).constant(u, 2.0_min).ramp(u, 90.0 - u, 90.0_s);
        profiles.push_back(p);
    }
    return profiles;
}

/// One deterministic open-loop schedule applied through the fleet's
/// global-lane surface; any two plants driven by it must agree.
template <typename Plant>
void drive(Plant& plant, const std::vector<workload::utilization_profile>& profiles, int steps) {
    const std::size_t n = profiles.size();
    for (std::size_t l = 0; l < n; ++l) {
        plant.bind_workload(l, profiles[l]);
    }
    plant.force_cold_start();
    for (int k = 0; k < steps; ++k) {
        if (k == 40) {
            for (std::size_t l = 0; l < n; ++l) {
                plant.set_all_fans(l, util::rpm_t{2400.0 + 300.0 * static_cast<double>(l % 3)});
            }
        }
        if (k == 90) {
            plant.set_ambient(2 % n, 27_degC);
            plant.set_fan_speed(1 % n, 0, 4200_rpm);
        }
        plant.step(1_s);
    }
}

void expect_traces_identical(const sim::trace_view& a, const sim::trace_view& b) {
    for (std::size_t c = 0; c < sim::trace_channel_count; ++c) {
        const auto ch = static_cast<sim::trace_channel>(c);
        SCOPED_TRACE(sim::trace_channel_name(ch));
        const util::column_view va = a.channel(ch);
        const util::column_view vb = b.channel(ch);
        ASSERT_EQ(va.size(), vb.size());
        for (std::size_t j = 0; j < va.size(); ++j) {
            ASSERT_EQ(va.t(j), vb.t(j));
            ASSERT_EQ(va.v(j), vb.v(j));
        }
    }
}

void expect_fleets_identical(sim::fleet& a, sim::fleet& b) {
    ASSERT_EQ(a.lane_count(), b.lane_count());
    for (std::size_t l = 0; l < a.lane_count(); ++l) {
        SCOPED_TRACE("lane " + std::to_string(l));
        ASSERT_EQ(a.now(l).value(), b.now(l).value());
        ASSERT_EQ(a.true_avg_cpu_temp(l).value(), b.true_avg_cpu_temp(l).value());
        ASSERT_EQ(a.system_power_reading(l).value(), b.system_power_reading(l).value());
        ASSERT_EQ(a.average_fan_rpm(l).value(), b.average_fan_rpm(l).value());
        expect_traces_identical(a.trace(l), b.trace(l));
    }
}

TEST(Fleet, ShardAddressingIsABalancedContiguousPartition) {
    sim::fleet f(sim::paper_server(), 7, fleet_cfg(3, 1));
    ASSERT_EQ(f.shard_count(), 3u);
    ASSERT_EQ(f.lane_count(), 7u);
    // Balanced blocks: 3 + 2 + 2.
    EXPECT_EQ(f.shard_offset(0), 0u);
    EXPECT_EQ(f.shard_offset(1), 3u);
    EXPECT_EQ(f.shard_offset(2), 5u);
    EXPECT_EQ(f.shard_offset(3), 7u);
    for (std::size_t l = 0; l < 7; ++l) {
        const std::size_t s = f.shard_of(l);
        EXPECT_GE(l, f.shard_offset(s));
        EXPECT_LT(l, f.shard_offset(s + 1));
        EXPECT_EQ(f.local_lane(l), l - f.shard_offset(s));
        EXPECT_LT(f.local_lane(l), f.shard(s).lane_count());
    }
    // Degenerate requests clamp sanely.
    sim::fleet tiny(sim::paper_server(), 2, fleet_cfg(16, 1));
    EXPECT_EQ(tiny.shard_count(), 2u);
}

TEST(Fleet, LanesAreBitwiseInvariantUnderShardCount) {
    constexpr std::size_t kLanes = 10;
    constexpr int kSteps = 150;
    const auto configs = make_configs(kLanes);
    const auto profiles = make_profiles(kLanes);

    sim::fleet reference(configs, fleet_cfg(1, 1));
    drive(reference, profiles, kSteps);
    for (const std::size_t shards : {2u, 3u, 10u}) {
        SCOPED_TRACE("shards " + std::to_string(shards));
        sim::fleet f(configs, fleet_cfg(shards, 1));
        drive(f, profiles, kSteps);
        expect_fleets_identical(reference, f);
    }
}

TEST(Fleet, LanesAreBitwiseInvariantUnderThreadCount) {
    constexpr std::size_t kLanes = 8;
    constexpr int kSteps = 150;
    const auto configs = make_configs(kLanes);
    const auto profiles = make_profiles(kLanes);

    sim::fleet serial(configs, fleet_cfg(4, 1));
    sim::fleet pooled(configs, fleet_cfg(4, 4));
    EXPECT_EQ(pooled.thread_count(), 4u);
    drive(serial, profiles, kSteps);
    drive(pooled, profiles, kSteps);
    expect_fleets_identical(serial, pooled);
}

TEST(Fleet, ShardedLanesMatchMonolithicServerBatchBitwise) {
    constexpr std::size_t kLanes = 9;
    constexpr int kSteps = 150;
    const auto configs = make_configs(kLanes);
    const auto profiles = make_profiles(kLanes);

    sim::server_batch batch(configs);
    sim::fleet f(configs, fleet_cfg(3, 2));
    drive(batch, profiles, kSteps);
    drive(f, profiles, kSteps);
    for (std::size_t l = 0; l < kLanes; ++l) {
        SCOPED_TRACE("lane " + std::to_string(l));
        ASSERT_EQ(batch.now(l).value(), f.now(l).value());
        ASSERT_EQ(batch.true_avg_cpu_temp(l).value(), f.true_avg_cpu_temp(l).value());
        expect_traces_identical(batch.trace(l), f.trace(l));
    }
}

TEST(Fleet, RunControlledFleetMatchesRunControlledBatch) {
    constexpr std::size_t kLanes = 6;
    const auto configs = make_configs(kLanes);
    const auto profiles = make_profiles(kLanes);

    const auto run_with = [&](auto&& runner) {
        std::vector<std::unique_ptr<core::fan_controller>> owners;
        std::vector<core::fan_controller*> controllers;
        for (std::size_t l = 0; l < kLanes; ++l) {
            owners.push_back(std::make_unique<core::bang_bang_controller>());
            controllers.push_back(owners.back().get());
        }
        return runner(controllers);
    };

    const std::vector<sim::run_metrics> from_batch =
        run_with([&](const std::vector<core::fan_controller*>& controllers) {
            sim::server_batch batch(configs);
            return core::run_controlled_batch(batch, controllers, profiles);
        });
    const std::vector<sim::run_metrics> from_fleet =
        run_with([&](const std::vector<core::fan_controller*>& controllers) {
            sim::fleet f(configs, fleet_cfg(3, 2));
            return core::run_controlled_fleet(f, controllers, profiles);
        });

    ASSERT_EQ(from_batch.size(), from_fleet.size());
    for (std::size_t l = 0; l < kLanes; ++l) {
        SCOPED_TRACE("lane " + std::to_string(l));
        EXPECT_EQ(from_batch[l].test_name, from_fleet[l].test_name);
        EXPECT_EQ(from_batch[l].controller_name, from_fleet[l].controller_name);
        EXPECT_EQ(from_batch[l].energy_kwh, from_fleet[l].energy_kwh);
        EXPECT_EQ(from_batch[l].peak_power_w, from_fleet[l].peak_power_w);
        EXPECT_EQ(from_batch[l].max_temp_c, from_fleet[l].max_temp_c);
        EXPECT_EQ(from_batch[l].fan_changes, from_fleet[l].fan_changes);
        EXPECT_EQ(from_batch[l].avg_rpm, from_fleet[l].avg_rpm);
        EXPECT_EQ(from_batch[l].avg_cpu_temp_c, from_fleet[l].avg_cpu_temp_c);
        EXPECT_EQ(from_batch[l].duration_s, from_fleet[l].duration_s);
    }
}

TEST(Fleet, RunControlledFleetValidatesCounts) {
    sim::fleet f(sim::paper_server(), 2, fleet_cfg(2, 1));
    core::bang_bang_controller c;
    const std::vector<core::fan_controller*> controllers = {&c};
    const auto profiles = make_profiles(2);
    EXPECT_THROW(static_cast<void>(core::run_controlled_fleet(f, controllers, profiles)),
                 util::precondition_error);
}

TEST(Fleet, InvalidConfigInTheLastShardThrowsThroughThePool) {
    // Shards are built on the pool: a bad configuration in the last
    // shard's block must still surface as the constructor's exception,
    // with the shards already built freed (the ASan job checks that).
    std::vector<sim::server_config> configs = make_configs(8);
    configs.back().base_power_w = std::nan("");
    for (std::size_t threads : {1u, 4u}) {
        EXPECT_THROW(sim::fleet(configs, fleet_cfg(4, threads)), util::precondition_error)
            << threads << " threads";
    }
}

/// TSan hammer: many shards stepped concurrently for many macro steps,
/// with mid-run actuation between steps.  The assertion payload is
/// light — the point is the data-race-free schedule under the sanitizer
/// (this test rides the `Fleet` token of the CI TSan filter).
TEST(Fleet, ConcurrentShardSteppingHammer) {
    constexpr std::size_t kLanes = 16;
    const auto configs = make_configs(kLanes);
    const auto profiles = make_profiles(kLanes);
    sim::fleet f(configs, fleet_cfg(8, 4));
    for (std::size_t l = 0; l < kLanes; ++l) {
        f.bind_workload(l, profiles[l]);
    }
    f.force_cold_start();
    for (int k = 0; k < 120; ++k) {
        if (k % 17 == 0) {
            for (std::size_t l = 0; l < kLanes; ++l) {
                f.set_all_fans(l, util::rpm_t{2100.0 + 150.0 * static_cast<double>(k % 8)});
            }
        }
        f.step(1_s);
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
        EXPECT_TRUE(std::isfinite(f.true_avg_cpu_temp(l).value()));
        EXPECT_EQ(f.now(l).value(), 120.0);
    }
    // advance() fans out the same way; hammer it too.
    f.advance(60.0_s);
    for (std::size_t l = 0; l < kLanes; ++l) {
        EXPECT_EQ(f.now(l).value(), 180.0);
    }
}

}  // namespace
