// Google-benchmark microbenchmarks: throughput of the library's hot
// paths.  These are engineering benchmarks (simulation speed), not paper
// reproductions — the figure/table harnesses live in the sibling
// binaries.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/bang_bang_controller.hpp"
#include "core/characterization.hpp"
#include "core/controller_runtime.hpp"
#include "core/lut_controller.hpp"
#include "core/rollout_controller.hpp"
#include "fit/nlls.hpp"
#include "sim/batch_trace.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/fleet.hpp"
#include "sim/server_batch.hpp"
#include "sim/server_simulator.hpp"
#include "telemetry_service/online_metrics.hpp"
#include "thermal/server_thermal_model.hpp"
#include "workload/loadgen.hpp"
#include "workload/paper_tests.hpp"
#include "workload/queueing.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

void BM_ThermalStep(benchmark::State& state) {
    // The thermal layer alone: one server_thermal_model::step_prefix over
    // N lanes (preheat injection plus the fused RK4 kernel), without the
    // power model, fans, sensors or trace of a plant step.  Items are
    // lane-steps.  6 lanes is a rollout decision's candidate width, 256 a
    // fleet shard's order.
    const std::size_t lanes = static_cast<std::size_t>(state.range(0));
    const std::vector<thermal::server_thermal_config> configs(lanes);
    thermal::server_thermal_model m(configs);
    for (std::size_t l = 0; l < lanes; ++l) {
        m.set_cpu_heat(l, 0, 115_W);
        m.set_cpu_heat(l, 1, 115_W);
        m.set_dimm_heat(l, 145_W);
    }
    for (auto _ : state) {
        m.step_prefix(lanes, 1_s);
        benchmark::DoNotOptimize(m.average_cpu_temp(lanes - 1));
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lanes));
    state.SetLabel("lane-steps per second");
}
BENCHMARK(BM_ThermalStep)->Arg(1)->Arg(6)->Arg(256);

void BM_ThermalSteadyStateSolve(benchmark::State& state) {
    thermal::server_thermal_model m;
    m.set_cpu_heat(0, 0, 115_W);
    m.set_cpu_heat(0, 1, 115_W);
    m.set_dimm_heat(0, 145_W);
    for (auto _ : state) {
        m.settle(0);
        benchmark::DoNotOptimize(m.average_cpu_temp(0));
    }
}
BENCHMARK(BM_ThermalSteadyStateSolve);

/// Runs `step` once per iteration and `clear` after every 64th with the
/// timer paused, so a plant bench times the step, not the growth of a
/// trace arena that no caller keeps for millions of steps.
template <class Step, class Clear>
void step_with_trace_clears(benchmark::State& state, Step step, Clear clear) {
    std::size_t steps = 0;
    for (auto _ : state) {
        step();
        if (++steps % 64 == 0) {
            state.PauseTiming();
            clear();
            state.ResumeTiming();
        }
    }
}

void BM_SimulatorSecond(benchmark::State& state) {
    // One plant second through server_simulator: the one-lane batch
    // behind the facade, so read it against BM_BatchStep/1 for the
    // facade's forwarding cost.
    sim::server_simulator s;
    workload::utilization_profile p("bench");
    p.constant(60.0, util::seconds_t{1e9});
    s.bind_workload(p);
    step_with_trace_clears(state, [&] { s.step(1_s); }, [&] { s.clear_trace(); });
    state.SetItemsProcessed(state.iterations());
    state.SetLabel("simulated seconds per wall second");
}
BENCHMARK(BM_SimulatorSecond);

/// The monitored plant of the two benches below, stepped at 60 % load.
void monitored_plant_second(benchmark::State& state, const sim::fault_schedule& faults) {
    sim::server_config config = sim::paper_server();
    config.monitor.enabled = true;
    sim::server_simulator s(config);
    workload::utilization_profile p("bench");
    p.constant(60.0, util::seconds_t{1e9});
    s.bind_workload(p);
    s.bind_fault_schedule(faults);
    step_with_trace_clears(state, [&] { s.step(1_s); }, [&] { s.clear_trace(); });
    state.SetItemsProcessed(state.iterations());
    state.SetLabel("simulated seconds per wall second");
}

void BM_SimulatorSecondMonitored(benchmark::State& state) {
    // Detection overhead on honest hardware: the same plant second with
    // the residual monitor enabled.  The tachs never lie, so the twin
    // stays dormant (the monitor reads the plant's own dies and the twin
    // lane is neither heated nor integrated); what remains is the tach
    // read and fan residuals every step and the sensor residuals every
    // poll.  Read against BM_SimulatorSecond for the monitor's cost; the
    // monitor is off by default, so only fault-aware runs pay it.
    monitored_plant_second(state, sim::fault_schedule{});
}
BENCHMARK(BM_SimulatorSecondMonitored);

void BM_SimulatorSecondMonitoredDiverged(benchmark::State& state) {
    // The faulted plant's real monitor cost: the plenum pair's tach
    // sticks in the first step, so the twin is live from then on and
    // heats and integrates as a second lane of the thermal kernel call
    // every step.  (A stuck CPU-zone pair would run its die away at this
    // load with no controller in the loop.)
    sim::fault_event stuck;
    stuck.kind = sim::fault_kind::fan_tach_stuck;
    stuck.target = 2;
    monitored_plant_second(state, sim::fault_schedule({stuck}));
}
BENCHMARK(BM_SimulatorSecondMonitoredDiverged);

void BM_BatchStep(benchmark::State& state) {
    // One batched plant second across N servers; items = server-steps, so
    // items/s is per-server throughput and can be read directly against
    // BM_SimulatorSecond (a one-lane batch).  Per-server cost should stay
    // flat in N.
    const std::size_t lanes = static_cast<std::size_t>(state.range(0));
    sim::server_batch batch(sim::paper_server(), lanes);
    workload::utilization_profile p("bench");
    p.constant(60.0, util::seconds_t{1e9});
    for (std::size_t l = 0; l < lanes; ++l) {
        batch.bind_workload(l, p);
    }
    step_with_trace_clears(
        state, [&] { batch.step(1_s); },
        [&] {
            for (std::size_t l = 0; l < lanes; ++l) {
                batch.clear_trace(l);
            }
        });
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lanes));
    state.SetLabel("per-server simulated seconds per wall second");
}
BENCHMARK(BM_BatchStep)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

void BM_FleetStep(benchmark::State& state) {
    // Sharded fleet stepping: N lanes split across K server_batch shards
    // stepped on a K-wide thread pool (sim::fleet).  args = (lanes,
    // shards); items = server-steps.  Shard results are bitwise invariant
    // in K (the fleet suite pins that), so this family measures the
    // partitioning/pool overhead or payoff on the host at hand; 256/1 is
    // one shard of the lane count BM_BatchStep/256 steps directly.  The
    // shards step on pool threads, so throughput is reported against
    // wall-clock time.  Traces clear every 64 steps with the timer
    // paused, as in the other plant benches.
    const std::size_t lanes = static_cast<std::size_t>(state.range(0));
    const std::size_t shards = static_cast<std::size_t>(state.range(1));
    sim::fleet_config fc;
    fc.shards = shards;
    fc.threads = shards;
    sim::fleet fleet(sim::paper_server(), lanes, fc);
    workload::utilization_profile p("bench");
    p.constant(60.0, util::seconds_t{1e9});
    for (std::size_t l = 0; l < lanes; ++l) {
        fleet.bind_workload(l, p);
    }
    step_with_trace_clears(
        state, [&] { fleet.step(1_s); },
        [&] {
            for (std::size_t l = 0; l < lanes; ++l) {
                fleet.clear_trace(l);
            }
        });
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lanes));
    state.SetLabel("per-server simulated seconds per wall second");
}
BENCHMARK(BM_FleetStep)
    ->Args({256, 1})
    ->Args({1024, 1})
    ->Args({1024, 4})
    ->Args({10240, 1})
    ->Args({10240, 4})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_TraceRecord(benchmark::State& state) {
    // Pure recording cost of one row in a one-lane batch_trace (shared
    // timestamp + 16 channel values): the one-server plant's recording
    // path, and how a lane's view is copied to outlive its batch.
    // BM_TraceRecordBatch covers wider arenas.
    // Cycle a pre-reserved working set so the number reflects
    // steady-state append cost (not first-touch vector growth) at any
    // --benchmark_min_time.
    constexpr std::size_t kRows = 1U << 16;
    sim::batch_trace tr(1);
    tr.reserve_steps(kRows);
    sim::trace_row row;
    for (std::size_t c = 0; c < sim::trace_channel_count; ++c) {
        row.values[c] = 40.0 + static_cast<double>(c);
    }
    double t = 0.0;
    for (auto _ : state) {
        if (tr.size(0) == kRows) {
            tr.clear(0);
            t = 0.0;
        }
        tr.append(0, t, row);
        t += 1.0;
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel("rows per second");
}
BENCHMARK(BM_TraceRecord);

void BM_TraceRecordBatch(benchmark::State& state) {
    // Fleet recording: one lane-major arena row-group per step (all N
    // lanes' rows land contiguously).  items = lane-rows, comparable to
    // BM_TraceRecord's per-row cost.
    const std::size_t lanes = static_cast<std::size_t>(state.range(0));
    const std::size_t steps = (1U << 20) / lanes;
    sim::batch_trace traces(lanes);
    traces.reserve_steps(steps);
    sim::trace_row row;
    for (std::size_t c = 0; c < sim::trace_channel_count; ++c) {
        row.values[c] = 40.0 + static_cast<double>(c);
    }
    double t = 0.0;
    for (auto _ : state) {
        if (traces.size(0) == steps) {
            for (std::size_t l = 0; l < lanes; ++l) {
                traces.clear(l);
            }
            t = 0.0;
        }
        for (std::size_t l = 0; l < lanes; ++l) {
            traces.append(l, t, row);
        }
        t += 1.0;
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lanes));
    state.SetLabel("lane-rows per second");
}
BENCHMARK(BM_TraceRecordBatch)->Arg(64)->Arg(256);

void BM_LutDecision(benchmark::State& state) {
    sim::server_simulator s;
    core::lut_controller lut(core::characterize(s).lut);
    core::controller_inputs in;
    in.utilization_pct = 63.0;
    in.max_cpu_temp = 68_degC;
    in.current_rpm = 1800_rpm;
    for (auto _ : state) {
        benchmark::DoNotOptimize(lut.decide(in));
    }
}
BENCHMARK(BM_LutDecision);

void BM_BangBangDecision(benchmark::State& state) {
    core::bang_bang_controller bang;
    core::controller_inputs in;
    in.max_cpu_temp = 72_degC;
    in.current_rpm = 2400_rpm;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bang.decide(in));
    }
}
BENCHMARK(BM_BangBangDecision);

void BM_RolloutDecision(benchmark::State& state) {
    // One full receding-horizon decision: snapshot the live plant, load
    // it into the physics-only candidate lanes, integrate every candidate
    // over the horizon through the thermal kernel, rank, commit.  With
    // the lattice below each decision rolls ~5 candidates x 120 s, so one
    // decision costs ~600 batched lane-steps — the number to watch when
    // touching the snapshot/load path or the rollout loop.
    sim::server_simulator s;
    workload::utilization_profile p("bench");
    p.constant(60.0, util::seconds_t{1e9});
    s.bind_workload(p);
    s.force_cold_start();
    s.advance(300_s);

    core::rollout_controller_config cfg;
    cfg.horizon = 120_s;
    cfg.lattice_radius = 2;
    core::rollout_controller roll(std::make_unique<core::bang_bang_controller>(), cfg);
    const core::batch_lane_plant_view plant(s.batch(), 0);
    roll.attach_plant(&plant);

    core::controller_inputs in;
    in.now = s.now();
    in.utilization_pct = s.measured_utilization(240_s);
    in.max_cpu_temp = s.max_cpu_sensor_temp();
    in.current_rpm = s.average_fan_rpm();
    in.system_power = s.system_power_reading();
    for (auto _ : state) {
        benchmark::DoNotOptimize(roll.decide(in));
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel("rollout decisions per second");
}
BENCHMARK(BM_RolloutDecision);

void BM_MeasuredUtilization(benchmark::State& state) {
    // The controller runtime's utilization reads: a fresh loadgen polled
    // every 10 s over the 240 s window, three asks per poll (the system
    // and both sockets' views), wrapping to the start at the profile
    // end.  One item averages one slid count and two repeats.  Arg 4 is
    // Test-4, whose ~780 five-second ramps are counted slot by slot;
    // arg 0 is the fault-campaign sweep's 30/90 % square wave, counted
    // in closed form.  CI gates the ratio of the two.
    const workload::utilization_profile profile =
        state.range(0) == 4
            ? workload::make_paper_test(workload::paper_test::test4_poisson)
            : workload::utilization_profile("FaultSweep").square(90.0, 30.0, 150_s, 3);
    const workload::loadgen gen(profile);
    const double end = profile.duration().value();
    double t = 10.0;
    int asks = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen.measured_utilization(util::seconds_t{t}, 240_s));
        if (++asks == 3) {
            asks = 0;
            t = t + 10.0 > end ? 10.0 : t + 10.0;
        }
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel("utilization reads per second");
}
BENCHMARK(BM_MeasuredUtilization)->Arg(4)->Arg(0);

void BM_LeakageFit(benchmark::State& state) {
    sim::server_simulator s;
    const auto sweep =
        sim::run_steady_sweep(s, sim::paper_utilization_levels(), power::paper_rpm_settings());
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::fit_power_model(sweep));
    }
}
BENCHMARK(BM_LeakageFit);

void BM_MmcSimulation(benchmark::State& state) {
    workload::mmc_config cfg;
    cfg.servers = 64;
    cfg.service_rate_hz = 0.05;
    cfg.arrival_rate_hz = 1.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            workload::simulate_mmc(cfg, util::seconds_t{static_cast<double>(state.range(0))}));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MmcSimulation)->Arg(600)->Arg(4800);

void BM_FullTable1Cell(benchmark::State& state) {
    // One Table-I cell: an 80-minute closed-loop run.
    sim::server_simulator s;
    const auto lut_table = core::characterize(s).lut;
    const auto profile = workload::make_paper_test(workload::paper_test::test3_frequent);
    for (auto _ : state) {
        core::lut_controller lut(lut_table);
        benchmark::DoNotOptimize(core::run_controlled(s, lut, profile));
    }
    state.SetLabel("80 simulated minutes per iteration");
}
BENCHMARK(BM_FullTable1Cell);

void BM_TelemetryIngest(benchmark::State& state) {
    // The telemetry service's ingestion: one shard step's 64-lane arena
    // row-group folded into the shard's online state, as
    // service::on_shard_step does on the stepping thread (minus its
    // uncontended lock).  The arena is refilled every 64 groups with the
    // timer paused.  Items = lane-rows ingested.
    constexpr std::size_t lanes = 64;
    constexpr std::size_t groups = 64;
    sim::batch_trace arena(lanes);
    telemetry_service::online_state online(lanes);
    double t = 0.0;
    const auto refill = [&] {
        for (std::size_t l = 0; l < lanes; ++l) {
            arena.clear(l);
        }
        sim::trace_row row;
        for (std::size_t g = 0; g < groups; ++g) {
            t += 1.0;
            for (std::size_t l = 0; l < lanes; ++l) {
                row[sim::trace_channel::total_power] = 250.0 + static_cast<double>(l);
                row[sim::trace_channel::max_sensor_temp] = 60.0 + static_cast<double>(l % 7);
                arena.append(l, t, row);
            }
        }
    };
    refill();
    std::size_t group = 0;
    for (auto _ : state) {
        if (group == groups) {
            state.PauseTiming();
            refill();
            state.ResumeTiming();
            group = 0;
        }
        online.apply_group(arena, group++);
        benchmark::DoNotOptimize(online.rollup().rows);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_TelemetryIngest);

void BM_OnlineMetricsWindow(benchmark::State& state) {
    // Pure online-engine row cost: one lane folding rows through whole
    // 60-row windows (trapezoids, extrema, histogram, window close).
    telemetry_service::online_state online(1);
    double channels[sim::trace_channel_count] = {};
    channels[static_cast<std::size_t>(sim::trace_channel::total_power)] = 250.0;
    channels[static_cast<std::size_t>(sim::trace_channel::avg_fan_rpm)] = 2100.0;
    channels[static_cast<std::size_t>(sim::trace_channel::avg_cpu_temp)] = 58.0;
    channels[static_cast<std::size_t>(sim::trace_channel::max_sensor_temp)] = 63.0;
    double t = 0.0;
    for (auto _ : state) {
        t += 1.0;
        channels[static_cast<std::size_t>(sim::trace_channel::total_power)] =
            250.0 + (t * 7.0 - static_cast<double>(static_cast<int>(t * 7.0 / 40.0)) * 40.0);
        online.apply_row(0, t, channels);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OnlineMetricsWindow);

}  // namespace

BENCHMARK_MAIN();
