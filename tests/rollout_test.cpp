// Receding-horizon rollout controller: degenerate equivalence (H=0 /
// K=1 is bitwise the wrapped controller), decision determinism (same
// state + candidates => same decision, on any thread count), guard
// semantics, and MPC fleets through run_controlled_batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/bang_bang_controller.hpp"
#include "core/controller_runtime.hpp"
#include "core/default_controller.hpp"
#include "core/rollout_controller.hpp"
#include "sim/metrics.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/rollout_engine.hpp"
#include "sim/server_batch.hpp"
#include "sim/server_simulator.hpp"
#include "util/error.hpp"
#include "workload/paper_tests.hpp"
#include "workload/profile.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

// A 20-minute workout with both sudden and gradual changes; long enough
// for dozens of decision epochs, short enough for sanitizer runs.
workload::utilization_profile short_profile() {
    workload::utilization_profile p("rollout-short");
    p.idle(120_s).constant(80.0, 300_s).constant(30.0, 240_s).ramp(30.0, 100.0, 240_s)
        .constant(100.0, 180_s).idle(120_s);
    return p;
}

void expect_traces_identical(const sim::trace_view& a, const sim::trace_view& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t c = 0; c < sim::trace_channel_count; ++c) {
        SCOPED_TRACE(sim::trace_channel_name(static_cast<sim::trace_channel>(c)));
        const util::column_view ca = a.channel(static_cast<sim::trace_channel>(c));
        const util::column_view cb = b.channel(static_cast<sim::trace_channel>(c));
        for (std::size_t j = 0; j < ca.size(); ++j) {
            ASSERT_EQ(ca.t(j), cb.t(j)) << "time diverged at row " << j;
            ASSERT_EQ(ca.v(j), cb.v(j)) << "value diverged at row " << j;
        }
    }
}

void expect_metrics_identical(const sim::run_metrics& a, const sim::run_metrics& b) {
    EXPECT_EQ(a.energy_kwh, b.energy_kwh);
    EXPECT_EQ(a.peak_power_w, b.peak_power_w);
    EXPECT_EQ(a.max_temp_c, b.max_temp_c);
    EXPECT_EQ(a.fan_changes, b.fan_changes);
    EXPECT_EQ(a.avg_rpm, b.avg_rpm);
    EXPECT_EQ(a.avg_cpu_temp_c, b.avg_cpu_temp_c);
}

TEST(Rollout, ZeroHorizonIsBitwiseTheWrappedController) {
    const auto profile = short_profile();
    sim::server_simulator s_base;
    sim::server_simulator s_roll;
    core::bang_bang_controller bang;
    core::rollout_controller_config cfg;
    cfg.horizon = 0_s;  // degenerate: never rolls out
    core::rollout_controller roll(std::make_unique<core::bang_bang_controller>(), cfg);

    const auto m_base = core::run_controlled(s_base, bang, profile);
    const auto m_roll = core::run_controlled(s_roll, roll, profile);
    expect_traces_identical(s_base.trace(), s_roll.trace());
    expect_metrics_identical(m_base, m_roll);
    EXPECT_EQ(m_roll.controller_name, "Rollout(Bang)");
}

TEST(Rollout, SingleCandidateIsBitwiseTheWrappedController) {
    const auto profile = short_profile();
    sim::server_simulator s_base;
    sim::server_simulator s_roll;
    core::bang_bang_controller bang;
    core::rollout_controller_config cfg;
    cfg.horizon = 120_s;
    cfg.lattice_radius = 0;    // K = 1: the only candidate is the
    cfg.include_hold = false;  // baseline's own proposal
    core::rollout_controller roll(std::make_unique<core::bang_bang_controller>(), cfg);

    const auto m_base = core::run_controlled(s_base, bang, profile);
    const auto m_roll = core::run_controlled(s_roll, roll, profile);
    expect_traces_identical(s_base.trace(), s_roll.trace());
    expect_metrics_identical(m_base, m_roll);
}

TEST(Rollout, UnattachedControllerFallsBackToBaseline) {
    core::rollout_controller roll(std::make_unique<core::bang_bang_controller>());
    core::bang_bang_controller bang;
    core::controller_inputs in;
    in.max_cpu_temp = 78_degC;  // band: step up
    in.current_rpm = 2400_rpm;
    EXPECT_EQ(roll.decide(in), bang.decide(in));
    EXPECT_EQ(roll.polling_period().value(), bang.polling_period().value());
    EXPECT_EQ(roll.name(), "Rollout(Bang)");
}

TEST(Rollout, ControlledRunsAreBitwiseRepeatable) {
    const auto profile = short_profile();
    sim::run_metrics m[2];
    sim::server_simulator s0;
    sim::server_simulator s1;
    sim::server_simulator* sims[2] = {&s0, &s1};
    for (int r = 0; r < 2; ++r) {
        core::rollout_controller roll(std::make_unique<core::bang_bang_controller>());
        m[r] = core::run_controlled(*sims[r], roll, profile);
    }
    expect_traces_identical(s0.trace(), s1.trace());
    expect_metrics_identical(m[0], m[1]);
}

TEST(Rollout, EvaluationIsAPureFunctionOfStateAndCandidates) {
    const auto profile = short_profile();
    sim::server_simulator s;
    s.bind_workload(profile);
    s.force_cold_start();
    s.advance(400_s);
    const sim::server_state snap = s.snapshot_state();

    const std::vector<sim::fan_schedule> candidates = {
        {{2400_rpm}}, {{1800_rpm}}, {{3600_rpm, 3000_rpm}}};
    sim::rollout_options opt;
    opt.horizon = 90_s;
    opt.epoch = 30_s;

    sim::rollout_engine e1(s.config(), 4);
    sim::rollout_engine e2(s.config(), 4);
    const workload::loadgen& load = *s.workload();
    const sim::rollout_result r1 = e1.evaluate(snap, load, nullptr, candidates, opt);
    const sim::rollout_result r2 = e1.evaluate(snap, load, nullptr, candidates, opt);  // reused
    const sim::rollout_result r3 = e2.evaluate(snap, load, nullptr, candidates, opt);  // fresh
    ASSERT_EQ(r1.scores.size(), 3U);
    for (const sim::rollout_result* r : {&r2, &r3}) {
        EXPECT_EQ(r1.best, r->best);
        for (std::size_t i = 0; i < r1.scores.size(); ++i) {
            EXPECT_EQ(r1.scores[i].energy_j, r->scores[i].energy_j);
            EXPECT_EQ(r1.scores[i].peak_temp_c, r->scores[i].peak_temp_c);
            EXPECT_EQ(r1.scores[i].steps, r->scores[i].steps);
            EXPECT_EQ(r1.scores[i].guarded, r->scores[i].guarded);
        }
    }
    // And the probed plant was never perturbed: its state still equals
    // the snapshot.
    const sim::server_state after = s.snapshot_state();
    EXPECT_EQ(after.thermal.temps, snap.thermal.temps);
    EXPECT_EQ(after.now_s, snap.now_s);
}

TEST(Rollout, PrefersCheaperCandidateWhenGuardIsSafe) {
    workload::utilization_profile idle("idle");
    idle.idle(3600_s);
    sim::server_simulator s;
    s.bind_workload(idle);
    s.force_cold_start();
    s.set_all_fans(4200_rpm);
    s.advance(120_s);

    sim::rollout_engine engine(s.config(), 2);
    sim::rollout_options opt;
    opt.horizon = 120_s;
    opt.epoch = 30_s;
    const std::vector<sim::fan_schedule> candidates = {{{4200_rpm}}, {{1800_rpm}}};
    const sim::rollout_result r =
        engine.evaluate(s.snapshot_state(), *s.workload(), nullptr, candidates, opt);
    EXPECT_EQ(r.best, 1U);  // idle machine: slow fans win on energy
    EXPECT_FALSE(r.scores[0].guarded);
    EXPECT_FALSE(r.scores[1].guarded);
    EXPECT_LT(r.scores[1].energy_j, r.scores[0].energy_j);
}

TEST(Rollout, GuardTerminatesHotCandidatesEarlyAndPenalizesThem) {
    workload::utilization_profile hot("hot");
    hot.constant(100.0, 3600_s);
    sim::server_simulator s;
    s.bind_workload(hot);
    s.force_cold_start();
    s.set_all_fans(3600_rpm);
    s.advance(600_s);

    sim::rollout_engine engine(s.config(), 2);
    sim::rollout_options opt;
    opt.horizon = 600_s;
    opt.epoch = 60_s;
    // At 100% load, minimum fans push the dies well past 70 degC while
    // maximum fans hold them under it.
    opt.guard_temp_c = 70.0;
    const std::vector<sim::fan_schedule> candidates = {{{1800_rpm}}, {{4200_rpm}}};
    const sim::rollout_result r =
        engine.evaluate(s.snapshot_state(), *s.workload(), nullptr, candidates, opt);
    EXPECT_TRUE(r.scores[0].guarded);
    EXPECT_LT(r.scores[0].steps, 600);  // terminated before the horizon
    EXPECT_FALSE(r.scores[1].guarded);
    EXPECT_EQ(r.scores[1].steps, 600);
    EXPECT_EQ(r.best, 1U);  // the guard outranks the fan-power difference
    EXPECT_LT(r.scores[0].energy_j, r.scores[1].energy_j);
}

TEST(Rollout, AllGuardedSetRanksTheLaterTripFirst) {
    // Every candidate trips the guard.  A guarded lane stops at its trip
    // step, so the hottest candidate (slowest fans) integrates the
    // fewest steps and predicts the least energy; it must not win.  The
    // latest trip ranks first, then the smaller peak.
    workload::utilization_profile hot("hot");
    hot.constant(100.0, 3600_s);
    sim::server_simulator s;
    s.bind_workload(hot);
    s.force_cold_start();
    s.set_all_fans(3600_rpm);
    s.advance(600_s);

    sim::rollout_engine engine(s.config(), 4);
    sim::rollout_options opt;
    opt.horizon = 900_s;
    opt.epoch = 60_s;
    opt.guard_temp_c = s.max_cpu_sensor_temp().value() + 5.0;
    const std::vector<sim::fan_schedule> candidates = {
        {{1800_rpm}}, {{2100_rpm}}, {{2400_rpm}}, {{2100_rpm}}};
    const sim::rollout_result r =
        engine.evaluate(s.snapshot_state(), *s.workload(), nullptr, candidates, opt);
    for (const sim::candidate_score& sc : r.scores) {
        ASSERT_TRUE(sc.guarded);
    }
    ASSERT_LT(r.scores[0].steps, r.scores[1].steps);
    ASSERT_LT(r.scores[1].steps, r.scores[2].steps);
    EXPECT_LT(r.scores[0].energy_j, r.scores[2].energy_j);
    EXPECT_EQ(r.best, 2U);

    // Lanes 1 and 3 run the same schedule: equal trip steps and equal
    // peaks fall to the lower index.
    EXPECT_EQ(r.scores[1].steps, r.scores[3].steps);
    EXPECT_EQ(r.scores[1].peak_temp_c, r.scores[3].peak_temp_c);
    const std::vector<sim::fan_schedule> same_trip = {{{2100_rpm}}, {{2100_rpm}}};
    EXPECT_EQ(engine.evaluate(s.snapshot_state(), *s.workload(), nullptr, same_trip, opt).best, 0U);
}

TEST(Rollout, TiesBreakToTheLowestCandidateIndex) {
    workload::utilization_profile idle("idle");
    idle.idle(1200_s);
    sim::server_simulator s;
    s.bind_workload(idle);
    s.force_cold_start();
    s.advance(60_s);
    sim::rollout_engine engine(s.config(), 2);
    sim::rollout_options opt;
    opt.horizon = 60_s;
    const std::vector<sim::fan_schedule> twins = {{{2400_rpm}}, {{2400_rpm}}};
    const sim::rollout_result r =
        engine.evaluate(s.snapshot_state(), *s.workload(), nullptr, twins, opt);
    EXPECT_EQ(r.scores[0].energy_j, r.scores[1].energy_j);
    EXPECT_EQ(r.best, 0U);
}

TEST(Rollout, EngineRejectsBadInputs) {
    sim::server_simulator s;
    workload::utilization_profile idle("idle");
    idle.idle(600_s);
    s.bind_workload(idle);
    s.force_cold_start();
    const sim::server_state snap = s.snapshot_state();
    const workload::loadgen& load = *s.workload();
    sim::rollout_engine engine(s.config(), 2);
    sim::rollout_options opt;

    // Empty candidate set / over budget / empty schedule / bad campaign /
    // bad knobs.
    EXPECT_THROW(static_cast<void>(engine.evaluate(snap, load, nullptr, {}, opt)),
                 util::precondition_error);
    EXPECT_THROW(static_cast<void>(engine.evaluate(
                     snap, load, nullptr, {{{2400_rpm}}, {{2400_rpm}}, {{2400_rpm}}}, opt)),
                 util::precondition_error);
    EXPECT_THROW(
        static_cast<void>(engine.evaluate(snap, load, nullptr, {sim::fan_schedule{}}, opt)),
        util::precondition_error);
    // A campaign with a fan target past the last pair is rejected whole,
    // before any lane steps, as binding it to a plant is: a fan_recover
    // event writes the lanes' per-pair fault state unchecked.  The bad
    // event lies past the horizon, so only that up-front check sees it.
    const std::size_t pairs = s.config().fan_pairs;
    const sim::fault_schedule last_pair(
        {sim::fault_event{30.0, sim::fault_kind::fan_failure, pairs - 1, 0.0, 0.0}});
    EXPECT_NO_THROW(
        static_cast<void>(engine.evaluate(snap, load, &last_pair, {{{2400_rpm}}}, opt)));
    const sim::fault_schedule past_the_end(
        {sim::fault_event{3600.0, sim::fault_kind::fan_failure, pairs, 0.0, 0.0}});
    EXPECT_THROW(
        static_cast<void>(engine.evaluate(snap, load, &past_the_end, {{{2400_rpm}}}, opt)),
        util::precondition_error);
    opt.horizon = 0_s;
    EXPECT_THROW(static_cast<void>(engine.evaluate(snap, load, nullptr, {{{2400_rpm}}}, opt)),
                 util::precondition_error);
}

TEST(Rollout, FleetOfRolloutControllersMatchesScalarRuns) {
    // Two MPC-controlled lanes through run_controlled_batch must be
    // bitwise what two independent scalar MPC runs produce: the lane
    // plant_access windows and per-lane engines cannot cross-talk.
    const auto p1 = short_profile();
    auto p2 = workload::utilization_profile("rollout-short-2");
    p2.constant(60.0, 600_s).constant(15.0, 300_s).constant(95.0, 300_s);

    const auto make = [] {
        core::rollout_controller_config cfg;
        cfg.horizon = 60_s;
        cfg.lattice_radius = 1;
        return std::make_unique<core::rollout_controller>(
            std::make_unique<core::bang_bang_controller>(), cfg);
    };

    sim::server_batch batch(sim::paper_server(), 2);
    const auto c0 = make();
    const auto c1 = make();
    const auto fleet = core::run_controlled_batch(batch, {c0.get(), c1.get()}, {p1, p2});

    sim::server_simulator s1;
    sim::server_simulator s2;
    const auto r1 = core::run_controlled(s1, *make(), p1);
    const auto r2 = core::run_controlled(s2, *make(), p2);
    expect_traces_identical(batch.trace(0), s1.trace());
    expect_traces_identical(batch.trace(1), s2.trace());
    expect_metrics_identical(fleet[0], r1);
    expect_metrics_identical(fleet[1], r2);
}

TEST(Rollout, ParallelRunnerIsThreadCountInvariant) {
    const auto run = [](std::size_t threads) {
        sim::parallel_runner runner(threads);
        return runner.map<sim::run_metrics>(4, [](std::size_t i) {
            workload::utilization_profile p("cell");
            p.constant(20.0 * static_cast<double>(i + 1), 600_s).idle(120_s);
            sim::server_simulator s;
            core::rollout_controller_config cfg;
            cfg.horizon = 60_s;
            cfg.lattice_radius = 1;
            core::rollout_controller roll(std::make_unique<core::bang_bang_controller>(), cfg);
            return core::run_controlled(s, roll, p);
        });
    };
    const auto serial = run(1);
    const auto threaded = run(4);
    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        expect_metrics_identical(serial[i], threaded[i]);
    }
}

TEST(Rollout, CommitsTheFirstMoveOfTheWinningSchedule) {
    const auto profile = short_profile();
    sim::server_simulator s;
    core::rollout_controller_config cfg;
    cfg.horizon = 90_s;
    cfg.lattice_radius = 2;
    core::rollout_controller roll(std::make_unique<core::bang_bang_controller>(), cfg);
    static_cast<void>(core::run_controlled(s, roll, profile));
    // After a run with rollouts enabled, the last decision's scores are
    // exposed and the winner is inside the candidate set.
    const sim::rollout_result& last = roll.last_rollout();
    ASSERT_FALSE(last.scores.empty());
    EXPECT_LT(last.best, last.scores.size());
}

TEST(Rollout, GuardedLaneIsRecycledCleanlyAcrossEvaluations) {
    // A lane parked by the guard in evaluation N (inactive, hot state,
    // scored early) must come back fully recycled in evaluation N+1:
    // loading the snapshot reactivates it and overwrites every live
    // field — so a reused engine's scores stay bitwise a fresh engine's.
    workload::utilization_profile hot("hot");
    hot.constant(100.0, 3600_s);
    sim::server_simulator s;
    s.bind_workload(hot);
    s.force_cold_start();
    s.set_all_fans(3600_rpm);
    s.advance(600_s);
    const sim::server_state snap = s.snapshot_state();

    sim::rollout_options opt;
    opt.horizon = 300_s;
    opt.epoch = 60_s;
    opt.guard_temp_c = 70.0;  // min-fan candidates trip this at 100 % load
    const std::vector<sim::fan_schedule> with_hot = {{{1800_rpm}}, {{4200_rpm}}};
    const std::vector<sim::fan_schedule> all_cool = {{{4200_rpm}}, {{3600_rpm}}};

    sim::rollout_engine reused(s.config(), 2);
    const sim::rollout_result first = reused.evaluate(snap, *s.workload(), nullptr, with_hot, opt);
    ASSERT_TRUE(first.scores[0].guarded);  // lane 0 parked mid-horizon
    ASSERT_LT(first.scores[0].steps, 300);

    // Same engine, next epoch: lane 0 must behave as if never guarded.
    const sim::rollout_result second = reused.evaluate(snap, *s.workload(), nullptr, all_cool, opt);
    EXPECT_FALSE(second.scores[0].guarded);
    EXPECT_EQ(second.scores[0].steps, 300);  // the full horizon again

    sim::rollout_engine fresh(s.config(), 2);
    const sim::rollout_result clean = fresh.evaluate(snap, *s.workload(), nullptr, all_cool, opt);
    EXPECT_EQ(second.best, clean.best);
    ASSERT_EQ(second.scores.size(), clean.scores.size());
    for (std::size_t i = 0; i < clean.scores.size(); ++i) {
        EXPECT_EQ(second.scores[i].energy_j, clean.scores[i].energy_j);
        EXPECT_EQ(second.scores[i].peak_temp_c, clean.scores[i].peak_temp_c);
        EXPECT_EQ(second.scores[i].steps, clean.scores[i].steps);
        EXPECT_EQ(second.scores[i].guarded, clean.scores[i].guarded);
    }
}

TEST(Rollout, CandidateCountShrinkThenGrowStaysBitwise) {
    // Evaluating K=4, then K=2 (lanes 2-3 parked as spares), then K=4
    // again must leave the regrown evaluation bitwise a fresh engine's:
    // spare-parking in one epoch cannot leak into the next.
    const auto profile = short_profile();
    sim::server_simulator s;
    s.bind_workload(profile);
    s.force_cold_start();
    s.advance(500_s);
    const sim::server_state snap = s.snapshot_state();

    sim::rollout_options opt;
    opt.horizon = 90_s;
    opt.epoch = 30_s;
    const std::vector<sim::fan_schedule> four = {
        {{1800_rpm}}, {{2400_rpm}}, {{3000_rpm}}, {{3600_rpm}}};
    const std::vector<sim::fan_schedule> two = {{{2100_rpm}}, {{2700_rpm}}};

    sim::rollout_engine reused(s.config(), 4);
    const workload::loadgen& load = *s.workload();
    static_cast<void>(reused.evaluate(snap, load, nullptr, four, opt));
    static_cast<void>(reused.evaluate(snap, load, nullptr, two, opt));  // shrink: lanes 2-3 parked
    const sim::rollout_result regrown = reused.evaluate(snap, load, nullptr, four, opt);

    sim::rollout_engine fresh(s.config(), 4);
    const sim::rollout_result clean = fresh.evaluate(snap, load, nullptr, four, opt);
    EXPECT_EQ(regrown.best, clean.best);
    ASSERT_EQ(regrown.scores.size(), clean.scores.size());
    for (std::size_t i = 0; i < clean.scores.size(); ++i) {
        EXPECT_EQ(regrown.scores[i].energy_j, clean.scores[i].energy_j);
        EXPECT_EQ(regrown.scores[i].peak_temp_c, clean.scores[i].peak_temp_c);
        EXPECT_EQ(regrown.scores[i].steps, clean.scores[i].steps);
        EXPECT_EQ(regrown.scores[i].guarded, clean.scores[i].guarded);
    }
}

/// One snapshot setup for Rollout.PredictionEqualsRealization.
struct prediction_case {
    const char* name = "";
    bool monitor = false;
    double imbalance = 0.5;
    util::seconds_t snapshot_at{0.0};
    util::seconds_t sim_dt{1.0};
    util::seconds_t epoch{30.0};
    std::vector<sim::fault_event> events;
};

sim::fault_event fault_at(double t_s, sim::fault_kind kind, std::size_t target, double value = 0.0,
                          double duration_s = 0.0) {
    return sim::fault_event{t_s, kind, target, value, duration_s};
}

/// The step index at which move `i` of a schedule applies.
long move_step(std::size_t i, double epoch, double dt) {
    return static_cast<long>(std::ceil(static_cast<double>(i) * epoch / dt - 1e-9));
}

TEST(Rollout, PredictionEqualsRealization) {
    // Every candidate's prediction is bitwise what a plant restored from
    // the same snapshot realizes under the same moves: the energy summed
    // over its trace, its peak true die temperature, and its step count.
    // The snapshots cover a running monitor, an imbalanced load split, a
    // stuck fan active at the snapshot, and fan, sensor and telemetry
    // faults scheduled inside the horizon.
    using sim::fault_kind;
    prediction_case stuck;
    stuck.name = "monitored, stuck fan at the snapshot";
    stuck.monitor = true;
    stuck.snapshot_at = 400_s;
    stuck.events = {
        fault_at(300.0, fault_kind::fan_stuck_pwm, 0, 2700.0),
        fault_at(430.0, fault_kind::sensor_bias, 1, 3.0),
        fault_at(470.0, fault_kind::fan_failure, 2),
        fault_at(500.0, fault_kind::fan_recover, 0),
        fault_at(540.0, fault_kind::fan_recover, 2),
    };
    prediction_case skewed;
    skewed.name = "imbalanced, tach and telemetry faults";
    skewed.imbalance = 0.7;
    skewed.snapshot_at = 650_s;
    skewed.events = {
        fault_at(690.0, fault_kind::telemetry_loss, 0, 0.0, 40.0),
        fault_at(700.0, fault_kind::fan_tach_stuck, 1),
        fault_at(780.0, fault_kind::fan_recover, 1),
    };
    prediction_case every;
    every.name = "monitored and imbalanced, every fault class";
    every.monitor = true;
    every.imbalance = 0.7;
    every.snapshot_at = 850_s;
    every.sim_dt = 0.5_s;
    every.epoch = 45_s;
    every.events = {
        fault_at(800.0, fault_kind::fan_stuck_pwm, 2, std::numeric_limits<double>::quiet_NaN()),
        fault_at(880.0, fault_kind::fan_failure, 0),
        fault_at(900.0, fault_kind::sensor_bias, 3, 2.0),
        fault_at(910.0, fault_kind::telemetry_loss, 0, 0.0, 20.0),
        fault_at(950.0, fault_kind::fan_tach_stuck, 1),
        fault_at(1000.0, fault_kind::fan_recover, 0),
    };
    const std::vector<sim::fan_schedule> candidates = {
        {{3000_rpm, 2400_rpm, 2700_rpm}},
        {{3600_rpm, 2400_rpm, 4200_rpm, 3000_rpm}},
        {{2400_rpm, 3300_rpm}},
        {{4200_rpm, 2700_rpm, 3900_rpm, 2400_rpm, 3000_rpm}},
    };
    const auto profile = short_profile();

    for (const prediction_case& pc : {stuck, skewed, every}) {
        SCOPED_TRACE(pc.name);
        sim::server_config cfg = sim::paper_server();
        cfg.monitor.enabled = pc.monitor;
        const sim::fault_schedule schedule(pc.events);
        sim::server_simulator source(cfg);
        source.bind_workload(profile);
        source.set_load_imbalance(pc.imbalance);
        source.bind_fault_schedule(schedule);
        source.force_cold_start();
        source.set_all_fans(3000_rpm);
        source.advance(pc.snapshot_at);
        const sim::server_state snap = source.snapshot_state();

        sim::rollout_options opt;
        opt.horizon = 180_s;
        opt.epoch = pc.epoch;
        opt.sim_dt = pc.sim_dt;
        opt.guard_temp_c = 95.0;
        sim::rollout_engine engine(cfg, candidates.size());
        const sim::rollout_result r =
            engine.evaluate(snap, *source.workload(), &schedule, candidates, opt);

        const double dt = pc.sim_dt.value();
        for (std::size_t c = 0; c < candidates.size(); ++c) {
            SCOPED_TRACE("candidate " + std::to_string(c));
            const sim::candidate_score& score = r.scores[c];
            ASSERT_FALSE(score.guarded);
            EXPECT_EQ(score.steps, static_cast<long>(std::ceil(180.0 / dt - 1e-9)));
            const std::vector<util::rpm_t>& moves = candidates[c].moves;

            sim::server_simulator plant(cfg);
            plant.bind_workload(profile);
            plant.bind_fault_schedule(schedule);
            plant.restore_state(snap);
            std::size_t move_idx = 0;
            double peak = 0.0;
            for (long step = 0; step < score.steps; ++step) {
                if (step >= move_step(move_idx, pc.epoch.value(), dt)) {
                    plant.set_all_fans(moves[std::min(move_idx, moves.size() - 1)]);
                    ++move_idx;
                }
                plant.step(pc.sim_dt);
                const double t_max =
                    std::max(plant.true_cpu_temp(0).value(), plant.true_cpu_temp(1).value());
                peak = std::max(peak, t_max);
            }
            const util::column_view power = plant.trace().total_power();
            double energy = 0.0;
            for (std::size_t i = 0; i < power.size(); ++i) {
                energy += power.v(i) * dt;
            }
            EXPECT_EQ(static_cast<long>(power.size()), score.steps);
            EXPECT_EQ(energy, score.energy_j);
            EXPECT_EQ(peak, score.peak_temp_c);
        }
    }
}

TEST(Rollout, LatticeClampFollowsThePlantFanRange) {
    // A plant whose fans reach 5000 RPM, a baseline proposing 4200 and a
    // load step to 100 %: only lattice points above 4200 keep the dies
    // under the guard, so the committed move must use the plant's range.
    sim::server_config cfg;
    cfg.fan.max_rpm = 5000_rpm;
    workload::utilization_profile profile("step");
    profile.idle(300_s).constant(100.0, 1200_s);
    sim::server_simulator s(cfg);
    s.bind_workload(profile);
    s.force_cold_start();
    s.advance(300_s);

    // Guard between the 4200 and 4500 RPM peaks over the horizon.
    sim::rollout_options opt;
    opt.horizon = 180_s;
    opt.epoch = 10_s;
    opt.guard_temp_c = 1000.0;
    sim::rollout_engine probe(cfg, 2);
    const sim::rollout_result peaks = probe.evaluate(
        s.snapshot_state(), *s.workload(), nullptr, {{{4200_rpm}}, {{4500_rpm}}}, opt);
    ASSERT_GT(peaks.scores[0].peak_temp_c, peaks.scores[1].peak_temp_c);
    core::rollout_controller_config rc;
    rc.horizon = opt.horizon;
    rc.guard_temp_c = 0.5 * (peaks.scores[0].peak_temp_c + peaks.scores[1].peak_temp_c);

    const core::batch_lane_plant_view plant(s.batch(), 0);
    core::rollout_controller roll(std::make_unique<core::default_controller>(4200_rpm), rc);
    roll.attach_plant(&plant);
    core::controller_inputs in;
    in.now = s.now();
    in.utilization_pct = s.measured_utilization(240_s);
    in.max_cpu_temp = s.max_cpu_sensor_temp();
    in.current_rpm = s.average_fan_rpm();
    in.system_power = s.system_power_reading();
    const std::optional<util::rpm_t> cmd = roll.decide(in);
    ASSERT_TRUE(cmd.has_value());
    EXPECT_GT(cmd->value(), 4200.0);
    EXPECT_LE(cmd->value(), 5000.0);
    EXPECT_FALSE(roll.last_rollout().scores[roll.last_rollout().best].guarded);
}

TEST(Rollout, CampaignReboundInPlaceIsPreviewedAtTheNextDecision) {
    // Rebinding a plant's campaign replaces it at the same address.  The
    // next decision must preview the new campaign, bitwise as a
    // controller that never saw the old one.
    workload::utilization_profile profile("steady");
    profile.constant(60.0, 3600_s);
    sim::server_simulator s;
    s.bind_workload(profile);
    s.force_cold_start();
    s.advance(300_s);
    const core::batch_lane_plant_view plant(s.batch(), 0);
    core::controller_inputs in;
    in.now = s.now();
    in.utilization_pct = s.measured_utilization(240_s);
    in.max_cpu_temp = s.max_cpu_sensor_temp();
    in.current_rpm = s.average_fan_rpm();
    in.system_power = s.system_power_reading();
    const double now = in.now.value();

    s.bind_fault_schedule(
        sim::fault_schedule({fault_at(now + 3000.0, sim::fault_kind::fan_failure, 0)}));
    core::rollout_controller rebound(std::make_unique<core::bang_bang_controller>());
    rebound.attach_plant(&plant);
    static_cast<void>(rebound.decide(in));
    s.bind_fault_schedule(
        sim::fault_schedule({fault_at(now + 30.0, sim::fault_kind::fan_failure, 0),
                             fault_at(now + 30.0, sim::fault_kind::fan_failure, 1)}));
    static_cast<void>(rebound.decide(in));

    core::rollout_controller fresh(std::make_unique<core::bang_bang_controller>());
    fresh.attach_plant(&plant);
    static_cast<void>(fresh.decide(in));
    static_cast<void>(fresh.decide(in));

    const sim::rollout_result& got = rebound.last_rollout();
    const sim::rollout_result& want = fresh.last_rollout();
    ASSERT_FALSE(want.scores.empty());
    EXPECT_EQ(got.best, want.best);
    ASSERT_EQ(got.scores.size(), want.scores.size());
    for (std::size_t i = 0; i < want.scores.size(); ++i) {
        SCOPED_TRACE("candidate " + std::to_string(i));
        EXPECT_EQ(got.scores[i].energy_j, want.scores[i].energy_j);
        EXPECT_EQ(got.scores[i].peak_temp_c, want.scores[i].peak_temp_c);
        EXPECT_EQ(got.scores[i].steps, want.scores[i].steps);
        EXPECT_EQ(got.scores[i].guarded, want.scores[i].guarded);
    }
}

}  // namespace
