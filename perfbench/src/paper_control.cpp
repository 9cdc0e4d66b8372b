// paper_control: the paper's own experiment, closed-loop, repeated over
// seeds.
//
// Each round is the fig_rollout matrix: the four Table-I tests, each as
// one five-lane server_batch (Default, Bang, LUT, Roll(Bang), Roll(LUT)),
// tests spread over a parallel_runner.  A round's sub-seed sets the
// plants' sensor-noise seed and the Test-4 Poisson seed.  It is the only
// workload that exercises sim::rollout_engine; its batches are tiny and
// cache-resident, and most host time goes to rollout candidate lanes.
#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "core/bang_bang_controller.hpp"
#include "core/characterization.hpp"
#include "core/controller_runtime.hpp"
#include "core/default_controller.hpp"
#include "core/lut_controller.hpp"
#include "core/rollout_controller.hpp"
#include "sim/metrics.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/server_batch.hpp"
#include "sim/server_simulator.hpp"
#include "timed.hpp"
#include "workload/paper_tests.hpp"

namespace perfbench {

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

constexpr std::array<workload::paper_test, 4> kTests = {
    workload::paper_test::test1_ramp,
    workload::paper_test::test2_periods,
    workload::paper_test::test3_frequent,
    workload::paper_test::test4_poisson,
};
constexpr std::size_t kLanes = 5;  // Default, Bang, LUT, Roll(Bang), Roll(LUT)
constexpr std::size_t kSetups = 51;
// Rounds (4 tests each) of the warm-up batch, whose simulated statistics
// are reported: a fixed set of rounds, so the statistics are a function
// of the seed alone and compare exactly between commits.
constexpr std::size_t kWarmupRounds = 4;
// Rounds per timed parallel_runner batch: enough tasks that the batch's
// last, partly idle wave is a small share of its wall time.
constexpr std::size_t kBatchRounds = 6;

/// Table I of the paper: energy [kWh] of Default/Bang/LUT and the
/// net savings [%] of Bang and LUT, per test (the same reference values
/// bench/table1_controller_comparison.cpp prints).
struct table1_row {
    std::array<double, 3> energy_kwh;
    double bang_savings_pct;
    double lut_savings_pct;
};
constexpr std::array<table1_row, 4> kPaper = {{
    {{0.6695, 0.6570, 0.6556}, 6.8, 7.7},
    {{0.6857, 0.6856, 0.6685}, 0.05, 8.7},
    {{0.6284, 0.6253, 0.6226}, 2.0, 3.9},
    {{0.6160, 0.6101, 0.6071}, 4.7, 6.9},
}};

core::rollout_controller_config rollout_config() {
    core::rollout_controller_config cfg;  // as bench/fig_rollout
    cfg.decision_period = 30_s;
    cfg.horizon = 180_s;
    cfg.lattice_step = 300_rpm;
    cfg.lattice_radius = 2;
    cfg.guard_temp_c = 75.0;
    return cfg;
}

struct test_out {
    std::vector<sim::run_metrics> metrics;  ///< One per lane.
    decision_log rollout_log;
    double wall_s = 0.0;
};

struct plant_setup {
    core::fan_lut lut;
    util::watts_t idle_power{0.0};
};

test_out run_test(const plant_setup& setup, workload::paper_test test, std::uint64_t sub_seed,
                  bool traced) {
    const workload::utilization_profile profile =
        workload::make_paper_test(test, derive_seed(sub_seed, 1));
    sim::server_config config = sim::paper_server();
    config.seed = derive_seed(sub_seed, 0);
    sim::server_batch batch(config, kLanes);

    test_out out;
    const auto reactive =
        [&](std::unique_ptr<core::fan_controller> c) -> std::unique_ptr<core::fan_controller> {
        if (!traced) {
            return c;
        }
        return std::make_unique<timed_controller>(std::move(c), "core.decide", nullptr);
    };
    const auto rollout = [&](std::unique_ptr<core::fan_controller> base) {
        auto roll = std::make_unique<core::rollout_controller>(reactive(std::move(base)),
                                                               rollout_config());
        return std::make_unique<timed_controller>(std::move(roll), "core.rollout.decide",
                                                  &out.rollout_log);
    };
    std::vector<std::unique_ptr<core::fan_controller>> owned;
    owned.push_back(reactive(std::make_unique<core::default_controller>()));
    owned.push_back(reactive(std::make_unique<core::bang_bang_controller>()));
    owned.push_back(reactive(std::make_unique<core::lut_controller>(setup.lut)));
    owned.push_back(rollout(std::make_unique<core::bang_bang_controller>()));
    owned.push_back(rollout(std::make_unique<core::lut_controller>(setup.lut)));
    std::vector<core::fan_controller*> controllers;
    for (const auto& c : owned) {
        controllers.push_back(c.get());
    }

    const double t0 = now_s();
    {
        scoped_span span("sim.run_controlled_batch");
        out.metrics = core::run_controlled_batch(
            batch, controllers, std::vector<workload::utilization_profile>(kLanes, profile));
    }
    out.wall_s = now_s() - t0;
    return out;
}

/// Simulated accuracy of one round against Table I.
struct paper_error {
    double energy_err_pct = 0.0;   ///< Mean |E - E_paper| / E_paper over 12 cells.
    double savings_gap_err_pp = 0.0;  ///< Mean |(LUT - Bang savings) - paper gap|.
};

paper_error compare_with_paper(const std::vector<test_out>& tests, util::watts_t idle_power) {
    paper_error err;
    for (std::size_t t = 0; t < kTests.size(); ++t) {
        const auto& m = tests[t].metrics;
        for (std::size_t c = 0; c < 3; ++c) {
            err.energy_err_pct +=
                100.0 * std::abs(m[c].energy_kwh - kPaper[t].energy_kwh[c]) /
                kPaper[t].energy_kwh[c];
        }
        const double gap = 100.0 * (sim::net_savings(m[2], m[0], idle_power) -
                                    sim::net_savings(m[1], m[0], idle_power));
        const double paper_gap = kPaper[t].lut_savings_pct - kPaper[t].bang_savings_pct;
        err.savings_gap_err_pp += std::abs(gap - paper_gap);
    }
    err.energy_err_pct /= 12.0;
    err.savings_gap_err_pp /= static_cast<double>(kTests.size());
    return err;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool same_outputs(const std::vector<test_out>& a, const std::vector<test_out>& b) {
    for (std::size_t t = 0; t < a.size(); ++t) {
        for (std::size_t l = 0; l < kLanes; ++l) {
            const sim::run_metrics& x = a[t].metrics[l];
            const sim::run_metrics& y = b[t].metrics[l];
            if (!same_bits(x.energy_kwh, y.energy_kwh) ||
                !same_bits(x.peak_power_w, y.peak_power_w) ||
                !same_bits(x.max_temp_c, y.max_temp_c) || x.fan_changes != y.fan_changes ||
                !same_bits(x.avg_rpm, y.avg_rpm) ||
                !same_bits(x.avg_cpu_temp_c, y.avg_cpu_temp_c) ||
                !same_bits(x.duration_s, y.duration_s)) {
                return false;
            }
        }
    }
    return true;
}

/// One measured phase.  The first batch of rounds is a warm-up: it is
/// checked and gives the simulated statistics, but is not timed.  Timed
/// batches follow until `budget_s` host seconds have passed.
struct phase_out {
    std::size_t timed_rounds = 0;
    double wall_s = 0.0;      ///< Host seconds of the timed batches.
    chunk_stats batches;      ///< Per timed batch: server-s/s and decision latency [ms].
    decision_log rollout_log; ///< Timed batches.
    std::vector<double> task_imbalance;  ///< Per timed batch: slowest / mean test wall.
    std::vector<test_out> first_round;
    paper_error error;  ///< Mean over the warm-up rounds.
};

phase_out run_phase(const run_options& options, const plant_setup& setup, double budget_s,
                    bool traced, check_tally& checks) {
    sim::parallel_runner runner(worker_threads());
    phase_out out;
    double timed_s = 0.0;
    for (std::size_t b = 0; b == 0 || timed_s < budget_s; ++b) {
        set_run_id(static_cast<std::uint32_t>(b));
        const std::size_t first = b == 0 ? 0 : kWarmupRounds + (b - 1) * kBatchRounds;
        const std::size_t rounds = b == 0 ? kWarmupRounds : kBatchRounds;
        const double t0 = now_s();
        std::vector<test_out> tests =
            runner.map<test_out>(rounds * kTests.size(), [&](std::size_t i) {
                const std::uint64_t sub_seed = derive_seed(options.seed, first + i / kTests.size());
                return run_test(setup, kTests[i % kTests.size()], sub_seed, traced);
            });
        const double wall = now_s() - t0;
        double server_s = 0.0;
        double slowest = 0.0;
        double total = 0.0;
        decision_log log;
        for (const test_out& t : tests) {
            const auto& m = t.metrics;
            // Output checks: lookahead never loses to its own baseline
            // beyond 0.1 %, and the stock policy never touches the fans.
            checks.check(m[3].energy_kwh <= m[1].energy_kwh * 1.001);
            checks.check(m[4].energy_kwh <= m[2].energy_kwh * 1.001);
            checks.check(m[0].fan_changes == 0);
            for (const auto& lane : m) {
                server_s += lane.duration_s;
            }
            log.merge(t.rollout_log);
            slowest = std::max(slowest, t.wall_s);
            total += t.wall_s;
        }
        if (b == 0) {
            for (std::size_t r = 0; r < kWarmupRounds; ++r) {
                const std::vector<test_out> round(tests.begin() + r * kTests.size(),
                                                  tests.begin() + (r + 1) * kTests.size());
                const paper_error e = compare_with_paper(round, setup.idle_power);
                out.error.energy_err_pct += e.energy_err_pct / kWarmupRounds;
                out.error.savings_gap_err_pp += e.savings_gap_err_pp / kWarmupRounds;
            }
            tests.resize(kTests.size());
            out.first_round = std::move(tests);
            continue;
        }
        timed_s += wall;
        out.timed_rounds += kBatchRounds;
        out.wall_s += wall;
        out.batches.add(server_s, wall, log.latency_ms);
        out.rollout_log.merge(log);
        out.task_imbalance.push_back(slowest / (total / static_cast<double>(tests.size())));
    }
    return out;
}

}  // namespace

workload_result run_paper_control(const run_options& options) {
    workload_result res;
    // Setup: the Section-IV characterization (sweep, fit, LUT) and the
    // idle-power floor, repeated so setup_s is a quartile of many.
    set_tracing(options.trace);
    plant_setup setup;
    std::vector<double> setup_s;
    for (std::size_t i = 0; i < kSetups; ++i) {
        const double t0 = now_s();
        sim::server_simulator rig;
        {
            scoped_span span("core.characterize");
            setup.lut = core::characterize(rig).lut;
        }
        setup.idle_power = rig.idle_power(3300_rpm);
        setup_s.push_back(now_s() - t0);
    }
    set_tracing(false);

    res.pool_threads = worker_threads();
    phase_out measured;
    if (!options.trace) {
        measured = run_phase(options, setup, options.seconds, false, res.checks);
    } else {
        // Untraced then traced halves from the same sub-seeds: the first
        // round's outputs must match bitwise, and the rate ratio is the
        // tracing overhead.
        const phase_out plain = run_phase(options, setup, options.seconds / 2.0, false, res.checks);
        set_tracing(true);
        measured = run_phase(options, setup, options.seconds / 2.0, true, res.checks);
        set_tracing(false);
        res.checks.check(same_outputs(plain.first_round, measured.first_round));
        res.layer["trace.overhead_ratio"] =
            measured.batches.best_rate() / plain.batches.best_rate();
    }

    const chunk_stats& b = measured.batches;
    res.end_to_end["setup_s"] = quantile(setup_s, 0.25);
    res.end_to_end["sim_server_s_per_s"] = b.best_rate();
    res.end_to_end["peak_rss_mb"] = peak_rss_mb();
    res.end_to_end["op_p50_ms"] = b.best_p50();

    res.notes.push_back(format("%zu timed rounds in %zu batches (4 tests x %zu lanes each) after "
                               "a %zu-round warm-up, host %.3f s",
                               measured.timed_rounds, b.rate.size(), kLanes, kWarmupRounds,
                               measured.wall_s));
    const tail_stat p99 = b.pooled_tail(0.99);
    res.notes.push_back(format("decision_p50_ms %.4f (best quartile of batches), decision_p90_ms "
                               "%.4f (median of batches); decision_p99_ms %.4f (p%.2f of all %zu "
                               "rollout decisions)",
                               b.best_p50(), b.median_p90(), p99.value, 100.0 * p99.quantile,
                               p99.samples));
    res.notes.push_back(format("paper_energy_err_pct %.4f, savings_gap_err_pp %.4f "
                               "(simulated, warm-up rounds)",
                               measured.error.energy_err_pct, measured.error.savings_gap_err_pp));

    if (options.trace) {
        const span_set spans(collect_spans());
        const span_summary characterize = spans.summarize("core.characterize");
        const span_summary decide = spans.summarize("core.decide");
        const span_summary roll = spans.summarize("core.rollout.decide");
        const span_summary batch = spans.summarize("sim.run_controlled_batch");
        const decision_log& log = measured.rollout_log;
        auto& L = res.layer;
        L["core.characterize.s"] = median(characterize.durations_s);
        L["core.decide.count"] = static_cast<double>(decide.count);
        L["core.decide.busy_s"] = decide.busy_s;
        L["core.decide.p99_us"] = tail_percentile(decide.durations_s, 0.99).value * 1e6;
        L["core.rollout.decide.count"] = static_cast<double>(roll.count);
        L["core.rollout.decide.busy_s"] = roll.busy_s;
        L["core.rollout.decide.p50_ms"] = tail_percentile(roll.durations_s, 0.50).value * 1e3;
        L["core.rollout.decide.p99_ms"] = tail_percentile(roll.durations_s, 0.99).value * 1e3;
        const double decisions = static_cast<double>(std::max<std::uint64_t>(1, log.decisions));
        const double rollouts = static_cast<double>(std::max<std::uint64_t>(1, log.rollouts));
        L["core.rollout.override_ratio"] = static_cast<double>(log.overrides) / decisions;
        L["sim.rollout_engine.candidates_per_decision"] =
            static_cast<double>(log.candidates) / rollouts;
        L["sim.rollout_engine.lane_steps_per_decision"] = log.lane_steps / rollouts;
        L["sim.rollout_engine.guarded_ratio"] =
            static_cast<double>(log.guarded) /
            static_cast<double>(std::max<std::uint64_t>(1, log.candidates));
        L["sim.run_controlled_batch.busy_s"] = batch.busy_s;
        L["sim.server_batch.self_s"] = batch.self_s;
        L["sim.parallel_runner.task_imbalance"] = mean(measured.task_imbalance);
        L["sim.paper_energy_err_pct"] = measured.error.energy_err_pct;
        L["sim.savings_gap_err_pp"] = measured.error.savings_gap_err_pp;
        L["trace.spans"] = static_cast<double>(spans.spans().size());
        if (!options.spans_path.empty() && !write_spans_csv(spans.spans(), options.spans_path)) {
            res.notes.push_back("warning: could not write " + options.spans_path);
        }
    }
    return res;
}

}  // namespace perfbench
