// Rollout-controller ablation on the Table-I workloads: how much does
// receding-horizon lookahead buy over the paper's reactive policies?
//
// For each of the four 80-minute tests, five controllers run as the
// five lanes of one sim::server_batch (one batched thermal kernel per
// test, tests fanned out across cores through sim::parallel_runner):
//
//   Default    — stock fixed-speed policy (the savings baseline)
//   Bang       — the paper's bang-bang threshold controller
//   LUT        — the paper's proactive LUT controller
//   Roll(Bang) — rollout wrapping Bang: the reactive proposal plus a
//                +/- lattice, evaluated over a 3-minute horizon
//   Roll(LUT)  — rollout wrapping LUT
//
// Every rollout decision loads a snapshot of the live lane into
// physics-only candidate lanes (prediction equals realization, pinned
// bitwise by the test suites) and commits the argmin-energy first move,
// so the numbers are exact predictions, not heuristics.  Expected shape: rollout never loses to
// its wrapped baseline by more than noise, beats Bang on the
// high-utilization tests (where reactive control overshoots and pays
// leakage), and approaches (or edges past) LUT by refining between the
// LUT's grid points.
#include <cstdio>
#include <iterator>
#include <memory>
#include <vector>

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
#include "workload/paper_tests.hpp"

namespace {

ltsc::core::rollout_controller_config rollout_config() {
    using namespace ltsc::util::literals;
    ltsc::core::rollout_controller_config cfg;
    cfg.decision_period = 30_s;
    cfg.horizon = 180_s;
    cfg.lattice_step = 300_rpm;
    cfg.lattice_radius = 2;
    // Same thermal envelope as the bang-bang band ceiling, so the
    // energy comparison is between policies honoring the same limit
    // (with the default 85 degC guard the rollout would just ride the
    // minimum speed to ~85 degC and trivially win on fan power).
    cfg.guard_temp_c = 75.0;
    return cfg;
}

}  // namespace

int main() {
    using namespace ltsc;
    using namespace ltsc::util::literals;

    sim::server_simulator rig;
    const core::fan_lut lut_table = core::characterize(rig).lut;
    const util::watts_t idle_power = rig.idle_power(3300_rpm);

    const workload::paper_test tests[] = {
        workload::paper_test::test1_ramp,
        workload::paper_test::test2_periods,
        workload::paper_test::test3_frequent,
        workload::paper_test::test4_poisson,
    };
    constexpr std::size_t kControllers = 5;

    sim::parallel_runner runner(sim::parallel_runner::threads_from_env());
    const auto per_test =
        runner.map<std::vector<sim::run_metrics>>(std::size(tests), [&](std::size_t t) {
            const auto profile = workload::make_paper_test(tests[t]);
            sim::server_batch batch(sim::paper_server(), kControllers);
            core::default_controller dflt;
            core::bang_bang_controller bang;
            core::lut_controller lut(lut_table);
            core::rollout_controller roll_bang(std::make_unique<core::bang_bang_controller>(),
                                               rollout_config());
            core::rollout_controller roll_lut(
                std::make_unique<core::lut_controller>(lut_table), rollout_config());
            return core::run_controlled_batch(
                batch, {&dflt, &bang, &lut, &roll_bang, &roll_lut},
                {profile, profile, profile, profile, profile});
        });

    std::printf("== Rollout ablation: receding-horizon control vs the paper's policies ==\n");
    const auto cfg = rollout_config();
    std::printf("(horizon %.0f s, epoch %.0f s, lattice +/-%zu x %.0f RPM, guard %.0f degC; "
                "idle power %.1f W; %zu batched runs on %zu threads)\n\n",
                cfg.horizon.value(), cfg.decision_period.value(), cfg.lattice_radius,
                cfg.lattice_step.value(), cfg.guard_temp_c, idle_power.value(),
                kControllers * std::size(tests), runner.thread_count());
    std::printf("%-7s %-13s %13s %12s %10s %10s %13s %9s\n", "Test", "Control", "Energy[kWh]",
                "NetSavings", "PeakPwr[W]", "MaxT[degC]", "#fan changes", "Avg RPM");

    bool rollout_beats_bang_high_util = true;
    bool rollout_never_loses_to_baseline = true;
    for (std::size_t t = 0; t < std::size(tests); ++t) {
        const sim::run_metrics& m_d = per_test[t][0];
        for (std::size_t c = 0; c < kControllers; ++c) {
            const sim::run_metrics& m = per_test[t][c];
            char savings[16];
            if (c == 0) {
                std::snprintf(savings, sizeof savings, "%12s", "--");
            } else {
                std::snprintf(savings, sizeof savings, "%11.1f%%",
                              100.0 * sim::net_savings(m, m_d, idle_power));
            }
            std::printf("%-7s %-13s %13.4f %12s %10.0f %10.0f %13zu %9.0f\n",
                        m.test_name.c_str(), m.controller_name.c_str(), m.energy_kwh, savings,
                        m.peak_power_w, m.max_temp_c, m.fan_changes, m.avg_rpm);
        }
        // Tests 1 and 2 carry the long high-utilization plateaus — the
        // cells where reactive bang-bang control is weakest.  Both
        // rollout variants must beat plain Bang there.
        const bool high_util = t < 2;
        const double bang_kwh = per_test[t][1].energy_kwh;
        const double lut_kwh = per_test[t][2].energy_kwh;
        const double roll_bang_kwh = per_test[t][3].energy_kwh;
        const double roll_lut_kwh = per_test[t][4].energy_kwh;
        if (high_util && (roll_bang_kwh > bang_kwh || roll_lut_kwh > bang_kwh)) {
            rollout_beats_bang_high_util = false;
        }
        // On every test each Roll(x) must stay within noise of its own
        // wrapped baseline x (0.1% — candidate 0 *is* x's proposal, so
        // a real loss means the predictions are wrong).
        constexpr double kNoise = 1.001;
        if (roll_bang_kwh > bang_kwh * kNoise || roll_lut_kwh > lut_kwh * kNoise) {
            rollout_never_loses_to_baseline = false;
        }
        std::printf("\n");
    }

    std::printf("expected shape: Roll(x) energy <= x's energy on every test (lookahead can\n"
                "only reject a proposal for something predicted cheaper); rollout energy <=\n"
                "bang-bang on the high-utilization tests (Test-1/Test-2).\n");
    std::printf("rollout <= bang-bang on high-utilization cells: %s\n",
                rollout_beats_bang_high_util ? "yes" : "NO (regression)");
    std::printf("Roll(x) within noise of wrapped baseline on every test: %s\n",
                rollout_never_loses_to_baseline ? "yes" : "NO (regression)");
    return rollout_beats_bang_high_util && rollout_never_loses_to_baseline ? 0 : 1;
}
