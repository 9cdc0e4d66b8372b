// Receding-horizon rollout controller (Ogura et al. / Van Damme et al.
// style MPC, specialized to fan-speed control).
//
// Wraps any reactive baseline policy (LUT, bang-bang, ...) and upgrades
// it to a predictive one: at every decision epoch the controller asks
// the baseline for its proposal, surrounds it with a lattice of
// alternatives (hold the current speed, proposal, proposal +/- i*step,
// each clamped to the attached plant's fan range), rolls every
// candidate out over an H-second horizon on a private
// sim::rollout_engine — physics-only lanes loaded from a snapshot of the
// live plant, whose prediction for the committed schedule is bitwise
// what the plant realizes — and commits the first move of the schedule
// the engine ranks first (least predicted energy among the candidates
// that keep under the temperature guard).  The engine is
// sized to the lattice.  The plant's workload and fault campaign are
// read through the plant_access window at every decision, so a campaign
// rebound mid-run is previewed from the next decision on.  The baseline
// is consulted (and its internal state advanced) exactly once per epoch
// whether or not its proposal wins, so the wrapped policy behaves as it
// would alone.
//
// Scope: the rollout searches *uniform* (all-pairs) fan schedules and
// consults the baseline through its single-speed decide() surface.  A
// baseline that overrides decide_zones (e.g. zone_lut_controller) has
// its per-zone behavior collapsed through the default zone adapter —
// wrap single-speed policies here; per-zone candidate schedules are a
// ROADMAP follow-on.
//
// Degenerate contract, pinned by the rollout suite: with a zero
// horizon, a single candidate (lattice_radius = 0, include_hold =
// false), no attached plant, or no bound workload, decide() returns the
// baseline's decision untouched — the whole closed-loop trajectory is
// bitwise-identical to running the wrapped controller directly.  A
// rollout decision is a pure function of (plant state, workload, fault
// campaign, candidate set): rollouts run on engine-owned lanes and never
// perturb the live plant.
//
// Fault handling, pinned by the fault-injection suite: while the plant
// reports an *active* fault (dead fan pair, faulted sensor, telemetry
// outage) and no residual monitor is running, the controller degrades
// to the wrapped baseline — survival beats optimization when the fault
// is uncharacterized.  When the plant runs a fault monitor
// (controller_inputs::monitor_valid) the rollout keeps planning through
// active faults instead: the snapshot carries the degraded fans into
// the lanes, so candidates are scored against the crippled plant as it
// actually is, and the lookahead re-plans around a known-dead fan
// rather than abandoning the horizon (a lying sensor cannot mislead it:
// candidates are open-loop and the lanes integrate true temperatures).
// *Scheduled* future faults are previewed either way: the plant's bound
// fault campaign is handed to every rollout, so the lookahead replays
// the fan faults the committed trajectory will hit.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "sim/rollout_engine.hpp"

namespace ltsc::core {

/// Tunables of the rollout controller.
struct rollout_controller_config {
    /// Decision cadence; 0 (the default) inherits the baseline's
    /// polling period, which the degenerate-equivalence contract needs.
    util::seconds_t decision_period{0.0};
    util::seconds_t horizon{180.0};  ///< Lookahead H; 0 disables rollouts.
    util::rpm_t lattice_step{300.0};  ///< Spacing of the candidate lattice.
    std::size_t lattice_radius = 2;   ///< Candidates at proposal +/- 1..radius steps.
    bool include_hold = true;         ///< Also try keeping the current speed.
    /// Rollout integration/ranking knobs (epoch defaults to the
    /// decision cadence; see rollout_options for the guard semantics).
    util::seconds_t sim_dt{1.0};
    double guard_temp_c = 85.0;
};

/// Predictive fan controller: baseline proposal + lattice + rollout.
class rollout_controller final : public fan_controller {
public:
    explicit rollout_controller(std::unique_ptr<fan_controller> baseline,
                                const rollout_controller_config& config = {});

    [[nodiscard]] util::seconds_t polling_period() const override;
    [[nodiscard]] std::optional<util::rpm_t> decide(const controller_inputs& in) override;
    [[nodiscard]] std::string name() const override;
    void reset() override;
    void attach_plant(const plant_access* plant) override;

    [[nodiscard]] const rollout_controller_config& config() const { return config_; }
    [[nodiscard]] const fan_controller& baseline() const { return *baseline_; }
    /// Scores of the most recent decision's rollout — empty when that
    /// decision was degenerate (no rollout ran); benches report them
    /// for ablation tables.
    [[nodiscard]] const sim::rollout_result& last_rollout() const { return last_; }

private:
    void build_candidates(const controller_inputs& in, std::optional<util::rpm_t> baseline_cmd);

    std::unique_ptr<fan_controller> baseline_;
    rollout_controller_config config_;

    const plant_access* plant_ = nullptr;
    std::unique_ptr<sim::rollout_engine> engine_;

    // Per-decision scratch, reused so deciding does not allocate.
    sim::server_state snapshot_;
    std::vector<sim::fan_schedule> candidates_;
    sim::rollout_result last_;
};

}  // namespace ltsc::core
