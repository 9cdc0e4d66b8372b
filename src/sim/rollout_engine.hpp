// Batched receding-horizon rollout evaluation.
//
// A rollout_engine answers one question: *given the live plant's state,
// which of K candidate fan schedules costs the least energy over the
// next H seconds?*  Each candidate rolls out on a physics-only lane: one
// lane of an engine-owned thermal::server_thermal_model, the plant's
// Eqn-1 power model, a fan_actuator holding the fan half of the fault
// state, the clock and the load split.  Nothing else in a plant feeds
// back into the true temperatures — sensors and their RNG stream,
// telemetry, the trace and the monitor twin only observe — so the lanes
// carry none of them.  Every evaluation loads the snapshot into the
// candidate lanes, applies each candidate's moves at the decision-epoch
// cadence, steps the lanes together through the fused thermal kernel on
// the caller's thread, and ranks them (see rollout_result::best).  A
// lane whose predicted die temperature trips the guard stops there and
// is masked out, and only the prefix of lanes that still holds a live
// candidate is stepped.
//
// Each step keeps the plant's own operation order: due fan-kind fault
// events, the utilization at the current instant, Eqn-1 heat, the
// thermal step, the clock, then the step's wall energy at the new die
// temperatures.  Power is evaluated once per lane and step: the
// utilization-only terms (power::load_terms) once for all lanes, each
// die's leakage share at the step-end temperatures for that step's wall
// energy and the next step's heat, and each lane's fan power only when a
// move or fault event reaches its fans.  The arithmetic is the plant's
// (heat_at, breakdown_at), operation for operation.  The workload
// preview and the fault campaign are arguments of every evaluation, read
// there and never copied or kept: handed the plant's own loadgen and
// campaign, the prediction for the schedule that is ultimately committed
// is exactly the trajectory the plant will realize (pinned bitwise by
// Rollout.PredictionEqualsRealization).  Evaluation is a pure function of
// its arguments: it touches only engine-owned lanes, never the live
// plant, and allocates nothing after the first call.
#pragma once

#include <cstddef>
#include <vector>

#include "power/server_power_model.hpp"
#include "sim/fan_actuator.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/server_config.hpp"
#include "sim/server_state.hpp"
#include "thermal/server_thermal_model.hpp"
#include "util/units.hpp"
#include "workload/loadgen.hpp"

namespace ltsc::sim {

/// One candidate fan schedule: the speed commanded at each decision
/// epoch of the horizon (all pairs together).  moves[0] is the move a
/// controller commits if the schedule wins; a schedule shorter than the
/// horizon holds its last speed.
struct fan_schedule {
    std::vector<util::rpm_t> moves;
};

/// Per-evaluation tunables.
struct rollout_options {
    util::seconds_t horizon{180.0};  ///< Lookahead H (> 0).
    util::seconds_t epoch{30.0};     ///< Cadence at which schedule moves apply.
    util::seconds_t sim_dt{1.0};     ///< Rollout integration step.
    /// Predicted-temperature guard: a lane whose max *true* die
    /// temperature exceeds this stops at that step and ranks behind
    /// every lane that does not.
    double guard_temp_c = 85.0;
};

/// Outcome of one candidate's rollout.
struct candidate_score {
    double energy_j = 0.0;   ///< Predicted wall energy over the steps taken.
    double peak_temp_c = 0.0;  ///< Peak predicted true die temperature.
    long steps = 0;          ///< Steps integrated (horizon steps unless guarded).
    bool guarded = false;    ///< Tripped the temperature guard.
};

/// Result of one decision epoch's evaluation.
struct rollout_result {
    /// The first candidate in rank order: any unguarded candidate ranks
    /// before any guarded one; unguarded candidates rank by less energy;
    /// guarded ones by the later trip (more steps), then the smaller
    /// peak.  Ties break to the lowest index.  A guarded lane stops at
    /// its first step over the guard, so its energy covers fewer steps
    /// and its peak sits about one step's rise above the guard: ranking
    /// guarded lanes by energy would pick the one that trips first.
    std::size_t best = 0;
    std::vector<candidate_score> scores;  ///< One per candidate, in order.
};

/// K-lane rollout evaluator over one plant configuration.
class rollout_engine {
public:
    /// Builds `max_candidates` candidate lanes.  `config` must equal the
    /// controlled plant's configuration (evaluate validates the
    /// snapshot's shapes).
    rollout_engine(const server_config& config, std::size_t max_candidates);

    /// Rolls every candidate out from `start` and scores it.  `workload`
    /// is the load preview every lane steps against (the plant's own
    /// loadgen — the paper's profiles are known in advance, so the
    /// preview is perfect).  `faults` is the plant's fault campaign, or
    /// nullptr when healthy: the snapshot carries the plant's fault
    /// *state* and schedule cursor, the campaign supplies the *future*
    /// events past the snapshot instant, and the lanes replay its fan
    /// events (sensor and telemetry events change nothing a lane reads).
    /// Requires 1 <= candidates.size() <= the lane count, fan targets
    /// below the pair count, and positive horizon/epoch/sim_dt.
    /// Deterministic: same arguments in, same result out, on any thread.
    /// The returned reference is into engine-owned scratch (reused so
    /// evaluation stays allocation-free at steady state) and is
    /// overwritten by the next evaluate().
    [[nodiscard]] const rollout_result& evaluate(const server_state& start,
                                                 const workload::loadgen& workload,
                                                 const fault_schedule* faults,
                                                 const std::vector<fan_schedule>& candidates,
                                                 const rollout_options& options);

private:
    power::server_power_model power_;
    thermal::server_thermal_model thermal_;  ///< One lane per candidate slot.
    std::vector<fan_actuator> fans_;         ///< [lane]
    std::vector<fault_state> faults_;        ///< [lane]; the fan half only.
    std::vector<unsigned char> active_;      ///< [lane]; 0 once guarded.
    std::vector<power::die_watts> leak_;     ///< [lane]; dies' leakage at the last step's end.
    std::vector<util::watts_t> fan_w_;       ///< [lane]; fan power since the last move or event.
    rollout_result result_;                  ///< Reused per-evaluation scratch.
};

}  // namespace ltsc::sim
