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
// cadence, integrates the lanes together through the batched thermal
// kernel, and scores each lane by predicted energy plus a constraint
// penalty.  A lane whose predicted die temperature trips the guard stops
// there and is masked out, and only the prefix of lanes that still holds
// a live candidate is stepped.
//
// Each step keeps the plant's own operation order: due fan-kind fault
// events, the utilization at the current instant, Eqn-1 heat, the
// thermal step, the clock, then the step's wall energy at the new die
// temperatures.  Because the workload preview is the plant's own
// loadgen, the prediction for the schedule that is ultimately committed
// is exactly the trajectory the plant will realize (pinned bitwise by
// Rollout.PredictionEqualsRealization).  Evaluation is a pure function
// of (state, candidates, options): it touches only engine-owned lanes,
// never the live plant, and allocates nothing after the first call.
// Candidate lanes can additionally be sharded across a thread pool
// (rollout_engine_config): shards own contiguous candidate blocks and
// share no mutable state, so scores — and the argmin — are invariant
// under shard count and thread count.
#pragma once

#include <cstddef>
#include <vector>

#include "power/server_power_model.hpp"
#include "sim/fan_actuator.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/server_config.hpp"
#include "sim/server_state.hpp"
#include "thermal/server_thermal_model.hpp"
#include "util/thread_pool.hpp"
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
    /// temperature exceeds this terminates early and is penalized.
    double guard_temp_c = 85.0;
    /// Penalty added to a guarded lane's score [J]; large enough that
    /// any guarded candidate loses to any unguarded one.
    double guard_penalty_j = 1e9;
    /// Additional penalty per degC of peak overshoot [J/K], so among
    /// all-guarded candidate sets the least-violating one wins.
    double overshoot_weight_j_per_k = 1e6;
};

/// Outcome of one candidate's rollout.
struct candidate_score {
    double score_j = 0.0;    ///< energy_j + guard penalties (the ranking key).
    double energy_j = 0.0;   ///< Predicted wall energy over the steps taken.
    double peak_temp_c = 0.0;  ///< Peak predicted true die temperature.
    long steps = 0;          ///< Steps integrated (horizon steps unless guarded).
    bool guarded = false;    ///< Tripped the temperature guard.
};

/// Result of one decision epoch's evaluation.
struct rollout_result {
    std::size_t best = 0;  ///< Argmin score; ties break to the lowest index.
    std::vector<candidate_score> scores;  ///< One per candidate, in order.
};

/// Engine topology knobs (see the header comment; the defaults
/// evaluate every candidate in one block on the caller's thread).
struct rollout_engine_config {
    /// Candidate-lane shards, each its own thermal batch (>= 1, clamped
    /// to the candidate count).
    std::size_t shards = 1;
    /// Pool width for stepping shards; 1 runs serially on the caller,
    /// 0 means one thread per hardware thread.
    std::size_t threads = 1;
};

/// K-lane rollout evaluator over one plant configuration.
class rollout_engine {
public:
    /// Builds the candidate lanes.  `config` must equal the controlled
    /// plant's configuration (evaluate validates the snapshot's shapes).
    rollout_engine(const server_config& config, std::size_t max_candidates,
                   rollout_engine_config engine_config = {});

    [[nodiscard]] std::size_t max_candidates() const { return max_candidates_; }
    [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

    /// Installs the workload preview every rollout lane steps against
    /// (the plant's own loadgen — the paper's profiles are known in
    /// advance, so the preview is perfect).  The engine keeps a
    /// reference, not a copy: `workload` must outlive the binding.  Call
    /// once per run; the binding persists across evaluations.
    void bind_workload(const workload::loadgen& workload);
    [[nodiscard]] bool workload_bound() const { return workload_ != nullptr; }

    /// Installs the plant's fault campaign, so the lookahead replays the
    /// scheduled fan faults the committed trajectory will hit (the
    /// snapshot carries the plant's fault *state* and schedule cursor;
    /// the schedule supplies the *future* events past the snapshot
    /// instant).  Sensor and telemetry events change nothing a lane
    /// reads, so the lanes step past them.  Like the workload preview,
    /// the binding persists across evaluations; clear_fault_schedule
    /// returns the lanes to healthy.
    void bind_fault_schedule(const fault_schedule& schedule);
    void clear_fault_schedule();

    /// Rolls every candidate out from `start` and scores it.  Requires
    /// 1 <= candidates.size() <= max_candidates(), a bound workload,
    /// and positive horizon/epoch/sim_dt.  Deterministic: same
    /// (state, candidates, options) in, same result out, on any thread.
    /// The returned reference is into engine-owned scratch (reused so
    /// evaluation stays allocation-free at steady state) and is
    /// overwritten by the next evaluate().
    [[nodiscard]] const rollout_result& evaluate(const server_state& start,
                                                 const std::vector<fan_schedule>& candidates,
                                                 const rollout_options& options);

private:
    /// One contiguous block of candidate lanes, stepped as one batch.
    struct shard {
        shard(const server_config& config, std::size_t lanes);

        thermal::server_thermal_model thermal;  ///< One lane per candidate slot.
        std::vector<fan_actuator> fans;         ///< [lane]
        std::vector<fault_state> faults;        ///< [lane]; the fan half only.
        std::vector<unsigned char> active;      ///< [lane]; 0 once guarded.
    };

    /// One evaluate() call's arguments, handed to every shard.
    struct evaluation {
        std::size_t k = 0;
        const server_state* start = nullptr;
        const std::vector<fan_schedule>* candidates = nullptr;
        const rollout_options* options = nullptr;
    };

    void evaluate_shard(std::size_t s, const evaluation& job);

    std::size_t max_candidates_ = 0;
    power::server_power_model power_;
    std::vector<shard> shards_;
    std::vector<std::size_t> offsets_;  ///< [shard_count + 1] candidate offsets.
    util::thread_pool pool_;
    const workload::loadgen* workload_ = nullptr;
    fault_schedule schedule_;  ///< Empty when no campaign is bound.
    rollout_result result_;    ///< Reused per-evaluation scratch.
};

}  // namespace ltsc::sim
