#include "sim/rollout_engine.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ltsc::sim {

rollout_engine::rollout_engine(const server_config& config, std::size_t max_candidates,
                               rollout_engine_config engine_config)
    : max_candidates_(max_candidates), pool_(engine_config.threads) {
    util::ensure(max_candidates >= 1, "rollout_engine: need at least one candidate lane");
    const std::size_t shards =
        std::clamp<std::size_t>(engine_config.shards, 1, max_candidates_);
    const std::size_t base = max_candidates_ / shards;
    const std::size_t rem = max_candidates_ % shards;
    offsets_.resize(shards + 1);
    offsets_[0] = 0;
    shards_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        const std::size_t count = base + (s < rem ? 1 : 0);
        offsets_[s + 1] = offsets_[s] + count;
        shards_.push_back(std::make_unique<server_batch>(config, count));
    }
}

std::size_t rollout_engine::shard_of(std::size_t candidate) const {
    const std::size_t shards = shards_.size();
    const std::size_t base = max_candidates_ / shards;
    const std::size_t rem = max_candidates_ % shards;
    const std::size_t big = rem * (base + 1);
    if (candidate < big) {
        return candidate / (base + 1);
    }
    return rem + (candidate - big) / base;
}

trace_view rollout_engine::candidate_trace(std::size_t l) const {
    util::ensure(l < max_candidates_, "rollout_engine::candidate_trace: out of range");
    const std::size_t s = shard_of(l);
    return shards_[s]->trace(l - offsets_[s]);
}

void rollout_engine::bind_workload(const workload::loadgen& workload) {
    for (auto& shard : shards_) {
        for (std::size_t l = 0; l < shard->lane_count(); ++l) {
            shard->bind_workload(l, workload);
        }
    }
    workload_bound_ = true;
}

void rollout_engine::bind_fault_schedule(const fault_schedule& schedule) {
    for (auto& shard : shards_) {
        for (std::size_t l = 0; l < shard->lane_count(); ++l) {
            shard->bind_fault_schedule(l, schedule);
        }
    }
}

void rollout_engine::clear_fault_schedule() {
    for (auto& shard : shards_) {
        for (std::size_t l = 0; l < shard->lane_count(); ++l) {
            shard->clear_fault_schedule(l);
        }
    }
}

/// Rolls one shard's candidate block over the horizon.  This is the
/// whole single-batch evaluation loop restricted to the shard's lanes,
/// so a single-shard engine reproduces the pre-sharding sequence
/// exactly, and per-candidate trajectories/scores cannot depend on how
/// candidates are split across shards.
void rollout_engine::evaluate_shard(std::size_t s, std::size_t k, const server_state& start,
                                    const std::vector<fan_schedule>& candidates,
                                    const rollout_options& options) {
    server_batch& batch = *shards_[s];
    const std::size_t lo = offsets_[s];
    const std::size_t hi = std::min(offsets_[s + 1], k);
    const std::size_t count = hi > lo ? hi - lo : 0;

    // Clone the plant across this shard's candidate lanes; park the rest.
    for (std::size_t l = 0; l < count; ++l) {
        batch.load_lane_state(l, start);
    }
    for (std::size_t l = count; l < batch.lane_count(); ++l) {
        batch.set_lane_active(l, false);
    }
    if (count == 0) {
        return;
    }

    rollout_result& out = result_;
    const double dt = options.sim_dt.value();
    const double horizon = options.horizon.value();
    const double epoch = options.epoch.value();
    // Same loop shape as run_controlled, but scheduled on integer step
    // counts: accumulating `elapsed += dt` drifts by an ulp per step, and
    // over a long horizon the drifted comparison against the next epoch
    // boundary can skip or double-apply a move.  Both the step budget and
    // the move instants are derived from the step index instead, so move
    // placement is exact for any horizon/epoch/dt combination.
    const long total_steps = static_cast<long>(std::ceil(horizon / dt - 1e-9));
    long next_move_step = 0;
    std::size_t move_idx = 0;
    std::size_t live = count;
    for (long step = 0; step < total_steps && live > 0; ++step) {
        if (step >= next_move_step) {
            for (std::size_t l = 0; l < count; ++l) {
                if (out.scores[lo + l].guarded) {
                    continue;
                }
                const std::vector<util::rpm_t>& moves = candidates[lo + l].moves;
                batch.set_all_fans(l, moves[std::min(move_idx, moves.size() - 1)]);
            }
            ++move_idx;
            next_move_step =
                static_cast<long>(std::ceil(static_cast<double>(move_idx) * epoch / dt - 1e-9));
        }
        batch.step(util::seconds_t{dt});
        for (std::size_t l = 0; l < count; ++l) {
            candidate_score& sc = out.scores[lo + l];
            if (sc.guarded) {
                continue;
            }
            ++sc.steps;
            const double t_max = std::max(batch.true_cpu_temp(l, 0).value(),
                                          batch.true_cpu_temp(l, 1).value());
            sc.peak_temp_c = std::max(sc.peak_temp_c, t_max);
            if (t_max > options.guard_temp_c) {
                // Disqualified: stop spending substeps on this lane.
                sc.guarded = true;
                batch.set_lane_active(l, false);
                --live;
            }
        }
    }

    for (std::size_t l = 0; l < count; ++l) {
        candidate_score& sc = out.scores[lo + l];
        const util::column_view power = batch.trace(l).total_power();
        double energy = 0.0;
        for (std::size_t i = 0; i < power.size(); ++i) {
            energy += power.v(i) * dt;
        }
        sc.energy_j = energy;
        sc.score_j = energy;
        if (sc.guarded) {
            sc.score_j +=
                options.guard_penalty_j +
                options.overshoot_weight_j_per_k * (sc.peak_temp_c - options.guard_temp_c);
        }
    }
}

const rollout_result& rollout_engine::evaluate(const server_state& start,
                                               const std::vector<fan_schedule>& candidates,
                                               const rollout_options& options) {
    const std::size_t k = candidates.size();
    util::ensure(k >= 1, "rollout_engine::evaluate: no candidates");
    util::ensure(k <= max_candidates_, "rollout_engine::evaluate: more candidates than lanes");
    util::ensure(workload_bound_, "rollout_engine::evaluate: no workload bound");
    util::ensure(options.horizon.value() > 0.0, "rollout_engine::evaluate: non-positive horizon");
    util::ensure(options.epoch.value() > 0.0, "rollout_engine::evaluate: non-positive epoch");
    util::ensure(options.sim_dt.value() > 0.0, "rollout_engine::evaluate: non-positive sim_dt");
    for (const fan_schedule& c : candidates) {
        util::ensure(!c.moves.empty(), "rollout_engine::evaluate: empty candidate schedule");
    }

    rollout_result& out = result_;
    out.best = 0;
    out.scores.assign(k, candidate_score{});

    // Shards touch disjoint score ranges and their own lanes only, so
    // the fan-out is deterministic regardless of scheduling.
    pool_.run_indexed(shards_.size(), [&](std::size_t s) {
        evaluate_shard(s, k, start, candidates, options);
    });

    for (std::size_t l = 0; l < k; ++l) {
        if (out.scores[l].score_j < out.scores[out.best].score_j) {
            out.best = l;
        }
    }
    return out;
}

}  // namespace ltsc::sim
