#include "sim/rollout_engine.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ltsc::sim {

rollout_engine::shard::shard(const server_config& config, std::size_t lanes)
    : thermal(std::vector<thermal::server_thermal_config>(lanes, config.thermal)),
      fans(lanes, fan_actuator(config.fan_pairs, config.fan, config.default_fan_rpm)),
      faults(lanes),
      active(lanes, 1) {
    // Sized up front, so loading a snapshot's fan half allocates nothing.
    for (fault_state& f : faults) {
        f.reset(config.fan_pairs, 0);
    }
}

rollout_engine::rollout_engine(const server_config& config, std::size_t max_candidates,
                               rollout_engine_config engine_config)
    : max_candidates_(max_candidates),
      power_(power_model_for(validated(config))),
      pool_(engine_config.threads) {
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
        shards_.emplace_back(config, count);
    }
    result_.scores.reserve(max_candidates_);
}

void rollout_engine::bind_workload(const workload::loadgen& workload) {
    workload_ = &workload;
}

void rollout_engine::bind_fault_schedule(const fault_schedule& schedule) {
    const std::size_t pairs = shards_.front().fans.front().bank().pair_count();
    util::ensure(schedule.empty() || schedule.max_fan_target() < pairs,
                 "rollout_engine::bind_fault_schedule: fan target out of range");
    schedule_ = schedule;
}

void rollout_engine::clear_fault_schedule() {
    schedule_ = fault_schedule{};
}

/// Rolls one shard's candidate block over the horizon.  Every lane
/// follows the same operation sequence whatever its block, so
/// per-candidate scores cannot depend on how candidates are split
/// across shards.
void rollout_engine::evaluate_shard(std::size_t s, const evaluation& job) {
    shard& sh = shards_[s];
    const server_state& start = *job.start;
    const rollout_options& options = *job.options;
    const std::size_t lo = offsets_[s];
    const std::size_t hi = std::min(offsets_[s + 1], job.k);
    if (hi <= lo) {
        return;
    }
    const std::size_t count = hi - lo;

    // Load the snapshot into this shard's candidate lanes: fans and their
    // fault half first, then the airflow they imply, then the thermal
    // state on top (the same order as server_batch::load_lane_state).
    for (std::size_t l = 0; l < count; ++l) {
        fault_state& fault = sh.faults[l];
        fault.fan_mode = start.fault.fan_mode;
        fault.fan_commanded_rpm = start.fault.fan_commanded_rpm;
        sh.fans[l].restore(start.fan_rpm, fault);
        sh.thermal.set_zone_airflow(l, sh.fans[l].zone_airflow());
        sh.thermal.restore_state(l, start.thermal);
        sh.active[l] = 1;
    }

    rollout_result& out = result_;
    const workload::loadgen& workload = *workload_;
    const std::vector<fault_event>& events = schedule_.events();
    std::size_t next_event = start.fault.next_event;
    double now = start.now_s;
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
    std::size_t span = count;  // lanes [0, span) hold every live candidate
    for (long step = 0; step < total_steps && span > 0; ++step) {
        if (step >= next_move_step) {
            for (std::size_t l = 0; l < span; ++l) {
                if (sh.active[l] == 0) {
                    continue;
                }
                const std::vector<util::rpm_t>& moves = (*job.candidates)[lo + l].moves;
                const util::rpm_t rpm = moves[std::min(move_idx, moves.size() - 1)];
                if (sh.fans[l].command_all(rpm, sh.faults[l])) {
                    sh.thermal.set_zone_airflow(l, sh.fans[l].zone_airflow());
                }
            }
            ++move_idx;
            next_move_step =
                static_cast<long>(std::ceil(static_cast<double>(move_idx) * epoch / dt - 1e-9));
        }

        // The plant step, restricted to what moves the true temperatures.
        while (next_event < events.size() && events[next_event].t_s <= now + 1e-9) {
            const fault_event& event = events[next_event++];
            for (std::size_t l = 0; l < span; ++l) {
                if (sh.active[l] != 0 && sh.fans[l].apply(event, sh.faults[l])) {
                    sh.thermal.set_zone_airflow(l, sh.fans[l].zone_airflow());
                }
            }
        }
        const double u_inst = workload.instantaneous_utilization(util::seconds_t{now});
        for (std::size_t l = 0; l < span; ++l) {
            if (sh.active[l] != 0) {
                power_.apply_heat(sh.thermal, l, u_inst, start.imbalance);
            }
        }
        sh.thermal.step_prefix(span, util::seconds_t{dt}, sh.active.data());
        now += dt;

        for (std::size_t l = 0; l < span; ++l) {
            if (sh.active[l] == 0) {
                continue;
            }
            candidate_score& sc = out.scores[lo + l];
            const power::die_temps die = sh.thermal.die_temps(l);
            const double wall_w =
                power_.breakdown_at(u_inst, die, sh.fans[l].bank().total_power()).total().value();
            sc.energy_j += wall_w * dt;
            ++sc.steps;
            const double t_max = std::max(die[0], die[1]);
            sc.peak_temp_c = std::max(sc.peak_temp_c, t_max);
            if (t_max > options.guard_temp_c) {
                // Disqualified: stop spending substeps on this lane.
                sc.guarded = true;
                sh.active[l] = 0;
            }
        }
        while (span > 0 && sh.active[span - 1] == 0) {
            --span;
        }
    }

    for (std::size_t l = 0; l < count; ++l) {
        candidate_score& sc = out.scores[lo + l];
        sc.score_j = sc.energy_j;
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
    util::ensure(workload_bound(), "rollout_engine::evaluate: no workload bound");
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
    // the fan-out is deterministic regardless of scheduling.  The job
    // captures two pointers, which std::function stores without
    // allocating.
    const evaluation job{k, &start, &candidates, &options};
    pool_.run_indexed(shards_.size(), [this, &job](std::size_t s) { evaluate_shard(s, job); });

    for (std::size_t l = 0; l < k; ++l) {
        if (out.scores[l].score_j < out.scores[out.best].score_j) {
            out.best = l;
        }
    }
    return out;
}

}  // namespace ltsc::sim
