#include "sim/rollout_engine.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ltsc::sim {

namespace {

/// The ranking of rollout_result::best: strict, so ties keep the lower
/// index.
bool ranks_before(const candidate_score& a, const candidate_score& b) {
    if (a.guarded != b.guarded) {
        return !a.guarded;
    }
    if (!a.guarded) {
        return a.energy_j < b.energy_j;
    }
    if (a.steps != b.steps) {
        return a.steps > b.steps;
    }
    return a.peak_temp_c < b.peak_temp_c;
}

}  // namespace

rollout_engine::rollout_engine(const server_config& config, std::size_t max_candidates)
    : power_(power_model_for(validated(config))),
      thermal_(std::vector<thermal::server_thermal_config>(max_candidates, config.thermal)),
      fans_(max_candidates, fan_actuator(config.fan_pairs, config.fan, config.default_fan_rpm)),
      faults_(max_candidates),
      active_(max_candidates, 1),
      leak_(max_candidates),
      fan_w_(max_candidates) {
    util::ensure(max_candidates >= 1, "rollout_engine: need at least one candidate lane");
    // Sized up front, so loading a snapshot's fan half allocates nothing.
    for (fault_state& f : faults_) {
        f.reset(config.fan_pairs, 0);
    }
    result_.scores.reserve(max_candidates);
}

const rollout_result& rollout_engine::evaluate(const server_state& start,
                                               const workload::loadgen& workload,
                                               const fault_schedule* faults,
                                               const std::vector<fan_schedule>& candidates,
                                               const rollout_options& options) {
    const std::size_t k = candidates.size();
    util::ensure(k >= 1, "rollout_engine::evaluate: no candidates");
    util::ensure(k <= fans_.size(), "rollout_engine::evaluate: more candidates than lanes");
    // Checked whole and up front, as binding a campaign to a plant checks
    // it: fan_actuator::apply writes per-pair fault state by target
    // before the fan bank's own range checks (fan_recover first of all).
    util::ensure(faults == nullptr ||
                     faults->max_fan_target() < fans_.front().bank().pair_count(),
                 "rollout_engine::evaluate: fan target out of range");
    util::ensure(options.horizon.value() > 0.0, "rollout_engine::evaluate: non-positive horizon");
    util::ensure(options.epoch.value() > 0.0, "rollout_engine::evaluate: non-positive epoch");
    util::ensure(options.sim_dt.value() > 0.0, "rollout_engine::evaluate: non-positive sim_dt");
    for (const fan_schedule& c : candidates) {
        util::ensure(!c.moves.empty(), "rollout_engine::evaluate: empty candidate schedule");
    }

    rollout_result& out = result_;
    out.best = 0;
    out.scores.assign(k, candidate_score{});

    // Load the snapshot into the candidate lanes: fans and their fault
    // half first, then the airflow they imply, then the thermal state on
    // top (the same order as server_batch::load_lane_state).
    for (std::size_t l = 0; l < k; ++l) {
        fault_state& fault = faults_[l];
        fault.fan_mode = start.fault.fan_mode;
        fault.fan_commanded_rpm = start.fault.fan_commanded_rpm;
        fans_[l].restore(start.fan_rpm, fault);
        thermal_.set_zone_airflow(l, fans_[l].zone_airflow());
        thermal_.restore_state(l, start.thermal);
        active_[l] = 1;
        leak_[l] = power_.leakage_at(thermal_.die_temps(l));
        fan_w_[l] = fans_[l].bank().total_power();
    }

    static const std::vector<fault_event> no_events;
    const std::vector<fault_event>& events = faults != nullptr ? faults->events() : no_events;
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
    std::size_t span = k;  // lanes [0, span) hold every live candidate
    for (long step = 0; step < total_steps && span > 0; ++step) {
        if (step >= next_move_step) {
            for (std::size_t l = 0; l < span; ++l) {
                if (active_[l] == 0) {
                    continue;
                }
                const std::vector<util::rpm_t>& moves = candidates[l].moves;
                const util::rpm_t rpm = moves[std::min(move_idx, moves.size() - 1)];
                if (fans_[l].command_all(rpm, faults_[l])) {
                    thermal_.set_zone_airflow(l, fans_[l].zone_airflow());
                }
                fan_w_[l] = fans_[l].bank().total_power();
            }
            ++move_idx;
            next_move_step =
                static_cast<long>(std::ceil(static_cast<double>(move_idx) * epoch / dt - 1e-9));
        }

        // The plant step, restricted to what moves the true temperatures.
        while (next_event < events.size() && events[next_event].t_s <= now + 1e-9) {
            const fault_event& event = events[next_event++];
            for (std::size_t l = 0; l < span; ++l) {
                if (active_[l] == 0) {
                    continue;
                }
                if (fans_[l].apply(event, faults_[l])) {
                    thermal_.set_zone_airflow(l, fans_[l].zone_airflow());
                }
                fan_w_[l] = fans_[l].bank().total_power();
            }
        }
        // The utilization-only terms once for every lane; each lane adds
        // its dies' leakage shares, taken at the end of its last step.
        const double u_inst = workload.instantaneous_utilization(util::seconds_t{now});
        const power::load_terms load = power_.load_at(u_inst, start.imbalance);
        for (std::size_t l = 0; l < span; ++l) {
            if (active_[l] != 0) {
                power::server_power_model::set_heat(thermal_, l, load.heat(leak_[l]));
            }
        }
        thermal_.step_prefix(span, util::seconds_t{dt}, active_.data());
        now += dt;

        for (std::size_t l = 0; l < span; ++l) {
            if (active_[l] == 0) {
                continue;
            }
            candidate_score& sc = out.scores[l];
            const power::die_temps die = thermal_.die_temps(l);
            leak_[l] = power_.leakage_at(die);
            sc.energy_j += load.wall_w(leak_[l], fan_w_[l]) * dt;
            ++sc.steps;
            const double t_max = std::max(die[0], die[1]);
            sc.peak_temp_c = std::max(sc.peak_temp_c, t_max);
            if (t_max > options.guard_temp_c) {
                // Disqualified: stop spending substeps on this lane.
                sc.guarded = true;
                active_[l] = 0;
            }
        }
        while (span > 0 && active_[span - 1] == 0) {
            --span;
        }
    }

    for (std::size_t l = 1; l < k; ++l) {
        if (ranks_before(out.scores[l], out.scores[out.best])) {
            out.best = l;
        }
    }
    return out;
}

}  // namespace ltsc::sim
