#include "core/rollout_controller.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ltsc::core {

rollout_controller::rollout_controller(std::unique_ptr<fan_controller> baseline,
                                       const rollout_controller_config& config)
    : baseline_(std::move(baseline)), config_(config) {
    util::ensure(baseline_ != nullptr, "rollout_controller: null baseline");
    util::ensure(config_.horizon.value() >= 0.0, "rollout_controller: negative horizon");
    util::ensure(config_.sim_dt.value() > 0.0, "rollout_controller: non-positive sim_dt");
    util::ensure(config_.lattice_radius == 0 || config_.lattice_step.value() > 0.0,
                 "rollout_controller: non-positive lattice step");
}

util::seconds_t rollout_controller::polling_period() const {
    return config_.decision_period.value() > 0.0 ? config_.decision_period
                                                 : baseline_->polling_period();
}

std::string rollout_controller::name() const { return "Rollout(" + baseline_->name() + ")"; }

void rollout_controller::reset() {
    baseline_->reset();
    last_ = sim::rollout_result{};
}

void rollout_controller::attach_plant(const plant_access* plant) {
    if (plant == plant_) {
        return;
    }
    plant_ = plant;
    // The engine models the plant it was built from, so attaching a
    // different window discards it — reusing one controller across
    // differently-calibrated plants can never silently predict with the
    // wrong model.  Rebuild cost is K physics-only candidate lanes,
    // negligible against a run; a caller holding one window across many
    // decide() calls (the decision benchmark) still pays it once.
    if (plant != nullptr) {
        engine_.reset();
    }
}

void rollout_controller::build_candidates(const controller_inputs& in,
                                          std::optional<util::rpm_t> baseline_cmd) {
    const power::fan_spec& fan = plant_->plant_config().fan;
    std::size_t n = 0;
    const auto add = [&](double rpm) {
        rpm = std::min(std::max(rpm, fan.min_rpm.value()), fan.max_rpm.value());
        for (std::size_t j = 0; j < n; ++j) {
            if (candidates_[j].moves.size() == 1 && candidates_[j].moves[0].value() == rpm) {
                return;  // lattice duplicate (clamping collapses the edges)
            }
        }
        if (n == candidates_.size()) {
            candidates_.emplace_back();
        }
        candidates_[n].moves.assign(1, util::rpm_t{rpm});
        ++n;
    };
    // Baseline proposal first: ties in the rollout break to the lowest
    // index, so "do what the wrapped controller would have done" wins
    // unless an alternative is strictly better.
    const double base = baseline_cmd.has_value() ? baseline_cmd->value() : in.current_rpm.value();
    add(base);
    if (config_.include_hold) {
        add(in.current_rpm.value());
    }
    for (std::size_t i = 1; i <= config_.lattice_radius; ++i) {
        const double offset = static_cast<double>(i) * config_.lattice_step.value();
        add(base + offset);
        add(base - offset);
    }
    candidates_.resize(n);
}

std::optional<util::rpm_t> rollout_controller::decide(const controller_inputs& in) {
    // Empty unless this decision actually rolls out (capacity is kept,
    // so clearing allocates nothing).
    last_.best = 0;
    last_.scores.clear();
    // The baseline is consulted unconditionally so its internal state
    // (hold timers, integrators) evolves exactly as it would alone.
    std::optional<util::rpm_t> baseline_cmd = baseline_->decide(in);

    const workload::loadgen* workload = plant_ != nullptr ? plant_->plant_workload() : nullptr;
    if (plant_ == nullptr || workload == nullptr || config_.horizon.value() <= 0.0) {
        return baseline_cmd;  // degenerate: bitwise the wrapped controller
    }
    build_candidates(in, baseline_cmd);
    if (candidates_.size() == 1) {
        return baseline_cmd;  // K = 1: the only candidate is the baseline's
    }

    plant_->snapshot_into(snapshot_);
    // Degrade under an active fault only when flying blind: without a
    // residual monitor the optimization's energy margin is noise against
    // the survival problem at hand, so the decision goes to the wrapped
    // reactive baseline (hardened by its own guard band / failsafe
    // wrapper) until the plant is whole again.  With a monitor the fault
    // is *characterized* — the snapshot carries the degraded fans, the
    // rollout lanes replay them faithfully, and re-planning around a
    // known-dead fan beats abandoning the lookahead (pinned by
    // the fault-injection suite's energy comparison).  *Scheduled*
    // future faults are previewed either way: the plant's campaign is
    // handed to the rollout below.
    if (snapshot_.fault.any_active(in.now.value()) && !in.monitor_valid) {
        return baseline_cmd;
    }

    if (engine_ == nullptr) {
        // The lattice bounds the candidate count (duplicates collapse).
        const std::size_t lattice =
            1 + (config_.include_hold ? 1 : 0) + 2 * config_.lattice_radius;
        engine_ = std::make_unique<sim::rollout_engine>(plant_->plant_config(), lattice);
    }

    sim::rollout_options options;
    options.horizon = config_.horizon;
    options.epoch = polling_period();
    options.sim_dt = config_.sim_dt;
    options.guard_temp_c = config_.guard_temp_c;
    last_ = engine_->evaluate(snapshot_, *workload, plant_->plant_fault_schedule(), candidates_,
                              options);
    return candidates_[last_.best].moves.front();
}

}  // namespace ltsc::core
