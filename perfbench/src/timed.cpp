#include "timed.hpp"

namespace perfbench {

void decision_log::merge(const decision_log& other) {
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(), other.latency_ms.end());
    decisions += other.decisions;
    rollouts += other.rollouts;
    overrides += other.overrides;
    candidates += other.candidates;
    guarded += other.guarded;
    lane_steps += other.lane_steps;
}

timed_controller::timed_controller(std::unique_ptr<ltsc::core::fan_controller> inner,
                                   const char* span_name, decision_log* log)
    : inner_(std::move(inner)),
      rollout_(dynamic_cast<const ltsc::core::rollout_controller*>(inner_.get())),
      span_name_(span_name),
      log_(log) {}

std::optional<ltsc::util::rpm_t> timed_controller::decide(
    const ltsc::core::controller_inputs& in) {
    const double t0 = log_ != nullptr ? now_s() : 0.0;
    std::optional<ltsc::util::rpm_t> out;
    {
        scoped_span span(span_name_);
        out = inner_->decide(in);
    }
    finish(t0);
    return out;
}

std::optional<std::vector<ltsc::util::rpm_t>> timed_controller::decide_zones(
    const ltsc::core::controller_inputs& in) {
    const double t0 = log_ != nullptr ? now_s() : 0.0;
    std::optional<std::vector<ltsc::util::rpm_t>> out;
    {
        scoped_span span(span_name_);
        out = inner_->decide_zones(in);
    }
    finish(t0);
    return out;
}

void timed_controller::finish(double t0_s) {
    if (log_ == nullptr) {
        return;
    }
    log_->latency_ms.push_back((now_s() - t0_s) * 1e3);
    ++log_->decisions;
    if (rollout_ == nullptr) {
        return;
    }
    const ltsc::sim::rollout_result& r = rollout_->last_rollout();
    if (r.scores.empty()) {
        return;  // degenerate decision: the baseline answered alone
    }
    ++log_->rollouts;
    log_->overrides += r.best != 0 ? 1 : 0;
    log_->candidates += r.scores.size();
    for (const ltsc::sim::candidate_score& s : r.scores) {
        log_->guarded += s.guarded ? 1 : 0;
        log_->lane_steps += static_cast<double>(s.steps);
    }
}

void timed_sink::on_shard_step(std::size_t shard, std::uint64_t epoch,
                               const ltsc::sim::server_batch& batch) {
    span_record done;
    done.name = "sim.fleet.shard";
    done.start_s = step_start_s_;
    done.end_s = now_s();
    done.id = next_span_id();
    done.parent = step_span_;
    done.run = run_id();
    record_span(done);
    scoped_span publish("telemetry_service.publish", step_span_);
    inner_.on_shard_step(shard, epoch, batch);
}

}  // namespace perfbench
