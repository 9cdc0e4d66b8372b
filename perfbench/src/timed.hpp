// Forwarding decorators that time calls into a layer from outside it.
//
// Both forward every call unchanged, so the plant they sit in front of
// evolves bitwise-identically to an undecorated run (the workloads check
// this on every traced run).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/rollout_controller.hpp"
#include "sim/fleet.hpp"
#include "spans.hpp"

namespace perfbench {

/// Decision latencies and rollout-engine counters of one or more timed
/// controllers.
struct decision_log {
    std::vector<double> latency_ms;  ///< One per decide call.
    std::uint64_t decisions = 0;
    std::uint64_t rollouts = 0;    ///< Decisions that ran the engine.
    std::uint64_t overrides = 0;   ///< Engine argmin != the baseline proposal.
    std::uint64_t candidates = 0;  ///< Candidate lanes scored.
    std::uint64_t guarded = 0;     ///< Candidates that tripped the guard.
    double lane_steps = 0.0;       ///< Candidate lane-steps integrated.

    void merge(const decision_log& other);
};

/// fan_controller decorator: owns the wrapped controller, forwards
/// decide, decide_zones, polling_period, name, reset and attach_plant,
/// opens a span named `span_name` around each decision, and (when `log`
/// is set) records the decision latency and, for a rollout_controller,
/// the engine counters read from last_rollout().
class timed_controller final : public ltsc::core::fan_controller {
public:
    timed_controller(std::unique_ptr<ltsc::core::fan_controller> inner, const char* span_name,
                     decision_log* log);

    [[nodiscard]] ltsc::util::seconds_t polling_period() const override {
        return inner_->polling_period();
    }
    [[nodiscard]] std::optional<ltsc::util::rpm_t> decide(
        const ltsc::core::controller_inputs& in) override;
    [[nodiscard]] std::optional<std::vector<ltsc::util::rpm_t>> decide_zones(
        const ltsc::core::controller_inputs& in) override;
    [[nodiscard]] std::string name() const override { return inner_->name(); }
    void reset() override { inner_->reset(); }
    void attach_plant(const ltsc::core::plant_access* plant) override {
        inner_->attach_plant(plant);
    }

private:
    void finish(double t0_s);

    std::unique_ptr<ltsc::core::fan_controller> inner_;
    const ltsc::core::rollout_controller* rollout_ = nullptr;
    const char* span_name_;
    decision_log* log_;
};

/// fleet_sink decorator installed after a telemetry service attaches
/// itself: records when each shard finished its step (a span from the
/// step's start to the shard's hand-off) and a publish span around the
/// forwarded on_shard_step.  The driving thread announces each step
/// with begin_step before calling fleet::step.
class timed_sink final : public ltsc::sim::fleet_sink {
public:
    explicit timed_sink(ltsc::sim::fleet_sink& inner) : inner_(inner) {}

    void begin_step(std::uint64_t step_span, double start_s) {
        step_span_ = step_span;
        step_start_s_ = start_s;
    }

    void on_shard_step(std::size_t shard, std::uint64_t epoch,
                       const ltsc::sim::server_batch& batch) override;

private:
    ltsc::sim::fleet_sink& inner_;
    // Written by the driving thread before fleet::step; the pool's job
    // hand-off orders the write before the shard callbacks read it.
    std::uint64_t step_span_ = 0;
    double step_start_s_ = 0.0;
};

}  // namespace perfbench
