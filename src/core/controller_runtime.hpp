// Runtime that wires a controller to the simulated server.
//
// Plays the DLC-PC's role: polls the utilization (sar/mpstat emulation)
// and the CSTH sensor snapshot at the controller's cadence, forwards the
// observations, and actuates the returned fan commands.  Also owns the
// end-to-end "run a test" flow used by Table I: bind workload, force the
// cold start, let the controller drive, then extract metrics.
#pragma once

#include <string>
#include <vector>

#include "core/controller.hpp"
#include "sim/fleet.hpp"
#include "sim/metrics.hpp"
#include "sim/server_batch.hpp"
#include "sim/server_simulator.hpp"
#include "workload/profile.hpp"

namespace ltsc::core {

/// plant_access over one server_batch lane (what run_controlled_batch
/// attaches per lane, so fleets of predictive controllers work; a
/// server_simulator `s` is `batch_lane_plant_view(s.batch(), 0)`).
class batch_lane_plant_view final : public plant_access {
public:
    batch_lane_plant_view(const sim::server_batch& batch, std::size_t lane)
        : batch_(&batch), lane_(lane) {}

    void snapshot_into(sim::server_state& out) const override {
        batch_->snapshot_lane_state(lane_, out);
    }
    [[nodiscard]] const sim::server_config& plant_config() const override {
        return batch_->config(lane_);
    }
    [[nodiscard]] const workload::loadgen* plant_workload() const override {
        return batch_->workload(lane_);
    }
    [[nodiscard]] const sim::fault_schedule* plant_fault_schedule() const override {
        return batch_->bound_fault_schedule(lane_);
    }

private:
    const sim::server_batch* batch_;
    std::size_t lane_;
};

/// Runtime tunables.
struct runtime_config {
    util::seconds_t sim_dt{1.0};         ///< Plant integration step.
    util::seconds_t util_window{240.0};  ///< Averaging window of the
                                         ///< utilization measurement; spans
                                         ///< one LoadGen PWM period so the
                                         ///< duty cycling reads as its level.
    util::rpm_t initial_rpm{3300.0};     ///< Fan speed at t = 0 (the stock
                                         ///< default, as on a real machine).
};

/// Runs `controller` against `sim` for the whole `profile` and returns the
/// Table-I metrics row: run_controlled_batch over the plant's one lane.
/// The simulator's trace is left in place for figure-level inspection
/// (Fig. 3 uses it).
[[nodiscard]] sim::run_metrics run_controlled(sim::server_simulator& sim,
                                              fan_controller& controller,
                                              const workload::utilization_profile& profile,
                                              const runtime_config& config = {});

/// Drives every server_batch lane with its own controller and profile
/// through the shared time base, and returns one Table-I metrics row per
/// lane.  Lanes do not interact, so a lane's metrics are bitwise-identical
/// to a run_controlled of the same controller and profile.
/// Controllers are borrowed (one per lane, each owning its state).
/// Profiles may span different durations (ragged fleets): a lane whose
/// profile finishes goes inert — no stepping, recording, or controller
/// polling — while the remaining lanes run to completion.
[[nodiscard]] std::vector<sim::run_metrics> run_controlled_batch(
    sim::server_batch& batch, const std::vector<fan_controller*>& controllers,
    const std::vector<workload::utilization_profile>& profiles,
    const runtime_config& config = {});

/// Sharded analog of run_controlled_batch: each fleet shard runs its
/// lane block as an independent run_controlled_batch on the fleet's
/// thread pool, and the metrics are assembled shard-major — which is
/// global lane order, since shards own contiguous lane blocks.  Shards
/// share no mutable state, so results are invariant under shard count
/// and thread count (per-lane they match a plain run_controlled_batch).
/// Controllers and profiles are indexed by global lane.
[[nodiscard]] std::vector<sim::run_metrics> run_controlled_fleet(
    sim::fleet& fleet, const std::vector<fan_controller*>& controllers,
    const std::vector<workload::utilization_profile>& profiles,
    const runtime_config& config = {});

}  // namespace ltsc::core
