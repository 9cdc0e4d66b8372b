// Fan controller interface.
//
// A controller plays the role of the paper's DLC-PC software: it
// periodically observes the signals a real deployment could see (polled
// utilization, CSTH sensor temperatures, its own last command) and decides
// a fan speed.  Controllers never mutate plant internals; the runtime
// (controller_runtime.hpp) mediates between controller and simulator.
// Predictive controllers additionally get a *read-only* window onto the
// plant (plant_access) so they can clone its state into private rollout
// lanes — the live plant is still only actuated through the runtime.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace ltsc::sim {
struct server_state;
struct server_config;
class fault_schedule;
}  // namespace ltsc::sim

namespace ltsc::workload {
class loadgen;
}  // namespace ltsc::workload

namespace ltsc::core {

/// Read-only window onto a controlled plant, handed to controllers by
/// the runtime (run_controlled / run_controlled_batch) for the duration
/// of a run.  Reactive policies ignore it; predictive policies snapshot
/// through it to seed model rollouts.  Nothing here can mutate the
/// plant.
class plant_access {
public:
    virtual ~plant_access() = default;

    /// Snapshots the plant's complete dynamic state into `out`
    /// (overwriting it; zero-allocation once `out` has capacity).
    virtual void snapshot_into(sim::server_state& out) const = 0;

    /// The plant's configuration (to build matching rollout lanes).
    [[nodiscard]] virtual const sim::server_config& plant_config() const = 0;

    /// The bound workload — the rollout's load preview — or nullptr.
    [[nodiscard]] virtual const workload::loadgen* plant_workload() const = 0;

    /// The plant's bound fault campaign, or nullptr when healthy.  Like
    /// the workload preview, a predictive controller reads it at every
    /// decision and hands it to its rollout lanes, so the lookahead
    /// replays the scheduled faults the committed trajectory will hit.
    [[nodiscard]] virtual const sim::fault_schedule* plant_fault_schedule() const {
        return nullptr;
    }
};

/// Observations available to a controller at a decision instant.
struct controller_inputs {
    util::seconds_t now{0.0};            ///< Simulation time.
    double utilization_pct = 0.0;        ///< `sar`-style measured utilization.
    util::celsius_t max_cpu_temp{0.0};   ///< Max CPU sensor reading (CSTH).
    util::rpm_t current_rpm{0.0};        ///< Currently commanded speed (mean).
    util::watts_t system_power{0.0};     ///< Wall power reading (CSTH).
    /// Age of the newest CSTH poll behind the sensor readings [s]
    /// (+infinity before the first poll).  Healthy runs see at most one
    /// poll period; under telemetry loss it grows without bound — the
    /// failsafe controller's staleness trigger.
    double sensor_age_s = 0.0;

    // Per-zone observability (the extension surface for differential
    // control; single-speed controllers ignore these).
    std::array<double, 2> socket_util_pct{0.0, 0.0};  ///< Per-socket load.
    std::array<double, 2> socket_temp_c{0.0, 0.0};    ///< Max sensor per die.
    std::vector<util::rpm_t> zone_rpm;                ///< Per-pair speeds.

    // Fault-monitor observability.  Valid only when the plant runs a
    // residual monitor (config.monitor.enabled); controllers must treat
    // the raw sensor readings as the sole truth otherwise.  Health codes
    // are core::component_health values (0 healthy / 1 suspect / 2
    // failed).
    bool monitor_valid = false;                 ///< Monitor present on this plant.
    std::array<std::uint8_t, 4> sensor_health{};  ///< Per-CPU-sensor verdict.
    std::vector<std::uint8_t> fan_health;       ///< Per-fan-pair verdict.
    std::array<double, 2> model_die_c{};        ///< Monitor's modeled die temps.
    std::array<double, 4> cpu_sensor_c{};       ///< Individual CSTH CPU readings.
};

/// Abstract fan-speed policy.
class fan_controller {
public:
    virtual ~fan_controller() = default;

    /// How often the runtime calls `decide` (the LUT controller polls
    /// utilization every 1 s; the bang-bang controller rides the 10 s CSTH
    /// cadence).
    [[nodiscard]] virtual util::seconds_t polling_period() const = 0;

    /// Returns the new fan speed for all pairs, or std::nullopt to keep
    /// the current speed.
    [[nodiscard]] virtual std::optional<util::rpm_t> decide(const controller_inputs& in) = 0;

    /// Per-zone decision surface: returns one speed per fan pair, or
    /// std::nullopt to keep all speeds.  The default adapter replicates
    /// `decide` across zones, so single-speed policies need not override.
    [[nodiscard]] virtual std::optional<std::vector<util::rpm_t>> decide_zones(
        const controller_inputs& in) {
        const auto cmd = decide(in);
        if (!cmd.has_value()) {
            return std::nullopt;
        }
        return std::vector<util::rpm_t>(std::max<std::size_t>(1, in.zone_rpm.size()), *cmd);
    }

    /// Policy name for reports ("Default", "Bang", "LUT", ...).
    [[nodiscard]] virtual std::string name() const = 0;

    /// Clears internal state between runs.
    virtual void reset() {}

    /// Runtime hook: a read-only window onto the controlled plant,
    /// attached for the duration of a run (and detached with nullptr
    /// afterwards).  The default ignores it — only predictive policies
    /// (rollout_controller) override.
    virtual void attach_plant(const plant_access* plant) { static_cast<void>(plant); }
};

}  // namespace ltsc::core
