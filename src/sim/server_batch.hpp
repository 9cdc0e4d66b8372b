// Structure-of-arrays fleet plant: N servers stepped through one
// instruction stream.
//
// A server_batch is the one plant class: server_simulator is a facade
// over a one-lane batch.  Every lane is a server_lane (workload, power
// models, sensors with their own seeded RNG stream, telemetry harness,
// faults and monitor), held by value: the batch hands each lane its die
// and DIMM temperatures at every step and poll, so no lane points back
// into the batch.  The thermal half is one
// thermal::server_thermal_model with one lane per server: every lane's
// node state lives in lane-contiguous flat arrays, and all lanes
// integrate through one batched RK4 kernel per step.
//
// Contract: a lane's results do not depend on how many lanes share the
// batch or where it sits — an N-lane batch is *bitwise-identical* lane
// by lane to N one-lane plants driven through the same schedule (same
// trace, same sensor noise stream, same metrics).  The batch_equivalence
// suite pins it, including mid-run fan-speed and ambient mutations.
// Lanes may differ in configuration (ambient, seed, calibration),
// workload, controller, and fan commands; only the thermal network
// topology is shared.
#pragma once

#include <utility>
#include <vector>

#include "core/fault_monitor.hpp"
#include "power/server_power_model.hpp"
#include "sim/batch_trace.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/server_config.hpp"
#include "sim/server_lane.hpp"
#include "sim/server_state.hpp"
#include "telemetry/harness.hpp"
#include "thermal/server_thermal_model.hpp"
#include "workload/loadgen.hpp"

namespace ltsc::sim {

/// N simulated servers in one structure-of-arrays plant.
class server_batch {
public:
    /// One lane per configuration (each validated on entry).
    explicit server_batch(std::vector<server_config> configs);

    /// N identical lanes from one configuration.
    server_batch(const server_config& config, std::size_t lanes);

    server_batch(const server_batch&) = delete;
    server_batch& operator=(const server_batch&) = delete;

    [[nodiscard]] std::size_t lane_count() const { return lanes_.size(); }

    // --- workload binding (per lane) ---------------------------------------
    void bind_workload(std::size_t lane, workload::loadgen generator);
    void bind_workload(std::size_t lane, const workload::utilization_profile& profile);

    void set_load_imbalance(std::size_t lane, double fraction_socket0) {
        at(lane).set_load_imbalance(fraction_socket0);
    }
    [[nodiscard]] double load_imbalance(std::size_t lane) const {
        return at(lane).load_imbalance();
    }
    [[nodiscard]] double measured_socket_utilization(std::size_t lane, std::size_t socket,
                                                     util::seconds_t window) const {
        return at(lane).measured_socket_utilization(socket, window);
    }

    // --- fault injection (per lane; see server_simulator) -------------------
    void bind_fault_schedule(std::size_t lane, fault_schedule schedule);
    void clear_fault_schedule(std::size_t lane);
    [[nodiscard]] const fault_schedule* bound_fault_schedule(std::size_t lane) const {
        return at(lane).bound_fault_schedule();
    }
    [[nodiscard]] const fault_state& current_fault_state(std::size_t lane) const {
        return at(lane).current_fault_state();
    }

    /// The lane's residual monitor, or nullptr when the lane's
    /// config.monitor.enabled is false (see server_simulator::monitor).
    [[nodiscard]] const core::fault_monitor* monitor(std::size_t lane) const {
        return at(lane).monitor();
    }

    /// Age of the lane's last telemetry poll (+infinity before any).
    [[nodiscard]] double telemetry_age_s(std::size_t lane) const {
        return at(lane).telemetry_age_s();
    }

    // --- control surface (per lane) ----------------------------------------
    void set_fan_speed(std::size_t lane, std::size_t pair_index, util::rpm_t rpm);
    void set_all_fans(std::size_t lane, util::rpm_t rpm);
    [[nodiscard]] util::rpm_t fan_speed(std::size_t lane, std::size_t pair_index) const {
        return at(lane).fan_speed(pair_index);
    }
    [[nodiscard]] util::rpm_t average_fan_rpm(std::size_t lane) const {
        return at(lane).average_fan_rpm();
    }
    [[nodiscard]] std::size_t fan_change_count(std::size_t lane) const {
        return at(lane).fan_change_count();
    }
    void reset_fan_change_counter(std::size_t lane) { at(lane).reset_fan_change_counter(); }

    [[nodiscard]] double measured_utilization(std::size_t lane, util::seconds_t window) const {
        return at(lane).measured_utilization(window);
    }

    // --- observation surface (per lane) ------------------------------------
    [[nodiscard]] const std::vector<double>& cpu_sensor_temps(std::size_t lane) const {
        return at(lane).cpu_sensor_reads();
    }
    [[nodiscard]] util::celsius_t max_cpu_sensor_temp(std::size_t lane) const {
        return at(lane).max_cpu_sensor_temp();
    }
    [[nodiscard]] util::watts_t system_power_reading(std::size_t lane) const {
        return current_power(lane).total();
    }
    [[nodiscard]] const telemetry::harness& telemetry(std::size_t lane) const {
        return at(lane).telemetry();
    }

    // --- ground truth (per lane) -------------------------------------------
    [[nodiscard]] util::celsius_t true_cpu_temp(std::size_t lane, std::size_t socket) const {
        return thermal_.cpu_die_temp(lane, socket);
    }
    [[nodiscard]] util::celsius_t true_avg_cpu_temp(std::size_t lane) const {
        return thermal_.average_cpu_temp(lane);
    }
    [[nodiscard]] util::celsius_t true_dimm_temp(std::size_t lane) const {
        return thermal_.dimm_temp(lane);
    }
    [[nodiscard]] power::power_breakdown current_power(std::size_t lane) const {
        return at(lane).breakdown_at(at(lane).instantaneous_utilization(),
                                     thermal_.die_temps(lane));
    }

    /// Changes one lane's room temperature mid-run (aisle gradients,
    /// setpoint drift).
    void set_ambient(std::size_t lane, util::celsius_t t) { thermal_.set_ambient(lane, t); }
    [[nodiscard]] util::celsius_t ambient(std::size_t lane) const {
        return thermal_.ambient(lane);
    }

    // --- lane state save/restore --------------------------------------------
    /// Writes one lane's complete dynamic state into `out` (overwriting
    /// it).  Pure read; any same-config lane can load the result.
    void snapshot_lane_state(std::size_t lane, server_state& out) const;

    /// Loads a snapshot (from any same-config lane) into one lane: the
    /// restore half of the snapshot round trip.  The lane's workload
    /// binding is left as-is — bind first, load after, since binding
    /// resets the clock this call sets.  The lane's trace and telemetry
    /// histories clear (recording restarts at the snapshot instant) and
    /// the lane reactivates if it was inert.  Subsequent stepping is
    /// bitwise-identical to the snapshot's source plant.
    void load_lane_state(std::size_t lane, const server_state& state);

    /// The lane's bound workload, or nullptr before any bind_workload.
    [[nodiscard]] const workload::loadgen* workload(std::size_t lane) const {
        return at(lane).workload();
    }

    // --- time ---------------------------------------------------------------
    /// Advances every *active* lane by `dt` through the batched thermal
    /// kernel.  Inert lanes (see set_lane_active) are left bitwise
    /// untouched: no heat update, no integration, no time advance, no
    /// recording, no telemetry poll.  A step with every lane inert is a
    /// no-op.
    void step(util::seconds_t dt = util::seconds_t{1.0});
    void advance(util::seconds_t duration, util::seconds_t dt = util::seconds_t{1.0});
    [[nodiscard]] util::seconds_t now(std::size_t lane) const {
        return util::seconds_t{at(lane).now_s()};
    }

    /// Ragged fleets: marks one lane (in)active for subsequent steps.
    /// Lanes whose workload finishes early go inert while the rest of
    /// the fleet keeps stepping; binding a workload or forcing a cold
    /// start reactivates the lane.
    void set_lane_active(std::size_t lane, bool active);
    [[nodiscard]] bool lane_active(std::size_t lane) const;

    /// Paper cold-start protocol on one lane / every lane.
    void force_cold_start(std::size_t lane);
    void force_cold_start();

    /// Jumps one lane to the steady state of a constant utilization.
    void settle_at(std::size_t lane, double u_pct);

    [[nodiscard]] util::watts_t idle_power(std::size_t lane, util::rpm_t fan_rpm) const;

    // --- recording (per lane) -----------------------------------------------
    /// View of one lane's recording in the shared lane-major arena
    /// (invalidated by the next step/clear; copy it with
    /// `batch_trace{batch.trace(l)}` to keep it).
    [[nodiscard]] trace_view trace(std::size_t lane) const;
    /// Drops the lane's recorded trace rows and telemetry history rows
    /// (the telemetry poll clock is untouched, so replay stays bitwise).
    void clear_trace(std::size_t lane);

    /// The shared lane-major recording arena (row-group publication for
    /// the streaming telemetry service reads it directly).
    [[nodiscard]] const batch_trace& traces() const { return traces_; }

    [[nodiscard]] const server_config& config(std::size_t lane) const { return at(lane).config(); }

private:
    [[nodiscard]] server_lane& at(std::size_t lane);
    [[nodiscard]] const server_lane& at(std::size_t lane) const;

    thermal::server_thermal_model thermal_;  ///< One thermal lane per server.
    std::vector<server_lane> lanes_;

    // Lane-major columnar recording: all lanes of a step append into one
    // contiguous arena row-group.
    batch_trace traces_;

    // Per-lane active flags (ragged fleets); inert_count_ keeps the
    // all-active hot path on the unmasked kernel.
    std::vector<unsigned char> active_;
    std::size_t inert_count_ = 0;

    // Per-step scratch so stepping does not allocate.
    std::vector<double> u_target_scratch_;
    std::vector<double> u_inst_scratch_;
};

/// Steady-state idle wall power of a server described by `config` with
/// every fan pair at `fan_rpm` (the accounting floor idle_power reports).
[[nodiscard]] util::watts_t steady_idle_power(const server_config& config, util::rpm_t fan_rpm);

}  // namespace ltsc::sim
