// The coupled server plant: workload -> power -> thermal -> telemetry.
//
// This class stands in for the paper's physical testbed.  Its *control
// surface* is exactly what the paper's DLC-PC had: per-pair fan speed
// commands (the Agilent supplies) and `sar`-style utilization polling.
// Its *observation surface* is what CSTH reported: 4 CPU temperature
// sensors, 32 DIMM sensors, and whole-system power.  Plant internals
// (true die temperatures, exact power breakdown) are exposed separately
// for analysis, clearly marked as ground truth the real controllers could
// not see.
#pragma once

#include <utility>
#include <vector>

#include "core/fault_monitor.hpp"
#include "power/server_power_model.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/server_config.hpp"
#include "sim/server_lane.hpp"
#include "sim/server_state.hpp"
#include "sim/simulation_trace.hpp"
#include "telemetry/harness.hpp"
#include "thermal/server_thermal_model.hpp"
#include "workload/loadgen.hpp"

namespace ltsc::sim {

/// Simulated enterprise server: one server_lane (everything but the
/// thermal nodes) coupled to a one-lane server_thermal_model.
class server_simulator {
public:
    /// Builds the plant from a configuration (validated on entry).
    explicit server_simulator(const server_config& config = paper_server());

    // Telemetry sources capture `this`; the plant is pinned in memory.
    server_simulator(const server_simulator&) = delete;
    server_simulator& operator=(const server_simulator&) = delete;
    server_simulator(server_simulator&&) = delete;
    server_simulator& operator=(server_simulator&&) = delete;

    // --- workload binding -------------------------------------------------
    /// Installs the workload; resets simulation time to 0.
    void bind_workload(workload::loadgen generator);
    /// Convenience: binds a profile with default LoadGen settings.
    void bind_workload(const workload::utilization_profile& profile);

    /// Skews how the CPU-bound load splits across the two sockets:
    /// socket 0 receives `fraction_socket0` of the CPU heat (0.5 =
    /// balanced, the paper's LoadGen default).  Utilization telemetry is
    /// skewed to match.
    void set_load_imbalance(double fraction_socket0) { lane_.set_load_imbalance(fraction_socket0); }
    [[nodiscard]] double load_imbalance() const { return lane_.load_imbalance(); }

    /// Per-socket `sar` utilization: the socket's share of the measured
    /// load expressed against one socket's capacity (can exceed the
    /// system-level number under imbalance).
    [[nodiscard]] double measured_socket_utilization(std::size_t socket,
                                                     util::seconds_t window) const {
        return lane_.measured_socket_utilization(socket, window);
    }

    // --- fault injection ----------------------------------------------------
    /// Installs a fault campaign (copied).  Events fire at the top of the
    /// step whose start time reaches them; any live effects from a
    /// previous binding clear (a degraded fan pair recovers as on
    /// fan_recover, resuming its last latched command).  force_cold_start rewinds the campaign to
    /// its first event along with the clock.  Targets are validated
    /// against this plant's fan and sensor counts.  At least one fan
    /// pair must stay healthy at all times — a schedule failing every
    /// pair at once trips the plant's airflow precondition when it fires.
    void bind_fault_schedule(fault_schedule schedule) {
        if (lane_.bind_fault_schedule(std::move(schedule))) {
            apply_airflow();
        }
    }
    /// Removes the campaign and clears every live effect, like
    /// bind_fault_schedule.
    void clear_fault_schedule() {
        if (lane_.clear_fault_schedule()) {
            apply_airflow();
        }
    }
    /// The bound campaign, or nullptr (predictive controllers bind it to
    /// their rollout lanes like the workload preview).
    [[nodiscard]] const fault_schedule* bound_fault_schedule() const {
        return lane_.bound_fault_schedule();
    }
    /// Live fault effects (which fans/sensors are degraded right now).
    [[nodiscard]] const fault_state& current_fault_state() const {
        return lane_.current_fault_state();
    }

    /// The residual monitor, or nullptr when config().monitor.enabled is
    /// false.  Read-only: the monitor is a passive observer of the plant
    /// (it never perturbs dynamics or the sensor RNG stream).
    [[nodiscard]] const core::fault_monitor* monitor() const { return lane_.monitor(); }

    /// Age of the last telemetry poll: now minus the last poll time, or
    /// +infinity before the first poll.  Under telemetry loss this grows
    /// past the poll period — the failsafe controller's trigger.
    [[nodiscard]] double telemetry_age_s() const { return lane_.telemetry_age_s(); }

    // --- control surface (what the DLC-PC could actuate/poll) -------------
    /// Commands one fan pair; the plant clamps to the legal RPM range.
    /// A pair under a fan fault latches the command without actuating it
    /// (applied on recovery, like re-plugging a PWM line); latched
    /// commands do not count as fan-speed changes.  An out-of-range pair
    /// or a non-finite RPM throws and leaves the plant untouched.
    void set_fan_speed(std::size_t pair_index, util::rpm_t rpm);
    /// Commands all pairs at once (counts as a single fan-speed change).
    void set_all_fans(util::rpm_t rpm);
    /// Tachometer reading of one pair: the commanded speed, or 0 while
    /// the pair's rotor is failed.
    [[nodiscard]] util::rpm_t fan_speed(std::size_t pair_index) const {
        return lane_.fan_speed(pair_index);
    }
    [[nodiscard]] util::rpm_t average_fan_rpm() const { return lane_.average_fan_rpm(); }
    /// Cumulative number of commands that actually changed a speed.
    [[nodiscard]] std::size_t fan_change_count() const { return lane_.fan_change_count(); }
    /// Zeroes the fan-change counter (e.g. after applying a run's initial
    /// speed, which Table I does not count as a controller action).
    void reset_fan_change_counter() { lane_.reset_fan_change_counter(); }

    /// `sar`-style utilization: mean instantaneous utilization over the
    /// trailing `window` (the DLC-PC polls this every second).
    [[nodiscard]] double measured_utilization(util::seconds_t window) const {
        return lane_.measured_utilization(window);
    }

    // --- observation surface (what CSTH reported) --------------------------
    /// Latest CPU sensor readings (4 values), from the last telemetry poll.
    [[nodiscard]] std::vector<double> cpu_sensor_temps() const { return lane_.cpu_sensor_reads(); }
    /// Maximum of the CPU sensor readings at the last telemetry poll.
    [[nodiscard]] util::celsius_t max_cpu_sensor_temp() const {
        return lane_.max_cpu_sensor_temp();
    }
    /// Whole-system power as the power sensor reports it.
    [[nodiscard]] util::watts_t system_power_reading() const { return current_power().total(); }
    /// The underlying telemetry harness (channel access, CSV export).
    [[nodiscard]] const telemetry::harness& telemetry() const { return lane_.telemetry(); }

    // --- ground truth (plant internals; not visible to real controllers) ---
    [[nodiscard]] util::celsius_t true_cpu_temp(std::size_t socket) const {
        return thermal_.cpu_die_temp(0, socket);
    }
    [[nodiscard]] util::celsius_t true_avg_cpu_temp() const {
        return thermal_.average_cpu_temp(0);
    }
    [[nodiscard]] util::celsius_t true_dimm_temp() const { return thermal_.dimm_temp(0); }
    [[nodiscard]] power::power_breakdown current_power() const {
        return lane_.breakdown_at(lane_.instantaneous_utilization(), thermal_.die_temps(0));
    }

    // --- time ---------------------------------------------------------------
    /// Advances the plant by `dt` (default cadence 1 s).
    void step(util::seconds_t dt = util::seconds_t{1.0});
    /// Repeatedly steps until `duration` has elapsed.
    void advance(util::seconds_t duration, util::seconds_t dt = util::seconds_t{1.0});
    [[nodiscard]] util::seconds_t now() const { return util::seconds_t{lane_.now_s()}; }

    /// Applies the paper's cold-start protocol: temperatures settle to the
    /// idle steady state with fans at the cold-start speed; time rewinds
    /// to 0 and the trace clears.
    void force_cold_start();

    /// Jumps the plant to the self-consistent steady state of a constant
    /// utilization at the current fan speeds (characterization sweeps use
    /// this instead of integrating long transients).  Does not touch the
    /// trace or simulation time.
    void settle_at(double u_pct);

    /// Steady-state idle wall power at the given fan speed (the quantity
    /// the paper subtracts to compute net savings).
    [[nodiscard]] util::watts_t idle_power(util::rpm_t fan_rpm) const;

    /// Changes the room (inlet) temperature mid-run; takes effect through
    /// the plant dynamics on subsequent steps (ambient sweeps and aisle
    /// drift studies mutate this while a run is in flight).
    void set_ambient(util::celsius_t t) { thermal_.set_ambient(0, t); }
    [[nodiscard]] util::celsius_t ambient() const { return thermal_.ambient(0); }

    // --- state save/restore --------------------------------------------------
    /// Writes the plant's complete dynamic state into `out` (overwriting
    /// it; see server_state for exactly what that covers).  Pure read:
    /// the plant is left untouched, so interleaving snapshots with
    /// stepping cannot perturb a run.
    void snapshot_state(server_state& out) const;
    [[nodiscard]] server_state snapshot_state() const;

    /// Rewinds the plant to a snapshot taken from this simulator (or any
    /// plant built from the same configuration).  The workload binding
    /// is left as-is — bind the matching workload first; restore after,
    /// since binding resets the clock this call sets.  Recording
    /// restarts: the trace and telemetry histories clear and refill from
    /// the snapshot instant.  Subsequent stepping is bitwise-identical
    /// to the source plant's (snapshot_roundtrip suite).
    void restore_state(const server_state& state);

    /// The bound workload, or nullptr before any bind_workload call
    /// (read-only; predictive controllers use it as the rollout preview).
    [[nodiscard]] const workload::loadgen* workload() const { return lane_.workload(); }

    // --- recording -----------------------------------------------------------
    [[nodiscard]] const simulation_trace& trace() const { return trace_; }
    /// Drops the recorded trace rows and telemetry history rows (the
    /// telemetry poll clock is untouched, so replay stays bitwise).
    void clear_trace();

    [[nodiscard]] const server_config& config() const { return lane_.config(); }

private:
    void apply_airflow() { thermal_.set_zone_airflow(0, lane_.zone_airflow()); }

    server_lane lane_;  ///< First member: validates the configuration.
    thermal::server_thermal_model thermal_;
    simulation_trace trace_;
};

/// Steady-state idle wall power of a server described by `config` with
/// every fan pair at `fan_rpm`.  Shared by server_simulator::idle_power
/// and server_batch::idle_power so both report the same accounting floor.
[[nodiscard]] util::watts_t steady_idle_power(const server_config& config, util::rpm_t fan_rpm);

}  // namespace ltsc::sim
