// The coupled server plant: workload -> power -> thermal -> telemetry.
//
// This class stands in for the paper's physical testbed.  Its *control
// surface* is exactly what the paper's DLC-PC had: per-pair fan speed
// commands (the Agilent supplies) and `sar`-style utilization polling.
// Its *observation surface* is what CSTH reported: 4 CPU temperature
// sensors, 32 DIMM sensors, and whole-system power; like the paper's
// controller, readers see the latest poll only (no poll history is
// kept).  Plant internals (true die temperatures, exact power
// breakdown) are exposed separately for analysis, clearly marked as
// ground truth the real controllers could not see.
//
// The plant is a one-lane server_batch: every method forwards to lane 0,
// so a server_simulator and a batch lane step the same code by
// construction (with the monitor on, the batch's thermal model holds a
// second lane, the monitor's twin, stepped only once a tach lies).
#pragma once

#include <utility>
#include <vector>

#include "sim/server_batch.hpp"

namespace ltsc::sim {

/// Simulated enterprise server: a facade over a one-lane server_batch
/// (non-copyable, like the batch).
class server_simulator {
public:
    /// Builds the plant from a configuration (validated on entry).
    explicit server_simulator(const server_config& config = paper_server())
        : batch_(config, 1) {}

    /// The one-lane batch this plant forwards to (the batched runtime
    /// and plant views drive it as lane 0).
    [[nodiscard]] server_batch& batch() { return batch_; }
    [[nodiscard]] const server_batch& batch() const { return batch_; }

    // --- workload binding -------------------------------------------------
    /// Installs the workload; resets simulation time to 0 (the poll
    /// clock moves back with it, so the telemetry age carries over) and
    /// restarts the bound fault schedule from its first event.
    void bind_workload(workload::loadgen generator) {
        batch_.bind_workload(0, std::move(generator));
    }
    /// Convenience: binds a profile with default LoadGen settings.
    void bind_workload(const workload::utilization_profile& profile) {
        batch_.bind_workload(0, profile);
    }

    /// Skews how the CPU-bound load splits across the two sockets:
    /// socket 0 receives `fraction_socket0` of the CPU heat (0.5 =
    /// balanced, the paper's LoadGen default).  Utilization telemetry is
    /// skewed to match.
    void set_load_imbalance(double fraction_socket0) {
        batch_.set_load_imbalance(0, fraction_socket0);
    }
    [[nodiscard]] double load_imbalance() const { return batch_.load_imbalance(0); }

    /// Per-socket `sar` utilization: the socket's share of the measured
    /// load expressed against one socket's capacity (can exceed the
    /// system-level number under imbalance).
    [[nodiscard]] double measured_socket_utilization(std::size_t socket,
                                                     util::seconds_t window) const {
        return batch_.measured_socket_utilization(0, socket, window);
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
        batch_.bind_fault_schedule(0, std::move(schedule));
    }
    /// Removes the campaign and clears every live effect, like
    /// bind_fault_schedule.
    void clear_fault_schedule() { batch_.clear_fault_schedule(0); }
    /// The bound campaign, or nullptr (predictive controllers bind it to
    /// their rollout lanes like the workload preview).
    [[nodiscard]] const fault_schedule* bound_fault_schedule() const {
        return batch_.bound_fault_schedule(0);
    }
    /// Live fault effects (which fans/sensors are degraded right now).
    [[nodiscard]] const fault_state& current_fault_state() const {
        return batch_.current_fault_state(0);
    }

    /// The residual monitor, or nullptr when config().monitor.enabled is
    /// false.  Read-only: the monitor is a passive observer of the plant
    /// (it never perturbs dynamics or the sensor RNG stream).
    [[nodiscard]] const core::fault_monitor* monitor() const { return batch_.monitor(0); }
    /// The monitor twin's modeled die temperature (throws when the
    /// monitor is disabled).
    [[nodiscard]] util::celsius_t model_die_temp(std::size_t socket) const {
        return batch_.model_die_temp(0, socket);
    }

    /// Age of the last telemetry poll: now minus the last poll time, or
    /// +infinity before the first poll.  Under telemetry loss this grows
    /// past the poll period — the failsafe controller's trigger.
    [[nodiscard]] double telemetry_age_s() const { return batch_.telemetry_age_s(0); }

    // --- control surface (what the DLC-PC could actuate/poll) -------------
    /// Commands one fan pair; the plant clamps to the legal RPM range.
    /// A pair under a fan fault latches the command without actuating it
    /// (applied on recovery, like re-plugging a PWM line); latched
    /// commands do not count as fan-speed changes.  An out-of-range pair
    /// or a non-finite RPM throws and leaves the plant untouched.
    void set_fan_speed(std::size_t pair_index, util::rpm_t rpm) {
        batch_.set_fan_speed(0, pair_index, rpm);
    }
    /// Commands all pairs at once (counts as a single fan-speed change).
    void set_all_fans(util::rpm_t rpm) { batch_.set_all_fans(0, rpm); }
    /// Tachometer reading of one pair: the commanded speed, or 0 while
    /// the pair's rotor is failed.
    [[nodiscard]] util::rpm_t fan_speed(std::size_t pair_index) const {
        return batch_.fan_speed(0, pair_index);
    }
    [[nodiscard]] util::rpm_t average_fan_rpm() const { return batch_.average_fan_rpm(0); }
    /// Cumulative number of commands that actually changed a speed.
    [[nodiscard]] std::size_t fan_change_count() const { return batch_.fan_change_count(0); }
    /// Zeroes the fan-change counter (e.g. after applying a run's initial
    /// speed, which Table I does not count as a controller action).
    void reset_fan_change_counter() { batch_.reset_fan_change_counter(0); }

    /// `sar`-style utilization: mean instantaneous utilization over the
    /// trailing `window` (the DLC-PC polls this every second).
    [[nodiscard]] double measured_utilization(util::seconds_t window) const {
        return batch_.measured_utilization(0, window);
    }

    // --- observation surface (what CSTH reported) --------------------------
    /// Latest CPU sensor readings (4 values), from the last telemetry poll.
    [[nodiscard]] const std::vector<double>& cpu_sensor_temps() const {
        return batch_.cpu_sensor_temps(0);
    }
    /// Maximum of the CPU sensor readings at the last telemetry poll.
    [[nodiscard]] util::celsius_t max_cpu_sensor_temp() const {
        return batch_.max_cpu_sensor_temp(0);
    }
    /// Whole-system power as the power sensor reports it.
    [[nodiscard]] util::watts_t system_power_reading() const {
        return batch_.system_power_reading(0);
    }

    // --- ground truth (plant internals; not visible to real controllers) ---
    [[nodiscard]] util::celsius_t true_cpu_temp(std::size_t socket) const {
        return batch_.true_cpu_temp(0, socket);
    }
    [[nodiscard]] util::celsius_t true_avg_cpu_temp() const {
        return batch_.true_avg_cpu_temp(0);
    }
    [[nodiscard]] util::celsius_t true_dimm_temp() const { return batch_.true_dimm_temp(0); }
    [[nodiscard]] power::power_breakdown current_power() const {
        return batch_.current_power(0);
    }

    // --- time ---------------------------------------------------------------
    /// Advances the plant by `dt` (default cadence 1 s).
    void step(util::seconds_t dt = util::seconds_t{1.0}) { batch_.step(dt); }
    /// Repeatedly steps until `duration` has elapsed.
    void advance(util::seconds_t duration, util::seconds_t dt = util::seconds_t{1.0}) {
        batch_.advance(duration, dt);
    }
    [[nodiscard]] util::seconds_t now() const { return batch_.now(0); }

    /// Applies the paper's cold-start protocol: temperatures settle to the
    /// idle steady state with fans at the cold-start speed; time rewinds
    /// to 0 and the trace clears.
    void force_cold_start() { batch_.force_cold_start(0); }

    /// Jumps the plant to the self-consistent steady state of a constant
    /// utilization at the current fan speeds (characterization sweeps use
    /// this instead of integrating long transients).  Does not touch the
    /// trace or simulation time.
    void settle_at(double u_pct) { batch_.settle_at(0, u_pct); }

    /// Steady-state idle wall power at the given fan speed (the quantity
    /// the paper subtracts to compute net savings).
    [[nodiscard]] util::watts_t idle_power(util::rpm_t fan_rpm) const {
        return batch_.idle_power(0, fan_rpm);
    }

    /// Changes the room (inlet) temperature mid-run; takes effect through
    /// the plant dynamics on subsequent steps (ambient sweeps and aisle
    /// drift studies mutate this while a run is in flight).
    void set_ambient(util::celsius_t t) { batch_.set_ambient(0, t); }
    [[nodiscard]] util::celsius_t ambient() const { return batch_.ambient(0); }

    // --- state save/restore --------------------------------------------------
    /// Writes the plant's complete dynamic state into `out` (overwriting
    /// it; see server_state for exactly what that covers).  Pure read:
    /// the plant is left untouched, so interleaving snapshots with
    /// stepping cannot perturb a run.
    void snapshot_state(server_state& out) const { batch_.snapshot_lane_state(0, out); }
    [[nodiscard]] server_state snapshot_state() const {
        server_state out;
        snapshot_state(out);
        return out;
    }

    /// Rewinds the plant to a snapshot taken from this simulator (or any
    /// plant built from the same configuration).  The workload binding
    /// is left as-is — bind the matching workload first; restore after,
    /// since binding resets the clock this call sets.  Recording
    /// restarts: the trace clears and refills from the snapshot
    /// instant.  Subsequent stepping is bitwise-identical
    /// to the source plant's (snapshot_roundtrip suite).
    void restore_state(const server_state& state) { batch_.load_lane_state(0, state); }

    /// The bound workload, or nullptr before any bind_workload call
    /// (read-only; predictive controllers use it as the rollout preview).
    [[nodiscard]] const workload::loadgen* workload() const { return batch_.workload(0); }

    // --- recording -----------------------------------------------------------
    /// View of the recorded trace, invalidated by the next step or clear
    /// (copy it with `batch_trace{sim.trace()}` to keep it).
    [[nodiscard]] trace_view trace() const { return batch_.trace(0); }
    /// Drops the recorded trace rows (the telemetry poll clock is
    /// untouched, so replay stays bitwise).
    void clear_trace() { batch_.clear_trace(0); }

    [[nodiscard]] const server_config& config() const { return batch_.config(0); }

private:
    server_batch batch_;
};

}  // namespace ltsc::sim
