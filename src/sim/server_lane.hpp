// The per-server core every plant steps: one server minus its thermal
// node state.
//
// Each server_batch lane owns one server_lane (a server_simulator is a
// one-lane batch).  The lane holds everything about a server that is not a thermal node:
// configuration, sensor RNG stream, fans, power model, sensors and
// their telemetry harness, workload, clock, load split, fault schedule
// and live fault effects, and the optional residual monitor.  It does
// the fault-kind switch (handing fan kinds and fan commands to its
// fan_actuator, which the rollout engine's candidate lanes share),
// sensor corruption, the power breakdown from given die temperatures,
// the trace row, and the non-thermal half of snapshot/restore.
//
// The owning batch keeps the thermal half (one lane of its
// thermal::server_thermal_model).  It hands the lane readers of its
// die/DIMM temperatures at construction (sensors and power channels
// sample them at poll time) and passes the current die temperatures
// into the per-step calls.  When a lane call reports that airflow
// changed, the owner pushes zone_airflow() into its thermal half before
// anything else happens.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "core/fault_monitor.hpp"
#include "power/server_power_model.hpp"
#include "sim/fan_actuator.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/server_config.hpp"
#include "sim/server_state.hpp"
#include "sim/simulation_trace.hpp"
#include "telemetry/harness.hpp"
#include "thermal/sensors.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workload/loadgen.hpp"

namespace ltsc::sim {

using power::die_temps;

/// One server's plant minus its thermal node state.
class server_lane {
public:
    using die_reader = std::function<util::celsius_t(std::size_t)>;
    using dimm_reader = std::function<util::celsius_t()>;

    /// Builds the lane from a configuration (validated on entry).  The
    /// readers return the owner's true die/DIMM temperatures; they are
    /// not called during construction and must outlive the lane.
    server_lane(const server_config& config, die_reader die_temp, dimm_reader dimm_temp);

    // Sensors and telemetry channels capture `this`.
    server_lane(const server_lane&) = delete;
    server_lane& operator=(const server_lane&) = delete;
    server_lane(server_lane&&) = delete;
    server_lane& operator=(server_lane&&) = delete;

    [[nodiscard]] const server_config& config() const { return config_; }
    /// The server's power model; its heat depends on load_imbalance().
    [[nodiscard]] const power::server_power_model& power() const { return power_; }
    [[nodiscard]] const telemetry::harness& telemetry() const { return telemetry_; }
    [[nodiscard]] const core::fault_monitor* monitor() const {
        return monitor_ ? &*monitor_ : nullptr;
    }

    // --- workload and clock ----------------------------------------------
    /// Installs the workload, rewinds the clock to 0 and drops the
    /// telemetry history (the owner clears its trace).
    void bind_workload(workload::loadgen generator);
    [[nodiscard]] const workload::loadgen* workload() const {
        return workload_ ? &*workload_ : nullptr;
    }
    [[nodiscard]] double now_s() const { return now_s_; }
    /// Workload target / instantaneous utilization now (0 when unbound).
    [[nodiscard]] double target_utilization() const;
    [[nodiscard]] double instantaneous_utilization() const;
    [[nodiscard]] double measured_utilization(util::seconds_t window) const;
    [[nodiscard]] double measured_socket_utilization(std::size_t socket,
                                                     util::seconds_t window) const;
    void set_load_imbalance(double fraction_socket0);
    [[nodiscard]] double load_imbalance() const { return imbalance_; }

    // --- fans (true return: airflow changed, push zone_airflow()) --------
    [[nodiscard]] bool set_fan_speed(std::size_t pair_index, util::rpm_t rpm);
    [[nodiscard]] bool set_all_fans(util::rpm_t rpm);
    [[nodiscard]] util::rpm_t fan_speed(std::size_t pair_index) const {
        return fans_.bank().effective_speed(pair_index);
    }
    [[nodiscard]] util::rpm_t average_fan_rpm() const { return fans_.bank().average_speed(); }
    [[nodiscard]] std::size_t fan_change_count() const { return fan_changes_; }
    void reset_fan_change_counter() { fan_changes_ = 0; }
    /// Airflow each fan pair delivers to its zone right now (a failed or
    /// tach-stuck rotor moves nothing).
    [[nodiscard]] const std::vector<util::cfm_t>& zone_airflow() { return fans_.zone_airflow(); }

    // --- observation --------------------------------------------------------
    [[nodiscard]] const std::vector<double>& cpu_sensor_reads() const {
        return last_cpu_sensor_reads_;
    }
    [[nodiscard]] util::celsius_t max_cpu_sensor_temp() const;
    /// Now minus the last poll time, or +infinity before the first poll.
    [[nodiscard]] double telemetry_age_s() const;

    // --- faults (true return: airflow changed, push zone_airflow()) ---------
    /// Both clear every live fault effect, which un-fails stopped rotors.
    [[nodiscard]] bool bind_fault_schedule(fault_schedule schedule);
    [[nodiscard]] bool clear_fault_schedule();
    [[nodiscard]] const fault_schedule* bound_fault_schedule() const {
        return schedule_ ? &*schedule_ : nullptr;
    }
    [[nodiscard]] const fault_state& current_fault_state() const { return fault_; }
    /// Fires due schedule events in order, stopping right after one that
    /// changes airflow (returns true: push zone_airflow(), then call
    /// again).  Returns false once nothing more is due.
    [[nodiscard]] bool apply_due_faults();

    // --- power -----------------------------------------------------------------
    /// Eqn. 1 at utilization `u_inst` with the dies at `die`.
    [[nodiscard]] power::power_breakdown breakdown_at(double u_inst, const die_temps& die) const {
        return power_.breakdown_at(u_inst, die, fans_.bank().total_power());
    }

    // --- stepping (after the owner's thermal step) -----------------------------
    /// Advances the clock by `dt` and steps the monitor twin.
    void advance_clock(util::seconds_t dt, double u_inst, util::celsius_t ambient);
    /// The trace row of the step that just ended.
    [[nodiscard]] trace_row make_row(double u_target, double u_inst, const die_temps& die,
                                     util::celsius_t dimm) const;
    /// Applies telemetry loss, polls when due, and feeds a poll to the
    /// monitor.
    void poll();

    // --- cold start and settling ------------------------------------------------
    /// Clears live fault effects and sets the cold-start fan speed; the
    /// owner then pushes zone_airflow() and settles its thermal half.
    void begin_cold_start();
    /// Restarts the monitor twin at the settled idle state, rewinds the
    /// clock and fan counter, and takes a fresh telemetry poll.
    void finish_cold_start(util::celsius_t ambient);
    /// Settles the monitor twin at a constant utilization.
    void settle_monitor(double u_pct, util::celsius_t ambient);

    // --- snapshot (everything but out.thermal) -------------------------------------
    void save_state(server_state& out) const;
    /// Restores the non-thermal state and restarts the telemetry
    /// recording; the owner then pushes zone_airflow() and loads
    /// state.thermal.
    void restore_state(const server_state& state);
    void clear_telemetry_history() { telemetry_.clear_history(); }

private:
    void register_telemetry();
    [[nodiscard]] bool apply_fault_event(const fault_event& event);
    /// Clears every live fault effect; a degraded fan pair recovers as
    /// on fan_recover.  Returns whether any pair recovered.
    [[nodiscard]] bool clear_fault_effects();
    [[nodiscard]] double corrupt_sensor_reading(std::size_t sensor, double raw) const;

    server_config config_;
    die_reader die_temp_;
    util::pcg32 rng_;
    fan_actuator fans_;
    power::server_power_model power_;
    thermal::server_sensor_suite sensors_;
    telemetry::harness telemetry_;
    std::optional<workload::loadgen> workload_;

    double now_s_ = 0.0;
    double imbalance_ = 0.5;
    std::size_t fan_changes_ = 0;
    std::vector<double> last_cpu_sensor_reads_;  ///< Refreshed at each telemetry poll.

    std::optional<fault_schedule> schedule_;
    fault_state fault_;  ///< Always sized, so snapshots are always valid.
    std::optional<core::fault_monitor> monitor_;  ///< Present iff config.monitor.enabled.
};

}  // namespace ltsc::sim
