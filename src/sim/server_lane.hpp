// The per-server core every plant steps: one server minus its thermal
// node state.
//
// Each server_batch lane owns one server_lane (a server_simulator is a
// one-lane batch).  The lane holds everything about a server that is
// not a thermal node: configuration, sensor RNG stream, fans, power
// model, sensors, workload, clock and telemetry poll clock, load split,
// fault schedule and live fault effects, and the optional residual
// monitor.  It does the fault-kind switch (handing fan kinds and fan
// commands to its fan_actuator, which the rollout engine's candidate
// lanes share), sensor corruption, the power breakdown from given die
// temperatures, the trace row, and the non-thermal half of
// snapshot/restore.
//
// The owning batch keeps the thermal half (one lane of its
// thermal::server_thermal_model, and a twin lane if monitored) and
// passes the current die (and, for the trace row, DIMM) and twin die
// temperatures (the plant's own while the twin is dormant, see
// server_batch) into the per-step calls: the trace row, the telemetry
// poll and the cold-start poll.  A poll reads the CPU sensors and keeps
// only their latest readings; the DIMM sensors' noise draws are skipped
// bitwise (util::pcg32::skip_normals), since nothing reads them.  When a
// lane call reports that airflow changed, the owner pushes
// zone_airflow() into its thermal half before anything else happens.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/fault_monitor.hpp"
#include "power/server_power_model.hpp"
#include "sim/batch_trace.hpp"
#include "sim/fan_actuator.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/server_config.hpp"
#include "sim/server_state.hpp"
#include "thermal/sensors.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workload/loadgen.hpp"

namespace ltsc::sim {

using power::die_temps;

/// One server's plant minus its thermal node state.
class server_lane {
public:
    /// Builds the lane from a configuration (validated on entry).
    explicit server_lane(const server_config& config);

    [[nodiscard]] const server_config& config() const { return config_; }
    /// The server's power model; its heat depends on load_imbalance().
    [[nodiscard]] const power::server_power_model& power() const { return power_; }
    [[nodiscard]] const core::fault_monitor* monitor() const {
        return monitor_ ? &*monitor_ : nullptr;
    }

    // --- workload and clock ----------------------------------------------
    /// Installs the workload and rewinds the clock to 0 (the owner
    /// clears its trace).  The poll clock rewinds with it, so the
    /// telemetry age carries over and polls keep their cadence.  The
    /// fault timeline restarts too: live effects clear and the bound
    /// schedule replays from its first event (true: airflow changed).
    [[nodiscard]] bool bind_workload(workload::loadgen generator);
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
    /// Monitored lanes only: the airflow the tach readings imply (what the
    /// monitor twin is told; a lying tach reports phantom airflow) when a
    /// reading moved since the last call, else nullptr.  The first call
    /// always returns it.  The owner calls it before every step and pushes
    /// the result into a live twin lane.
    [[nodiscard]] const std::vector<util::cfm_t>* moved_tach_airflow();
    /// Monitored lanes only: the airflow the tachs implied at the last call.
    [[nodiscard]] const std::vector<util::cfm_t>& tach_airflow() const { return tach_airflow_; }

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
    /// Advances the clock by `dt` and scores the monitor's fan residuals
    /// against the tach readings moved_tach_airflow() saw this step.
    void advance_clock(util::seconds_t dt);
    // `twin_die` is the twin lane's die temperatures (ignored when the
    // lane is unmonitored).
    /// The trace row of the step that just ended.
    [[nodiscard]] trace_row make_row(double u_target, double u_inst, const die_temps& die,
                                     util::celsius_t dimm, const die_temps& twin_die) const;
    /// Polls the sensors at the dies' true temperatures when a poll is
    /// due and telemetry is not lost, and feeds the poll to the monitor.
    void poll(const die_temps& die, const die_temps& twin_die);

    // --- cold start and settling ------------------------------------------------
    /// Clears live fault effects and sets the cold-start fan speed; the
    /// owner then pushes zone_airflow() and settles its thermal half.
    void begin_cold_start();
    /// Re-arms the monitor on the cold-start commands, rewinds the clock
    /// and fan counter, and takes a fresh telemetry poll of the settled
    /// temperatures (the owner has settled the twin lane too).
    void finish_cold_start(const die_temps& die, const die_temps& twin_die);

    // --- snapshot (everything but out.thermal) -------------------------------------
    void save_state(server_state& out) const;
    /// Restores the non-thermal state, poll clock included; the owner
    /// then pushes zone_airflow() and loads state.thermal (and the
    /// twin's state.monitor.twin).  Checks every shape and value first,
    /// so a rejected state changes nothing.
    void restore_state(const server_state& state);

private:
    /// Reads the CPU sensors at `now_s_` (corrupted by live faults),
    /// skips the DIMM sensors' noise draws, restarts the poll clock and
    /// feeds the poll to the monitor.
    void take_poll(const die_temps& die, const die_temps& twin_die);
    /// (Re)builds the monitor on the current fan commands.
    void arm_monitor();
    [[nodiscard]] bool apply_fault_event(const fault_event& event);
    /// Clears every live fault effect; a degraded fan pair recovers as
    /// on fan_recover.  Returns whether any pair recovered.
    [[nodiscard]] bool clear_fault_effects();
    [[nodiscard]] double corrupt_sensor_reading(std::size_t sensor, double raw) const;

    server_config config_;
    util::pcg32 rng_;
    fan_actuator fans_;
    power::server_power_model power_;
    thermal::server_sensor_suite sensors_;
    std::optional<workload::loadgen> workload_;

    double now_s_ = 0.0;
    // The CSTH poll clock: a poll is due once telemetry_period_s has
    // passed since the last one, or before the first.
    double last_poll_s_ = -1.0;
    bool polled_ = false;
    double imbalance_ = 0.5;
    std::size_t fan_changes_ = 0;
    std::vector<double> last_cpu_sensor_reads_;  ///< Refreshed at each telemetry poll.

    std::optional<fault_schedule> schedule_;
    fault_state fault_;  ///< Always sized, so snapshots are always valid.
    std::optional<core::fault_monitor> monitor_;  ///< Present iff config.monitor.enabled.
    // Monitored lanes only: the tach readings last pushed to the twin
    // (-1 until the first push) and the airflow they imply.
    std::vector<double> tach_rpm_;
    std::vector<util::cfm_t> tach_airflow_;
};

}  // namespace ltsc::sim
