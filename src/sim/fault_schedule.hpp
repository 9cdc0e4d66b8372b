// Deterministic, replayable fault injection for the server plant.
//
// ROADMAP item 5: every scenario so far assumes healthy hardware, but
// the paper's claim — keep the fleet inside the 75 degC envelope while
// shaving energy — only means something when fans stick, sensors lie,
// and telemetry drops.  A fault_schedule is an immutable, time-sorted
// list of fault events a plant binds like a workload; the plant fires
// every due event at the top of each step, mutating a small per-plant
// fault_state.  Because the schedule is plain data and the randomized
// campaign generator draws from its own seeded PCG32 stream, any
// campaign replays bitwise from its seed — on any thread count — and an
// *empty* schedule leaves every plant path bitwise-identical to the
// healthy build (pinned by the golden/equivalence suites).
//
// Fault classes:
//  * fan_failure       — a fan pair's rotor dies: 0 RPM, 0 W, 0 CFM; the
//                        pair ignores commands until fan_recover.
//  * fan_stuck_pwm     — the pair's PWM input dies: the pair keeps
//                        spinning at its current (or event-given) speed
//                        and ignores commands until fan_recover.
//  * fan_recover       — the pair resumes following the *last commanded*
//                        speed (commands issued during the outage were
//                        latched, exactly like re-plugging a PWM line).
//  * fan_tach_stuck    — the pair's rotor dies like fan_failure, but the
//                        tachometer keeps reporting the commanded speed:
//                        a lying tach that defeats command/tach residual
//                        monitoring.  Cleared by fan_recover.
//  * sensor_stuck      — a CPU sensor freezes at its current (or given)
//                        reading until sensor_recover.
//  * sensor_bias       — additive offset on one CPU sensor's readings
//                        (a lying sensor; positive = conservative).
//  * sensor_dropout    — readings lost for duration_s: the last
//                        delivered value is held.
//  * sensor_drift      — slow additive ramp on one sensor: the bias
//                        grows value degC per second from the onset
//                        until sensor_recover.  Walks under any fixed
//                        residual threshold; CUSUM territory.
//  * sensor_intermittent — burst on/off bias for duration_s: the offset
//                        `value` is applied during the on-phase of a
//                        fixed square wave (k_intermittent_* below), so
//                        no single poll streak stays bad long enough to
//                        trip consecutive-poll hysteresis.
//  * sensor_recover    — clears stuck/bias/dropout/drift/intermittent
//                        on one sensor.
//  * telemetry_loss    — the CSTH poller drops every poll for
//                        duration_s; controllers see stale observations
//                        (core::failsafe_controller reacts to the
//                        resulting sensor age).
//
// The runtime fault_state is part of sim::server_state, so snapshots of
// a degraded plant carry the degradation into rollout lanes
// (rollout_engine::evaluate) and restore it on rewind — the rollout
// lookahead sees the same broken fans the committed trajectory does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ltsc::util {
class pcg32;
}  // namespace ltsc::util

namespace ltsc::sim {

/// Kind of one injected fault event.
enum class fault_kind : int {
    fan_failure = 0,
    fan_stuck_pwm,
    fan_recover,
    sensor_stuck,
    sensor_bias,
    sensor_dropout,
    sensor_recover,
    telemetry_loss,
    fan_tach_stuck,
    sensor_drift,
    sensor_intermittent,
};

/// Square-wave timing of sensor_intermittent bursts: the bias is live
/// while fmod(now - onset, period) < duty * period.  Fixed constants so
/// every plant lane agrees bitwise.
inline constexpr double k_intermittent_period_s = 30.0;
inline constexpr double k_intermittent_duty = 0.5;

/// Human-readable kind name ("fan_failure", ...).
[[nodiscard]] const char* to_string(fault_kind kind);

/// One time-stamped fault.  `value` carries the stuck RPM / stuck
/// temperature / bias degC / drift rate degC-per-s depending on kind;
/// NaN means "at the current value" for the stuck kinds.  `duration_s`
/// spans the dropout / intermittent / loss kinds; every other kind
/// persists until its recover event.
struct fault_event {
    double t_s = 0.0;                        ///< Fire time (plant clock) [s].
    fault_kind kind = fault_kind::fan_failure;
    std::size_t target = 0;                  ///< Fan pair / CPU sensor index.
    double value = 0.0;                      ///< Stuck RPM / stuck degC / bias degC.
    double duration_s = 0.0;                 ///< Dropout / telemetry-loss span [s].
};

/// Immutable, time-sorted fault event list.  Bind one to a plant
/// (server_simulator::bind_fault_schedule / server_batch lane binding)
/// before the run; the plant validates targets against its own fan and
/// sensor counts at bind time.
class fault_schedule {
public:
    fault_schedule() = default;

    /// Takes any event order; stable-sorts by fire time (ties keep the
    /// caller's order).  Rejects negative times/durations and
    /// non-finite values other than the "at current" NaN convention.
    /// Also rejects incoherent campaigns: a recover event with no
    /// outstanding fault on its component (recover-before-fail), and two
    /// same-tick events on one component (or two same-tick telemetry
    /// losses), whose firing order the tie-break would silently decide.
    explicit fault_schedule(std::vector<fault_event> events);

    [[nodiscard]] const std::vector<fault_event>& events() const { return events_; }
    [[nodiscard]] bool empty() const { return events_.empty(); }
    [[nodiscard]] std::size_t size() const { return events_.size(); }

    /// Largest fan-pair / CPU-sensor index any event targets (0 when no
    /// event of that class exists); validation helpers for binding a
    /// campaign and for handing one to a rollout.
    [[nodiscard]] std::size_t max_fan_target() const;
    [[nodiscard]] std::size_t max_sensor_target() const;

private:
    std::vector<fault_event> events_;
};

/// Upper bound on a generated sensor bias [degC].
inline constexpr double k_max_sensor_bias_c = 4.0;

/// Knobs of the randomized campaign generator.  It draws fan, sensor and
/// telemetry faults with equal odds over the plant's 4 CPU sensors.  The
/// defaults describe the *survivable, truthful-guard* class the chaos
/// sweep asserts the envelope invariant over: at most one fan pair
/// degraded at a time, at most one CPU sensor per die faulted at a time
/// (so the max-sensor guard always has a truthful reading of the hottest
/// die).  Generated sensor biases are always non-negative (a sensor
/// lying *hot* makes the controller conservative; lying *cool* defeats
/// any guard steering on raw readings —
/// FaultInjection.NegativeBiasDefeatsTheGuardWithoutMonitor pins the
/// defeat, and the residual monitor plus failsafe override is the
/// mitigation, exercised by make_lying_sensor_campaign).
struct fault_campaign_config {
    double duration_s = 900.0;        ///< Campaign span the events land in.
    std::size_t fan_pairs = 3;        ///< Plant fan-pair count.
    std::size_t max_faults = 6;       ///< Fault onsets per campaign (>= 1).
    double min_fan_outage_s = 60.0;      ///< Fan fault span bounds [s].
    double max_fan_outage_s = 240.0;
    double max_sensor_outage_s = 120.0;  ///< Stuck/bias/dropout span cap [s].
    double max_telemetry_loss_s = 90.0;  ///< Poll-loss span cap [s].
    std::size_t max_concurrent_fan_faults = 1;  ///< Keeps >= 1 pair healthy.

    /// Correlated (rack-level) fan events: with probability
    /// `correlated_probability`, a drawn fan fault takes out up to 2
    /// pairs *at the same instant* — one PSU rail dropping several fans
    /// at once — recovering together too.  The group is still capped by
    /// `max_concurrent_fan_faults`, so raise that cap alongside (the
    /// correlated campaign class uses fan_pairs - 1).  Off by default:
    /// with the flag false the generator's RNG stream is
    /// bitwise-identical to earlier revisions, preserving every
    /// calibrated campaign.
    bool correlated_fan_events = false;
    double correlated_probability = 0.6;  ///< P(group event | fan fault drawn).
};

/// Draws a randomized campaign from a dedicated PCG32 stream seeded
/// with `seed`: same seed, same schedule, bitwise, on every platform.
/// Generated campaigns respect the config's concurrency constraints
/// (fan faults never overlap beyond the cap, at most one sensor per die
/// is faulted at a time) and always emit recovery events that land
/// inside `duration_s` when the drawn outage fits.
[[nodiscard]] fault_schedule make_random_campaign(std::uint64_t seed,
                                                  const fault_campaign_config& config = {});

/// Draws a *lying-sensor* campaign from the same dedicated stream: one
/// sustained negative-bias episode (12–25 degC cool) covering every CPU
/// sensor of one die — or all of them — for 35–60% of the campaign,
/// starting 15–40% in.  This is the failure mode that defeats any
/// guard steering on raw sensor maxima (no truthful partner survives on
/// the lied-about die); only a model-based monitor catches it.  Uses
/// only `duration_s` from the config.
[[nodiscard]] fault_schedule make_lying_sensor_campaign(std::uint64_t seed,
                                                        const fault_campaign_config& config = {});

/// Draws a *drifting-sensor* campaign: one sustained sensor_drift
/// episode lying progressively *cool* (0.02–0.1 degC/s ramps — always
/// at or above the 0.02 degC/s detection floor the CUSUM sweep asserts
/// over) covering one die's full sensor complement — or every sensor —
/// for 30–50% of the campaign starting 15–35% in, plus (when the drift
/// spares a die) an optional sensor_intermittent burst episode on the
/// other die.  Every error here walks under the instantaneous residual
/// threshold for minutes; only accumulated-residual (CUSUM) detection
/// catches the onset.  Uses only `duration_s` from the config.
[[nodiscard]] fault_schedule make_drifting_sensor_campaign(
    std::uint64_t seed, const fault_campaign_config& config = {});

/// Per-plant dynamic fault state: which effects are live *now*, plus
/// the schedule cursor.  Part of sim::server_state, so degraded plants
/// snapshot/restore bitwise (snapshot_roundtrip + fault suites).
struct fault_state {
    static constexpr unsigned char fan_ok = 0;
    static constexpr unsigned char fan_failed = 1;
    static constexpr unsigned char fan_stuck = 2;
    static constexpr unsigned char fan_tach = 3;  ///< Rotor dead, tach lying.

    std::size_t next_event = 0;  ///< Index of the next unfired schedule event.

    std::vector<unsigned char> fan_mode;    ///< fan_ok / fan_failed / fan_stuck / fan_tach.
    std::vector<double> fan_commanded_rpm;  ///< Last command latched per pair.

    std::vector<unsigned char> sensor_stuck;      ///< 1 = frozen.
    std::vector<double> sensor_stuck_c;           ///< Frozen reading [degC].
    std::vector<double> sensor_bias_c;            ///< Additive bias [degC].
    std::vector<double> sensor_dropout_until_s;   ///< Dropout active while now < this.
    std::vector<double> sensor_drift_c_per_s;     ///< Ramp rate; 0 = no drift.
    std::vector<double> sensor_drift_start_s;     ///< Ramp anchor (onset time).
    std::vector<double> sensor_intermittent_c;    ///< Burst bias; 0 = none.
    std::vector<double> sensor_intermittent_start_s;  ///< Burst phase anchor.
    std::vector<double> sensor_intermittent_until_s;  ///< Bursts while now < this.

    double telemetry_lost_until_s = 0.0;  ///< Polls suppressed while now < this.

    /// Clears every effect and sizes the per-pair / per-sensor arrays.
    void reset(std::size_t fan_pairs, std::size_t cpu_sensors);

    [[nodiscard]] bool sized_for(std::size_t fan_pairs, std::size_t cpu_sensors) const {
        return fan_mode.size() == fan_pairs && fan_commanded_rpm.size() == fan_pairs &&
               sensor_stuck.size() == cpu_sensors && sensor_stuck_c.size() == cpu_sensors &&
               sensor_bias_c.size() == cpu_sensors &&
               sensor_dropout_until_s.size() == cpu_sensors &&
               sensor_drift_c_per_s.size() == cpu_sensors &&
               sensor_drift_start_s.size() == cpu_sensors &&
               sensor_intermittent_c.size() == cpu_sensors &&
               sensor_intermittent_start_s.size() == cpu_sensors &&
               sensor_intermittent_until_s.size() == cpu_sensors;
    }

    [[nodiscard]] bool any_fan_fault() const;
    [[nodiscard]] bool sensor_faulted(std::size_t sensor, double now_s) const;
    [[nodiscard]] bool any_sensor_fault(double now_s) const;
    /// Whether an intermittent episode's square wave is in its on-phase
    /// for this sensor right now.
    [[nodiscard]] bool intermittent_burst_live(std::size_t sensor, double now_s) const;
    [[nodiscard]] bool telemetry_lost(double now_s) const {
        return now_s < telemetry_lost_until_s - 1e-9;
    }

    /// Any effect live at `now_s` (what rollout_controller checks to
    /// degrade to its baseline: an active fault means the rollout's
    /// model of the control surface is compromised).
    [[nodiscard]] bool any_active(double now_s) const;
};

}  // namespace ltsc::sim
