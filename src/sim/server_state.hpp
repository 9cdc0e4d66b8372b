// Complete dynamic state of one simulated server.
//
// A server_state is everything a plant needs to continue stepping
// bitwise-identically from a point in time: simulation clock, workload
// split, fan commands, the sensor RNG stream, the thermal network state,
// the last sensor readings the controllers saw, and the telemetry poll
// clock.  It deliberately excludes three things:
//  * the configuration — states only move between plants built from the
//    same server_config (the snapshot APIs validate the shapes);
//  * the workload binding — the profile is immutable during a run, so
//    receivers read it from the plant (rollout_engine::evaluate takes
//    it as an argument) instead of copying it into every snapshot;
//  * the recorded trace — it describes the past, not the dynamics; a
//    restored plant records a fresh trace from the snapshot instant.
//
// Snapshots are the substrate of the receding-horizon rollout family:
// server_simulator::snapshot_state / server_batch::snapshot_lane_state
// save a live plant, rollout_engine::evaluate loads its physical half
// (clock, load split, fans, fan faults, thermal state) into the
// candidate lanes, and server_batch::load_lane_state /
// server_simulator::restore_state rewind a plant (round-trip pinned
// bitwise by the snapshot_roundtrip suite).  A server_state is
// reusable: saving overwrites in place, so a per-epoch scratch snapshot
// amortizes to zero allocations.
#pragma once

#include <cstddef>
#include <vector>

#include "core/fault_monitor.hpp"
#include "sim/fault_schedule.hpp"
#include "thermal/rc_batch.hpp"
#include "util/rng.hpp"

namespace ltsc::sim {

/// A monitored server's residual-monitor state: latched commands and
/// verdicts, plus its twin's thermal state (a dormant twin's is `thermal`).
struct monitor_state : core::fault_monitor_state {
    thermal::rc_state twin;
};

/// Everything needed to resume a server bitwise from an instant.
struct server_state {
    double now_s = 0.0;              ///< Simulation clock [s].
    double imbalance = 0.5;          ///< Socket-0 share of the CPU load.
    std::size_t fan_changes = 0;     ///< Counted fan-speed changes so far.
    std::vector<double> fan_rpm;     ///< Commanded speed per fan pair.
    util::pcg32 rng;                 ///< Sensor-noise stream, mid-sequence.
    thermal::rc_state thermal;       ///< Node temps/powers, edge g, ambient.
    std::vector<double> sensor_reads;  ///< Last CPU sensor readings [degC].
    double telemetry_last_poll_s = -1.0;  ///< Telemetry poll clock.
    bool telemetry_polled = false;        ///< Whether a poll ever happened.
    /// Live fault effects + schedule cursor, so a degraded plant clones
    /// into rollout lanes degraded (the schedule itself is bound like
    /// the workload, not copied per snapshot).
    fault_state fault;
    /// Residual-monitor state (twin thermal state, latched commands,
    /// hysteresis counters); empty when the plant's monitor is disabled.
    /// Mid-hysteresis verdicts restore bitwise — a sensor snapshotted
    /// "suspect" resumes its escalation exactly where it stopped.
    monitor_state monitor;
};

}  // namespace ltsc::sim
