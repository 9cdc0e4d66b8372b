// Chaos-sweep harness: one randomized fault campaign, end to end.
//
// A campaign run is a controlled experiment with a twin: the same plant,
// workload, and controller stack — Failsafe(Bang), the hardened reactive
// baseline — is driven twice from the same cold start, once healthy and
// once with a seeded random fault schedule bound.  Comparing the pair
// turns "the controller survived" into quantitative invariants:
//
//   * thermal envelope — the *true* die temperatures (not the possibly
//     lying sensors) of the faulted run stay under a cap.  The generator
//     keeps the guard truthful (each die retains one unfaulted sensor;
//     biases are non-negative), so the controller always has
//     an honest worst-case reading to act on;
//   * bounded energy regret — surviving faults costs fan power (failsafe
//     overrides, failed-pair compensation), but only a bounded factor
//     over the healthy twin;
//   * bitwise replayability — the same campaign seed reproduces the
//     faulted run exactly, every field of the outcome included.
//
// The sweep (bench/fault_campaign, tests/fault_campaign_test) runs this
// over hundreds of seeds.  Campaigns with a fan failure are judged
// against a wider envelope: a dead pair leaves its zone only the mixed
// 30 % share of the survivors' airflow, which physically raises the
// reachable steady temperature no controller can undo.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "sim/fault_schedule.hpp"
#include "sim/metrics.hpp"

namespace ltsc::sim {

/// Which campaign generator a sweep draws from.
enum class campaign_class : int {
    /// The original survivable class: one fault at a time, truthful
    /// guard (each die keeps an honest sensor, biases non-negative).
    survivable = 0,
    /// One sustained negative-bias episode covering a whole die's (or
    /// every) CPU sensor — the guard-defeating failure only a residual
    /// monitor catches.  Judged under sustained 90 % load (the square
    /// wave's 150 s halves are shorter than the plant's thermal time
    /// constant, masking the hidden excursion).  Judge with
    /// `monitored = true`: unmitigated, the class breaches its envelope.
    lying_sensor,
    /// Rack-level correlated PSU events: several fan pairs die at the
    /// same instant (up to fan_pairs - 1), recovering together.
    correlated,
    /// Slow negative sensor drifts (0.02-0.1 degC/s ramps) on one die's
    /// or every CPU sensor, optionally overlapped by an intermittent
    /// burst bias on the other die — the sub-threshold classes only the
    /// CUSUM accumulator catches.  Judged under sustained 90 % load with
    /// `monitored = true`, like lying_sensor: unmitigated, a matured
    /// drift parks the fans at minimum and the die runs away.
    drifting_sensor,
};

/// Human-readable class name ("survivable", ...).
[[nodiscard]] const char* to_string(campaign_class c);

/// Fixed (non-seed) parameters of a campaign run.  Both legs run the
/// paper plant (its default sensor-noise seed, independent of the
/// campaign seed) under the default failsafe, and the generator runs
/// its default shape over `duration_s`.
struct fault_campaign_options {
    /// Run length; also the window faults are drawn over.
    double duration_s = 900.0;
    /// Generator class the campaign seed is drawn through.
    campaign_class fault_class = campaign_class::survivable;
    /// Run both legs with the residual monitor enabled (the failsafe
    /// then overrides distrusted sensors with model-backed estimates).
    bool monitored = false;
};

/// Everything a sweep needs to judge one campaign.
struct fault_campaign_result {
    fault_schedule schedule;        ///< The generated campaign.
    run_metrics healthy;            ///< Twin run, no faults bound.
    run_metrics faulted;            ///< Same stack with the campaign bound.
    double healthy_max_die_c = 0.0; ///< Max true die temp, healthy trace.
    double faulted_max_die_c = 0.0; ///< Max true die temp, faulted trace.
    double energy_ratio = 0.0;      ///< faulted energy / healthy energy.
    bool fan_fault = false;         ///< Campaign includes a fan failure/stuck.
    campaign_class fault_class = campaign_class::survivable;  ///< Generator used.
    bool monitored = false;         ///< Legs ran with the residual monitor on.
    /// Monitor-channel summaries of both legs (all-zero when not
    /// monitored).  Healthy-leg alarms are false positives; the faulted
    /// leg carries the per-onset time-to-detect stats.
    detection_summary healthy_detection;
    detection_summary faulted_detection;
};

/// Runs the healthy/faulted twin pair for one campaign seed.
[[nodiscard]] fault_campaign_result run_fault_campaign(std::uint64_t campaign_seed,
                                                       const fault_campaign_options& options = {});

/// Acceptance thresholds for a campaign outcome.  Defaults are calibrated
/// against the paper plant under the sweep's 30/90 % square workload over
/// a 5000-seed sweep of the default generator class:
///  * no fan fault: worst observed true-die max 75.6 degC (the truthful
///    guard holds the bang-bang band; its hard ceiling is the 80 degC
///    jump-to-max threshold) — cap 82;
///  * fan fault: worst observed 98.3 degC — a dead pair's zone keeps
///    only the 30 % mixed share of the survivors' airflow, a rise no
///    controller can undo — cap 101;
///  * energy: worst observed regret 3.2 % (failsafe overrides plus
///    failed-pair compensation) — cap 15 %.
struct fault_campaign_limits {
    /// True-die cap when every fan pair works (sensor/telemetry faults only).
    double envelope_c = 82.0;
    /// True-die cap when the campaign kills or sticks a fan pair.
    double fan_fault_envelope_c = 101.0;
    /// Max faulted/healthy energy ratio (regret bound).
    double max_energy_ratio = 1.15;
    /// True-die cap for the lying-sensor class judged *with* the
    /// monitor-backed failsafe (1000-seed calibration: worst observed
    /// 75.4 degC — detection lands within ~2 polls and the override
    /// steers on the model estimate, so the excursion never leaves the
    /// bang-bang band).  The cap is deliberately below the *unmitigated*
    /// worst (81.5 degC over the same seeds with the monitor off): the
    /// gate fails if the mitigation stops carrying its weight.
    double lying_sensor_envelope_c = 78.0;
    /// True-die cap for the correlated class: with up to fan_pairs - 1
    /// pairs dead at once only one pair's airflow (plus 30 % mixing)
    /// cools the dead zones (1000-seed calibration: worst observed
    /// 120.2 degC).
    double correlated_envelope_c = 124.0;
    /// True-die cap for the drifting-sensor class judged *with* the
    /// monitor (1000-seed calibration: worst observed 76.4 degC — the
    /// CUSUM alarms while the instantaneous error is still small, so the
    /// override lands before the excursion grows; zero healthy-leg false
    /// alarms over the same seeds).  Deliberately below the *unmitigated*
    /// worst (80.3 degC, with 223/1000 seeds over this cap when the
    /// monitor is off): the gate fails if the CUSUM stops carrying its
    /// weight.
    double drifting_sensor_envelope_c = 78.0;
    /// Energy-regret cap for the correlated class (1000-seed worst
    /// observed 3.7 %: compensating several dead pairs simultaneously
    /// stays within the single-fault regret bound).
    double correlated_max_energy_ratio = 1.15;
};

/// Checks one outcome against the limits; returns a human-readable
/// violation description, or nullopt when every invariant holds.
[[nodiscard]] std::optional<std::string> campaign_violation(
    const fault_campaign_result& result, const fault_campaign_limits& limits = {});

}  // namespace ltsc::sim
