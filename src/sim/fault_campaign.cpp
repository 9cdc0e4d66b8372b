#include "sim/fault_campaign.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "core/bang_bang_controller.hpp"
#include "core/controller_runtime.hpp"
#include "core/failsafe_controller.hpp"
#include "sim/server_simulator.hpp"
#include "util/error.hpp"
#include "workload/profile.hpp"

namespace ltsc::sim {

namespace {

/// The sweep's workload: a 30/90 % square wave (150 s half-period) that
/// keeps crossing the bang-bang band, so faults land on heating flanks,
/// cooling flanks, and steady plateaus alike.
workload::utilization_profile sweep_profile(double duration_s) {
    workload::utilization_profile profile("FaultSweep");
    const double cycle_s = 300.0;
    const int cycles = static_cast<int>(duration_s / cycle_s);
    if (cycles > 0) {
        profile.square(90.0, 30.0, util::seconds_t{cycle_s / 2.0}, cycles);
    }
    const double remainder = duration_s - cycles * cycle_s;
    if (remainder > 1e-9) {
        profile.constant(90.0, util::seconds_t{remainder});
    }
    return profile;
}

/// The lying-sensor class is judged at *sustained* 90 % load instead:
/// a cool-lying sensor parks the fans at minimum, and only a dwell
/// longer than the plant's thermal time constant lets the hidden
/// excursion actually develop (the square wave's 150 s halves mask it).
workload::utilization_profile sustained_profile(double duration_s) {
    workload::utilization_profile profile("FaultSoak");
    profile.constant(90.0, util::seconds_t{duration_s});
    return profile;
}

/// What one leg of the twin pair yields beyond the Table-I row: the
/// maximum *true* die temperature over the trace (the envelope is
/// judged on physics, not on the possibly faulted sensors) and the
/// monitor-channel detection summary.
struct leg_outcome {
    run_metrics metrics;
    double max_die_c = 0.0;
    detection_summary detection;
};

/// One leg: fresh plant, fresh Failsafe(Bang), optional campaign bound,
/// full run.
leg_outcome run_leg(const fault_campaign_options& options, const fault_schedule* campaign,
                    const char* label) {
    server_config config;  // paper plant
    config.monitor.enabled = options.monitored;
    server_simulator sim(config);
    if (campaign != nullptr) {
        sim.bind_fault_schedule(*campaign);
    }
    core::failsafe_controller controller(std::make_unique<core::bang_bang_controller>());
    const workload::utilization_profile profile =
        options.fault_class == campaign_class::lying_sensor ||
                options.fault_class == campaign_class::drifting_sensor
            ? sustained_profile(options.duration_s)
            : sweep_profile(options.duration_s);
    leg_outcome out;
    out.metrics = core::run_controlled(sim, controller, profile);
    out.metrics.controller_name = label;
    const trace_view trace = sim.trace();
    out.max_die_c = std::max(trace.cpu0_temp().max(), trace.cpu1_temp().max());
    out.detection = compute_detection_summary(trace, campaign);
    return out;
}

}  // namespace

const char* to_string(campaign_class c) {
    switch (c) {
        case campaign_class::survivable: return "survivable";
        case campaign_class::lying_sensor: return "lying_sensor";
        case campaign_class::correlated: return "correlated";
        case campaign_class::drifting_sensor: return "drifting_sensor";
    }
    return "unknown";
}

fault_campaign_result run_fault_campaign(std::uint64_t campaign_seed,
                                         const fault_campaign_options& options) {
    util::ensure(options.duration_s > 0.0, "run_fault_campaign: non-positive duration");
    fault_campaign_config generator;
    generator.duration_s = options.duration_s;

    fault_campaign_result result;
    result.fault_class = options.fault_class;
    result.monitored = options.monitored;
    switch (options.fault_class) {
        case campaign_class::survivable:
            result.schedule = make_random_campaign(campaign_seed, generator);
            break;
        case campaign_class::lying_sensor:
            result.schedule = make_lying_sensor_campaign(campaign_seed, generator);
            break;
        case campaign_class::correlated:
            // Rack-level PSU events: groups of pairs at once, so the
            // concurrency cap opens to "one pair must survive".
            generator.correlated_fan_events = true;
            generator.max_concurrent_fan_faults = generator.fan_pairs - 1;
            result.schedule = make_random_campaign(campaign_seed, generator);
            break;
        case campaign_class::drifting_sensor:
            result.schedule = make_drifting_sensor_campaign(campaign_seed, generator);
            break;
    }
    for (const fault_event& event : result.schedule.events()) {
        result.fan_fault = result.fan_fault || event.kind == fault_kind::fan_failure ||
                           event.kind == fault_kind::fan_stuck_pwm ||
                           event.kind == fault_kind::fan_tach_stuck;
    }

    leg_outcome healthy = run_leg(options, nullptr, "Healthy");
    leg_outcome faulted = run_leg(options, &result.schedule, "Faulted");
    result.healthy = std::move(healthy.metrics);
    result.healthy_max_die_c = healthy.max_die_c;
    result.healthy_detection = healthy.detection;
    result.faulted = std::move(faulted.metrics);
    result.faulted_max_die_c = faulted.max_die_c;
    result.faulted_detection = faulted.detection;
    util::ensure(result.healthy.energy_kwh > 0.0, "run_fault_campaign: zero healthy energy");
    result.energy_ratio = result.faulted.energy_kwh / result.healthy.energy_kwh;
    return result;
}

std::optional<std::string> campaign_violation(const fault_campaign_result& result,
                                              const fault_campaign_limits& limits) {
    double envelope = result.fan_fault ? limits.fan_fault_envelope_c : limits.envelope_c;
    double energy_cap = limits.max_energy_ratio;
    const char* cap_name = result.fan_fault ? "fan-fault" : "no-fan-fault";
    if (result.fault_class == campaign_class::lying_sensor) {
        envelope = limits.lying_sensor_envelope_c;
        cap_name = "lying-sensor";
    } else if (result.fault_class == campaign_class::drifting_sensor) {
        envelope = limits.drifting_sensor_envelope_c;
        cap_name = "drifting-sensor";
    } else if (result.fault_class == campaign_class::correlated && result.fan_fault) {
        envelope = limits.correlated_envelope_c;
        energy_cap = limits.correlated_max_energy_ratio;
        cap_name = "correlated";
    }
    std::ostringstream msg;
    if (result.faulted_max_die_c > envelope) {
        msg << "thermal envelope exceeded: max true die temp " << result.faulted_max_die_c
            << " degC > " << envelope << " degC (" << cap_name << " cap)";
        return msg.str();
    }
    if (result.energy_ratio > energy_cap) {
        msg << "energy regret exceeded: faulted/healthy ratio " << result.energy_ratio << " > "
            << energy_cap;
        return msg.str();
    }
    return std::nullopt;
}

}  // namespace ltsc::sim
