#include "sim/metrics.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"

namespace ltsc::sim {

run_metrics compute_metrics(const trace_view& tr, std::size_t fan_changes,
                            std::string test_name, std::string controller_name) {
    util::ensure(tr.size() >= 2, "compute_metrics: trace too short");
    run_metrics m;
    m.test_name = std::move(test_name);
    m.controller_name = std::move(controller_name);
    m.duration_s = tr.total_power().duration();
    m.energy_kwh = util::to_kwh(util::joules_t{tr.total_power().integrate()});
    m.peak_power_w = tr.total_power().max();
    m.max_temp_c = tr.max_sensor_temp().max();
    m.fan_changes = fan_changes;
    m.avg_rpm = tr.avg_fan_rpm().mean();
    m.avg_cpu_temp_c = tr.avg_cpu_temp().mean();
    return m;
}

run_metrics compute_metrics(const server_simulator& sim, std::string test_name,
                            std::string controller_name) {
    return compute_metrics(sim.trace(), sim.fan_change_count(), std::move(test_name),
                           std::move(controller_name));
}

run_metrics compute_metrics(const server_batch& batch, std::size_t lane, std::string test_name,
                            std::string controller_name) {
    return compute_metrics(batch.trace(lane), batch.fan_change_count(lane), std::move(test_name),
                           std::move(controller_name));
}

detection_summary compute_detection_summary(const trace_view& tr,
                                            const fault_schedule* schedule) {
    detection_summary out;
    const util::column_view sensor_health = tr.monitor_sensor_health();
    const util::column_view fan_health = tr.monitor_fan_health();
    out.samples = tr.size();
    for (std::size_t i = 0; i < tr.size(); ++i) {
        const bool sensor_alarm = sensor_health.v(i) >= 1.0;
        const bool fan_alarm = fan_health.v(i) >= 1.0;
        if (sensor_alarm) {
            ++out.sensor_alarm_steps;
            if (out.first_sensor_alarm_s < 0.0) {
                out.first_sensor_alarm_s = sensor_health.t(i);
            }
        }
        if (fan_alarm) {
            ++out.fan_alarm_steps;
            if (out.first_fan_alarm_s < 0.0) {
                out.first_fan_alarm_s = fan_health.t(i);
            }
        }
        if (sensor_alarm || fan_alarm) {
            ++out.alarm_steps;
        }
    }
    if (schedule == nullptr || schedule->empty() || tr.empty()) {
        return out;
    }

    // Attribute alarms to onsets: scan the matching health channel from
    // the onset to the component's recovery (or the trace end) for the
    // first suspect-or-worse verdict.  The channels are worst-over-
    // components, so overlapping faults of one class share alarms — fine
    // for a summary whose job is latency percentiles, not diagnosis.
    const std::vector<fault_event>& events = schedule->events();
    double total_latency = 0.0;
    double total_drift_latency = 0.0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const fault_event& e = events[i];
        const bool fan_onset = e.kind == fault_kind::fan_failure ||
                               e.kind == fault_kind::fan_stuck_pwm ||
                               e.kind == fault_kind::fan_tach_stuck;
        const bool sensor_onset = e.kind == fault_kind::sensor_stuck ||
                                  e.kind == fault_kind::sensor_bias ||
                                  e.kind == fault_kind::sensor_dropout ||
                                  e.kind == fault_kind::sensor_drift ||
                                  e.kind == fault_kind::sensor_intermittent;
        if (!fan_onset && !sensor_onset) {
            continue;
        }
        double until = sensor_health.t(tr.size() - 1);
        if (e.kind == fault_kind::sensor_dropout || e.kind == fault_kind::sensor_intermittent) {
            until = std::min(until, e.t_s + e.duration_s);
        } else {
            const fault_kind recover_kind =
                fan_onset ? fault_kind::fan_recover : fault_kind::sensor_recover;
            for (std::size_t j = i + 1; j < events.size(); ++j) {
                if (events[j].kind == recover_kind && events[j].target == e.target) {
                    until = std::min(until, events[j].t_s);
                    break;
                }
            }
        }
        ++out.fault_onsets;
        const bool drift = e.kind == fault_kind::sensor_drift;
        if (drift) {
            ++out.drift_onsets;
        }
        const util::column_view& channel = fan_onset ? fan_health : sensor_health;
        for (std::size_t k = 0; k < tr.size(); ++k) {
            const double t = channel.t(k);
            if (t < e.t_s || t > until + 1e-9) {
                continue;
            }
            if (channel.v(k) >= 1.0) {
                const double latency = t - e.t_s;
                ++out.detected;
                total_latency += latency;
                out.max_time_to_detect_s = std::max(out.max_time_to_detect_s, latency);
                if (drift) {
                    ++out.drift_detected;
                    total_drift_latency += latency;
                    out.max_drift_time_to_detect_s =
                        std::max(out.max_drift_time_to_detect_s, latency);
                }
                break;
            }
        }
    }
    if (out.detected > 0) {
        out.mean_time_to_detect_s = total_latency / static_cast<double>(out.detected);
    }
    if (out.drift_detected > 0) {
        out.mean_drift_time_to_detect_s =
            total_drift_latency / static_cast<double>(out.drift_detected);
    }
    return out;
}

double net_savings(const run_metrics& candidate, const run_metrics& baseline,
                   util::watts_t idle_power) {
    util::ensure(idle_power.value() >= 0.0, "net_savings: negative idle power");
    const double idle_kwh =
        util::to_kwh(idle_power * util::seconds_t{baseline.duration_s});
    const double base_net = baseline.energy_kwh - idle_kwh;
    util::ensure(base_net > 0.0, "net_savings: baseline net energy not positive");
    const double cand_net = candidate.energy_kwh - idle_kwh;
    return (base_net - cand_net) / base_net;
}

}  // namespace ltsc::sim
