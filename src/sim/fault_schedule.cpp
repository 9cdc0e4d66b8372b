#include "sim/fault_schedule.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "thermal/sensors.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ltsc::sim {

namespace {

// Dedicated stream constant for campaign generation, distinct from the
// plants' sensor-noise stream so a campaign seed can never correlate
// with a plant seed.
constexpr std::uint64_t k_campaign_stream = 0x9e3779b97f4a7c15ULL;

// Shortest degradation window the generators will emit.  A drawn span
// below this (possible only with sub-10 s outage caps) would put an
// onset and its recover on the same tick, which the schedule
// constructor rightly rejects; flooring the span keeps tiny-cap
// configs generating valid campaigns.  Defaults draw spans >= 10 s, so
// the floor is bitwise-invisible to every calibrated campaign.
constexpr double k_min_fault_span_s = 1e-3;

// Fan pairs one correlated (PSU-rail) event takes down at most.
constexpr std::size_t k_max_correlated_pairs = 2;

bool takes_nan_value(fault_kind kind) {
    return kind == fault_kind::fan_stuck_pwm || kind == fault_kind::sensor_stuck;
}

bool is_fan_kind(fault_kind kind) {
    return kind == fault_kind::fan_failure || kind == fault_kind::fan_stuck_pwm ||
           kind == fault_kind::fan_tach_stuck || kind == fault_kind::fan_recover;
}

bool is_sensor_kind(fault_kind kind) {
    return kind == fault_kind::sensor_stuck || kind == fault_kind::sensor_bias ||
           kind == fault_kind::sensor_dropout || kind == fault_kind::sensor_drift ||
           kind == fault_kind::sensor_intermittent || kind == fault_kind::sensor_recover;
}

}  // namespace

const char* to_string(fault_kind kind) {
    switch (kind) {
        case fault_kind::fan_failure: return "fan_failure";
        case fault_kind::fan_stuck_pwm: return "fan_stuck_pwm";
        case fault_kind::fan_recover: return "fan_recover";
        case fault_kind::sensor_stuck: return "sensor_stuck";
        case fault_kind::sensor_bias: return "sensor_bias";
        case fault_kind::sensor_dropout: return "sensor_dropout";
        case fault_kind::sensor_recover: return "sensor_recover";
        case fault_kind::telemetry_loss: return "telemetry_loss";
        case fault_kind::fan_tach_stuck: return "fan_tach_stuck";
        case fault_kind::sensor_drift: return "sensor_drift";
        case fault_kind::sensor_intermittent: return "sensor_intermittent";
    }
    return "unknown";
}

fault_schedule::fault_schedule(std::vector<fault_event> events) : events_(std::move(events)) {
    for (const fault_event& e : events_) {
        util::ensure(std::isfinite(e.t_s) && e.t_s >= 0.0,
                     "fault_schedule: event time must be finite and non-negative");
        util::ensure(std::isfinite(e.duration_s) && e.duration_s >= 0.0,
                     "fault_schedule: event duration must be finite and non-negative");
        util::ensure(std::isfinite(e.value) || takes_nan_value(e.kind),
                     "fault_schedule: non-finite event value (NaN is only the "
                     "'at current' convention for the stuck kinds)");
    }
    std::stable_sort(events_.begin(), events_.end(),
                     [](const fault_event& a, const fault_event& b) { return a.t_s < b.t_s; });

    // Coherence: a recover must have an outstanding fault to clear, and
    // no two events may land on one component at the same tick (their
    // firing order would be decided by the tie-break, silently).
    std::vector<char> fan_latched(events_.empty() ? 0 : max_fan_target() + 1, 0);
    std::vector<char> sensor_latched(events_.empty() ? 0 : max_sensor_target() + 1, 0);
    std::vector<double> sensor_dropout_until(sensor_latched.size(), 0.0);
    for (std::size_t i = 0; i < events_.size(); ++i) {
        const fault_event& e = events_[i];
        for (std::size_t j = i + 1;
             j < events_.size() && events_[j].t_s - e.t_s < 1e-9; ++j) {
            const fault_event& o = events_[j];
            const bool same_fan =
                is_fan_kind(e.kind) && is_fan_kind(o.kind) && e.target == o.target;
            const bool same_sensor =
                is_sensor_kind(e.kind) && is_sensor_kind(o.kind) && e.target == o.target;
            const bool same_telemetry = e.kind == fault_kind::telemetry_loss &&
                                        o.kind == fault_kind::telemetry_loss;
            util::ensure(!same_fan && !same_sensor && !same_telemetry,
                         "fault_schedule: two same-tick events on one component");
        }
        switch (e.kind) {
            case fault_kind::fan_failure:
            case fault_kind::fan_stuck_pwm:
            case fault_kind::fan_tach_stuck:
                fan_latched[e.target] = 1;
                break;
            case fault_kind::fan_recover:
                util::ensure(fan_latched[e.target] != 0,
                             "fault_schedule: fan_recover without an outstanding fan fault");
                fan_latched[e.target] = 0;
                break;
            case fault_kind::sensor_stuck:
            case fault_kind::sensor_bias:
            case fault_kind::sensor_drift:
                sensor_latched[e.target] = 1;
                break;
            case fault_kind::sensor_dropout:
            case fault_kind::sensor_intermittent:
                sensor_dropout_until[e.target] =
                    std::max(sensor_dropout_until[e.target], e.t_s + e.duration_s);
                break;
            case fault_kind::sensor_recover:
                util::ensure(sensor_latched[e.target] != 0 ||
                                 e.t_s < sensor_dropout_until[e.target] - 1e-9,
                             "fault_schedule: sensor_recover without an outstanding "
                             "sensor fault");
                sensor_latched[e.target] = 0;
                sensor_dropout_until[e.target] = 0.0;
                break;
            case fault_kind::telemetry_loss:
                break;
        }
    }
}

std::size_t fault_schedule::max_fan_target() const {
    std::size_t out = 0;
    for (const fault_event& e : events_) {
        if (is_fan_kind(e.kind)) {
            out = std::max(out, e.target);
        }
    }
    return out;
}

std::size_t fault_schedule::max_sensor_target() const {
    std::size_t out = 0;
    for (const fault_event& e : events_) {
        if (is_sensor_kind(e.kind)) {
            out = std::max(out, e.target);
        }
    }
    return out;
}

fault_schedule make_random_campaign(std::uint64_t seed, const fault_campaign_config& config) {
    util::ensure(config.duration_s > 0.0, "make_random_campaign: non-positive duration");
    util::ensure(config.fan_pairs >= 1, "make_random_campaign: need at least one fan pair");
    util::ensure(config.max_faults >= 1, "make_random_campaign: need at least one fault");
    util::ensure(config.min_fan_outage_s > 0.0 &&
                     config.max_fan_outage_s >= config.min_fan_outage_s,
                 "make_random_campaign: bad fan outage bounds");
    util::ensure(config.max_sensor_outage_s > 0.0,
                 "make_random_campaign: bad sensor outage bound");
    util::ensure(config.max_telemetry_loss_s > 0.0,
                 "make_random_campaign: bad telemetry loss bound");
    util::ensure(config.max_concurrent_fan_faults >= 1 &&
                     config.max_concurrent_fan_faults < config.fan_pairs,
                 "make_random_campaign: concurrent fan faults must leave a healthy pair");
    util::ensure(config.correlated_probability >= 0.0 && config.correlated_probability <= 1.0,
                 "make_random_campaign: correlated probability out of [0, 1]");

    util::pcg32 rng(seed, k_campaign_stream);
    std::vector<fault_event> events;

    // Walk onsets forward so the generator never has to back-patch: an
    // effect's busy-until window is known the moment it is drawn, and
    // eligibility at each later onset is a plain comparison.
    std::vector<double> fan_busy_until(config.fan_pairs, 0.0);
    std::vector<double> sensor_busy_until(thermal::k_cpu_sensors, 0.0);
    double telemetry_busy_until = 0.0;

    const double mean_gap = config.duration_s / static_cast<double>(config.max_faults + 1);
    double t = 0.0;
    for (std::size_t i = 0; i < config.max_faults; ++i) {
        t += rng.uniform(0.5 * mean_gap, 1.5 * mean_gap);
        if (t >= config.duration_s) {
            break;
        }

        // Class selection draws run unconditionally so the stream layout
        // stays simple; an ineligible class just skips this onset.  Fan,
        // sensor and telemetry faults share the class draw in thirds.
        const double class_draw = rng.next_double();
        const double sub_draw = rng.next_double();
        const std::size_t target_draw = rng.next_u32();
        const double span_draw = rng.next_double();
        const double value_draw = rng.next_double();
        // The correlated draw only exists when the feature is on, so the
        // default stream stays bitwise-identical to earlier revisions.
        const double corr_draw =
            config.correlated_fan_events ? rng.next_double() : 1.0;

        const double pick = class_draw * 3.0;

        if (pick < 1.0) {
            std::size_t active = 0;
            std::vector<std::size_t> eligible;
            for (std::size_t p = 0; p < config.fan_pairs; ++p) {
                if (fan_busy_until[p] > t) {
                    ++active;
                } else {
                    eligible.push_back(p);
                }
            }
            if (eligible.empty() || active >= config.max_concurrent_fan_faults) {
                continue;
            }
            const double outage = std::max(
                config.min_fan_outage_s +
                    span_draw * (config.max_fan_outage_s - config.min_fan_outage_s),
                k_min_fault_span_s);
            const double recover_at = t + outage;
            if (config.correlated_fan_events && corr_draw < config.correlated_probability) {
                // One PSU rail drops a whole group of pairs at the same
                // instant; they recover together when the rail returns.
                std::size_t group = std::min(k_max_correlated_pairs, eligible.size());
                group = std::min(group, config.max_concurrent_fan_faults - active);
                group = std::max<std::size_t>(group, 1);
                const std::size_t start = target_draw % eligible.size();
                for (std::size_t g = 0; g < group; ++g) {
                    const std::size_t pair = eligible[(start + g) % eligible.size()];
                    events.push_back({t, fault_kind::fan_failure, pair, 0.0, 0.0});
                    if (recover_at < config.duration_s) {
                        events.push_back(
                            {recover_at, fault_kind::fan_recover, pair, 0.0, 0.0});
                        fan_busy_until[pair] = recover_at;
                    } else {
                        fan_busy_until[pair] = config.duration_s;
                    }
                }
                continue;
            }
            const std::size_t pair = eligible[target_draw % eligible.size()];
            fault_event onset;
            onset.t_s = t;
            onset.target = pair;
            if (sub_draw < 0.5) {
                onset.kind = fault_kind::fan_failure;
            } else {
                onset.kind = fault_kind::fan_stuck_pwm;
                onset.value = std::numeric_limits<double>::quiet_NaN();  // stick at current
            }
            events.push_back(onset);
            if (recover_at < config.duration_s) {
                events.push_back({recover_at, fault_kind::fan_recover, pair, 0.0, 0.0});
                fan_busy_until[pair] = recover_at;
            } else {
                fan_busy_until[pair] = config.duration_s;  // persists to the end
            }
        } else if (pick < 2.0) {
            // A die's sensors are 2s and 2s+1: faulting one requires its
            // partner healthy so every die keeps a truthful reading.
            std::vector<std::size_t> eligible;
            for (std::size_t s = 0; s < thermal::k_cpu_sensors; ++s) {
                const bool partner_busy = sensor_busy_until[s ^ 1U] > t;
                if (sensor_busy_until[s] <= t && !partner_busy) {
                    eligible.push_back(s);
                }
            }
            if (eligible.empty()) {
                continue;
            }
            const std::size_t sensor = eligible[target_draw % eligible.size()];
            // The 10 s preferred minimum must yield to a smaller cap:
            // the un-clamped form quietly drew spans *above*
            // max_sensor_outage_s whenever the cap sat below 10 s.
            const double lo = std::min(10.0, config.max_sensor_outage_s);
            const double span = std::max(
                lo + span_draw * (config.max_sensor_outage_s - lo), k_min_fault_span_s);
            fault_event onset;
            onset.t_s = t;
            onset.target = sensor;
            bool needs_recover = true;
            if (sub_draw < 1.0 / 3.0) {
                onset.kind = fault_kind::sensor_stuck;
                onset.value = std::numeric_limits<double>::quiet_NaN();  // freeze at current
            } else if (sub_draw < 2.0 / 3.0) {
                onset.kind = fault_kind::sensor_bias;
                onset.value = value_draw * k_max_sensor_bias_c;
            } else {
                onset.kind = fault_kind::sensor_dropout;
                onset.duration_s = span;
                needs_recover = false;  // dropout self-expires
            }
            events.push_back(onset);
            const double recover_at = t + span;
            if (needs_recover && recover_at < config.duration_s) {
                events.push_back({recover_at, fault_kind::sensor_recover, sensor, 0.0, 0.0});
                sensor_busy_until[sensor] = recover_at;
            } else {
                sensor_busy_until[sensor] = std::min(recover_at, config.duration_s);
            }
        } else {
            if (telemetry_busy_until > t) {
                continue;
            }
            const double lo = std::min(10.0, config.max_telemetry_loss_s);
            const double span = std::max(
                lo + span_draw * (config.max_telemetry_loss_s - lo), k_min_fault_span_s);
            events.push_back({t, fault_kind::telemetry_loss, 0, 0.0, span});
            telemetry_busy_until = t + span;
        }
    }
    return fault_schedule(std::move(events));
}

fault_schedule make_lying_sensor_campaign(std::uint64_t seed,
                                          const fault_campaign_config& config) {
    util::ensure(config.duration_s > 0.0, "make_lying_sensor_campaign: non-positive duration");

    util::pcg32 rng(seed, k_campaign_stream);
    const double onset = rng.uniform(0.15, 0.4) * config.duration_s;
    const double span = rng.uniform(0.35, 0.6) * config.duration_s;
    const double magnitude = rng.uniform(12.0, 25.0);
    constexpr std::size_t dies = thermal::k_cpu_sensors / 2;
    // Scope: one whole die's sensor complement, or every sensor — in
    // both cases no truthful reading survives on the lied-about die(s).
    const std::size_t scope = rng.next_u32() % (dies + 1);

    std::vector<fault_event> events;
    const double recover_at = onset + span;
    for (std::size_t s = 0; s < thermal::k_cpu_sensors; ++s) {
        if (scope < dies && s / 2 != scope) {
            continue;
        }
        events.push_back({onset, fault_kind::sensor_bias, s, -magnitude, 0.0});
        if (recover_at < config.duration_s) {
            events.push_back({recover_at, fault_kind::sensor_recover, s, 0.0, 0.0});
        }
    }
    return fault_schedule(std::move(events));
}

fault_schedule make_drifting_sensor_campaign(std::uint64_t seed,
                                             const fault_campaign_config& config) {
    util::ensure(config.duration_s > 0.0, "make_drifting_sensor_campaign: non-positive duration");

    util::pcg32 rng(seed, k_campaign_stream);
    // Drawn unconditionally in a fixed order so the stream layout never
    // depends on earlier draws (same discipline as the other
    // generators: bitwise replay from the seed alone).
    const double onset = rng.uniform(0.15, 0.35) * config.duration_s;
    const double span = rng.uniform(0.3, 0.5) * config.duration_s;
    // Always at or above the 0.02 degC/s floor the detection sweep
    // asserts 95% onset coverage over; negative = lying cool, the
    // direction that hides a real excursion.
    const double rate = rng.uniform(0.02, 0.1);
    constexpr std::size_t dies = thermal::k_cpu_sensors / 2;
    // Scope: one die's whole sensor complement, or every sensor — no
    // truthful partner survives on a drifting die either way.
    const std::size_t scope = rng.next_u32() % (dies + 1);
    const double intermittent_draw = rng.next_double();
    const double intermittent_bias = rng.uniform(4.0, 8.0);
    const double intermittent_start_frac = rng.uniform(0.45, 0.6);
    const double intermittent_span_frac = rng.uniform(0.15, 0.25);

    std::vector<fault_event> events;
    const double recover_at = onset + span;
    for (std::size_t s = 0; s < thermal::k_cpu_sensors; ++s) {
        if (scope < dies && s / 2 != scope) {
            continue;
        }
        events.push_back({onset, fault_kind::sensor_drift, s, -rate, 0.0});
        if (recover_at < config.duration_s) {
            events.push_back({recover_at, fault_kind::sensor_recover, s, 0.0, 0.0});
        }
    }
    // When the drift spares a die, half the campaigns add a cool-lying
    // burst episode there: sub-threshold per-streak, so consecutive-poll
    // hysteresis alone never latches — accumulation has to.
    if (scope < dies && intermittent_draw < 0.5) {
        const std::size_t burst_die = (scope + 1) % dies;
        const double burst_at = intermittent_start_frac * config.duration_s;
        const double burst_span = intermittent_span_frac * config.duration_s;
        for (std::size_t s = 2 * burst_die; s < 2 * burst_die + 2; ++s) {
            events.push_back(
                {burst_at, fault_kind::sensor_intermittent, s, -intermittent_bias, burst_span});
        }
    }
    return fault_schedule(std::move(events));
}

void fault_state::reset(std::size_t fan_pairs, std::size_t cpu_sensors) {
    next_event = 0;
    fan_mode.assign(fan_pairs, fan_ok);
    fan_commanded_rpm.assign(fan_pairs, 0.0);
    sensor_stuck.assign(cpu_sensors, 0);
    sensor_stuck_c.assign(cpu_sensors, 0.0);
    sensor_bias_c.assign(cpu_sensors, 0.0);
    sensor_dropout_until_s.assign(cpu_sensors, 0.0);
    sensor_drift_c_per_s.assign(cpu_sensors, 0.0);
    sensor_drift_start_s.assign(cpu_sensors, 0.0);
    sensor_intermittent_c.assign(cpu_sensors, 0.0);
    sensor_intermittent_start_s.assign(cpu_sensors, 0.0);
    sensor_intermittent_until_s.assign(cpu_sensors, 0.0);
    telemetry_lost_until_s = 0.0;
}

bool fault_state::any_fan_fault() const {
    for (unsigned char m : fan_mode) {
        if (m != fan_ok) {
            return true;
        }
    }
    return false;
}

bool fault_state::sensor_faulted(std::size_t sensor, double now_s) const {
    return sensor_stuck[sensor] != 0 || sensor_bias_c[sensor] != 0.0 ||
           now_s < sensor_dropout_until_s[sensor] - 1e-9 ||
           sensor_drift_c_per_s[sensor] != 0.0 ||
           now_s < sensor_intermittent_until_s[sensor] - 1e-9;
}

bool fault_state::intermittent_burst_live(std::size_t sensor, double now_s) const {
    if (sensor_intermittent_c[sensor] == 0.0 ||
        now_s >= sensor_intermittent_until_s[sensor] - 1e-9) {
        return false;
    }
    const double phase =
        std::fmod(now_s - sensor_intermittent_start_s[sensor], k_intermittent_period_s);
    return phase < k_intermittent_duty * k_intermittent_period_s;
}

bool fault_state::any_sensor_fault(double now_s) const {
    for (std::size_t s = 0; s < sensor_stuck.size(); ++s) {
        if (sensor_faulted(s, now_s)) {
            return true;
        }
    }
    return false;
}

bool fault_state::any_active(double now_s) const {
    return any_fan_fault() || any_sensor_fault(now_s) || telemetry_lost(now_s);
}

}  // namespace ltsc::sim
