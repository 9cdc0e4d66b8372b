// Chaos-sweep invariants over randomized fault campaigns.
//
// These are the CI-sized versions of the bench/fault_campaign gate: a
// hundred seeded campaigns — each a healthy/faulted twin pair under
// Failsafe(Bang) — must keep the *true* die temperatures inside the
// calibrated envelope and the energy regret bounded, and any single
// campaign must replay bitwise from its seed, both across repeated runs
// and across parallel_runner thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/fault_campaign.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/parallel_runner.hpp"

namespace {

using namespace ltsc;

void expect_detection_equal(const sim::detection_summary& a, const sim::detection_summary& b) {
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.alarm_steps, b.alarm_steps);
    EXPECT_EQ(a.sensor_alarm_steps, b.sensor_alarm_steps);
    EXPECT_EQ(a.fan_alarm_steps, b.fan_alarm_steps);
    EXPECT_EQ(a.first_sensor_alarm_s, b.first_sensor_alarm_s);
    EXPECT_EQ(a.first_fan_alarm_s, b.first_fan_alarm_s);
    EXPECT_EQ(a.fault_onsets, b.fault_onsets);
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.mean_time_to_detect_s, b.mean_time_to_detect_s);
    EXPECT_EQ(a.max_time_to_detect_s, b.max_time_to_detect_s);
    EXPECT_EQ(a.drift_onsets, b.drift_onsets);
    EXPECT_EQ(a.drift_detected, b.drift_detected);
    EXPECT_EQ(a.mean_drift_time_to_detect_s, b.mean_drift_time_to_detect_s);
    EXPECT_EQ(a.max_drift_time_to_detect_s, b.max_drift_time_to_detect_s);
}

void expect_results_bitwise_equal(const sim::fault_campaign_result& a,
                                  const sim::fault_campaign_result& b) {
    ASSERT_EQ(a.schedule.size(), b.schedule.size());
    for (std::size_t e = 0; e < a.schedule.size(); ++e) {
        const sim::fault_event& ea = a.schedule.events()[e];
        const sim::fault_event& eb = b.schedule.events()[e];
        EXPECT_EQ(ea.t_s, eb.t_s) << "event " << e;
        EXPECT_EQ(ea.kind, eb.kind) << "event " << e;
        EXPECT_EQ(ea.target, eb.target) << "event " << e;
        // `value` uses NaN as the "at current" sentinel; NaN must match NaN.
        if (std::isnan(ea.value) || std::isnan(eb.value)) {
            EXPECT_TRUE(std::isnan(ea.value) && std::isnan(eb.value)) << "event " << e;
        } else {
            EXPECT_EQ(ea.value, eb.value) << "event " << e;
        }
        EXPECT_EQ(ea.duration_s, eb.duration_s) << "event " << e;
    }
    EXPECT_EQ(a.healthy.energy_kwh, b.healthy.energy_kwh);
    EXPECT_EQ(a.healthy.peak_power_w, b.healthy.peak_power_w);
    EXPECT_EQ(a.healthy.max_temp_c, b.healthy.max_temp_c);
    EXPECT_EQ(a.healthy.fan_changes, b.healthy.fan_changes);
    EXPECT_EQ(a.healthy.avg_rpm, b.healthy.avg_rpm);
    EXPECT_EQ(a.healthy.avg_cpu_temp_c, b.healthy.avg_cpu_temp_c);
    EXPECT_EQ(a.faulted.energy_kwh, b.faulted.energy_kwh);
    EXPECT_EQ(a.faulted.peak_power_w, b.faulted.peak_power_w);
    EXPECT_EQ(a.faulted.max_temp_c, b.faulted.max_temp_c);
    EXPECT_EQ(a.faulted.fan_changes, b.faulted.fan_changes);
    EXPECT_EQ(a.faulted.avg_rpm, b.faulted.avg_rpm);
    EXPECT_EQ(a.faulted.avg_cpu_temp_c, b.faulted.avg_cpu_temp_c);
    EXPECT_EQ(a.healthy_max_die_c, b.healthy_max_die_c);
    EXPECT_EQ(a.faulted_max_die_c, b.faulted_max_die_c);
    EXPECT_EQ(a.energy_ratio, b.energy_ratio);
    EXPECT_EQ(a.fan_fault, b.fan_fault);
    EXPECT_EQ(a.fault_class, b.fault_class);
    EXPECT_EQ(a.monitored, b.monitored);
    expect_detection_equal(a.healthy_detection, b.healthy_detection);
    expect_detection_equal(a.faulted_detection, b.faulted_detection);
}

std::vector<sim::fault_campaign_result> sweep(std::uint64_t base_seed, std::size_t campaigns,
                                              std::size_t threads) {
    sim::parallel_runner runner(threads);
    return runner.map<sim::fault_campaign_result>(campaigns, [&](std::size_t i) {
        return sim::run_fault_campaign(base_seed + static_cast<std::uint64_t>(i));
    });
}

TEST(FaultCampaign, EnvelopeHoldsAcrossHundredRandomCampaigns) {
    // The headline chaos invariant: over 100 randomized survivable
    // campaigns the controller keeps every true die temperature inside
    // the calibrated envelope and the energy regret bounded.  Any
    // violation prints the campaign's full verdict string.
    const std::vector<sim::fault_campaign_result> results = sweep(1, 100, 0);
    const sim::fault_campaign_limits limits;
    std::size_t fan_fault_campaigns = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto violation = sim::campaign_violation(results[i], limits);
        EXPECT_FALSE(violation.has_value())
            << "campaign seed " << (1 + i) << ": " << violation.value_or("");
        if (results[i].fan_fault) {
            ++fan_fault_campaigns;
        }
        // Regret must be a real ratio: the faulted twin ran to completion
        // and consumed at least as much energy as a sane run does.
        EXPECT_GT(results[i].energy_ratio, 0.5) << "campaign seed " << (1 + i);
        EXPECT_GT(results[i].schedule.size(), 0U) << "campaign seed " << (1 + i);
    }
    // The sweep must actually exercise the hard (fan-failure) class, not
    // just sensor glitches — otherwise the wider envelope is untested.
    EXPECT_GE(fan_fault_campaigns, 10U);
    EXPECT_LE(fan_fault_campaigns, 90U);
}

TEST(FaultCampaign, CampaignReplaysBitwiseAcrossRuns) {
    const sim::fault_campaign_result first = sim::run_fault_campaign(42);
    const sim::fault_campaign_result second = sim::run_fault_campaign(42);
    expect_results_bitwise_equal(first, second);
    // Sanity on the twin structure: the healthy leg is fault-free, so
    // its max die temp sits in the bang-bang band, strictly cooler than
    // any envelope cap.
    EXPECT_LT(first.healthy_max_die_c, sim::fault_campaign_limits{}.envelope_c);
}

TEST(FaultCampaign, SweepIsBitwiseAcrossThreadCounts) {
    // The chaos gate runs under parallel_runner; campaign outcomes must
    // not depend on how lanes land on workers.  Single-threaded is the
    // ground truth.
    const std::vector<sim::fault_campaign_result> serial = sweep(300, 12, 1);
    const std::vector<sim::fault_campaign_result> wide = sweep(300, 12, 4);
    ASSERT_EQ(serial.size(), wide.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("campaign seed " + std::to_string(300 + i));
        expect_results_bitwise_equal(serial[i], wide[i]);
    }
}

TEST(FaultCampaign, DistinctSeedsProduceDistinctCampaigns) {
    // The generator must actually randomize: two adjacent seeds may
    // rarely collide on one field, but not on the whole schedule.
    const sim::fault_campaign_result a = sim::run_fault_campaign(7);
    const sim::fault_campaign_result b = sim::run_fault_campaign(8);
    bool differ = a.schedule.size() != b.schedule.size();
    for (std::size_t e = 0; !differ && e < a.schedule.size(); ++e) {
        const sim::fault_event& ea = a.schedule.events()[e];
        const sim::fault_event& eb = b.schedule.events()[e];
        differ = ea.t_s != eb.t_s || ea.kind != eb.kind || ea.target != eb.target ||
                 ea.value != eb.value || ea.duration_s != eb.duration_s;
    }
    EXPECT_TRUE(differ);
}

TEST(FaultCampaign, LyingSensorClassIsContainedByTheMonitor) {
    // The headline mitigation gate, pinned both ways on one seed whose
    // campaign biases every sensor: judged with the monitor-backed
    // failsafe the excursion stays inside the (deliberately tight)
    // lying-sensor envelope; the identical campaign with the monitor off
    // breaches it.  If the monitor or the failsafe override regresses,
    // the first half fails; if the campaign stops being dangerous, the
    // second half does.
    sim::fault_campaign_options options;
    options.fault_class = sim::campaign_class::lying_sensor;
    options.monitored = true;
    const sim::fault_campaign_result mitigated = sim::run_fault_campaign(9, options);
    EXPECT_FALSE(sim::campaign_violation(mitigated).has_value())
        << sim::campaign_violation(mitigated).value_or("");
    // Detection did the work: every onset alarmed, and the healthy twin
    // stayed alarm-free (zero false positives).
    EXPECT_GT(mitigated.faulted_detection.fault_onsets, 0U);
    EXPECT_EQ(mitigated.faulted_detection.detected, mitigated.faulted_detection.fault_onsets);
    EXPECT_GT(mitigated.faulted_detection.mean_time_to_detect_s, 0.0);
    EXPECT_EQ(mitigated.healthy_detection.alarm_steps, 0U);

    options.monitored = false;
    const sim::fault_campaign_result blinded = sim::run_fault_campaign(9, options);
    EXPECT_TRUE(sim::campaign_violation(blinded).has_value());
    EXPECT_GT(blinded.faulted_max_die_c, mitigated.faulted_max_die_c + 2.0);
}

TEST(FaultCampaign, LyingSensorEnvelopeHoldsAcrossSeeds) {
    // CI-sized slice of the calibrated 1000-seed sweep.
    sim::fault_campaign_options options;
    options.fault_class = sim::campaign_class::lying_sensor;
    options.monitored = true;
    sim::parallel_runner runner(0);
    const auto results = runner.map<sim::fault_campaign_result>(25, [&](std::size_t i) {
        return sim::run_fault_campaign(1 + static_cast<std::uint64_t>(i), options);
    });
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto violation = sim::campaign_violation(results[i]);
        EXPECT_FALSE(violation.has_value())
            << "campaign seed " << (1 + i) << ": " << violation.value_or("");
        EXPECT_EQ(results[i].healthy_detection.alarm_steps, 0U) << "seed " << (1 + i);
    }
}

TEST(FaultCampaign, DriftingSensorClassIsContainedByTheMonitor) {
    // The CUSUM mitigation gate, pinned both ways on one seed (the
    // calibrated 1000-seed sweep's worst): judged with the monitor the
    // slow ramp is caught while the instantaneous error is still small
    // and the run stays inside the drifting-sensor envelope; the
    // identical campaign with the monitor off parks the fans at minimum
    // and breaches it.  If the CUSUM regresses, the first half fails;
    // if the class stops being dangerous, the second half does.
    sim::fault_campaign_options options;
    options.fault_class = sim::campaign_class::drifting_sensor;
    options.monitored = true;
    const sim::fault_campaign_result mitigated = sim::run_fault_campaign(9, options);
    EXPECT_FALSE(sim::campaign_violation(mitigated).has_value())
        << sim::campaign_violation(mitigated).value_or("");
    // The drift onsets are tracked separately and were all caught; the
    // healthy twin never alarmed (zero false positives, the CUSUM's k
    // allowance absorbs honest noise + placement offsets).
    EXPECT_GT(mitigated.faulted_detection.drift_onsets, 0U);
    EXPECT_EQ(mitigated.faulted_detection.drift_detected,
              mitigated.faulted_detection.drift_onsets);
    EXPECT_GT(mitigated.faulted_detection.mean_drift_time_to_detect_s, 0.0);
    EXPECT_GE(mitigated.faulted_detection.max_drift_time_to_detect_s,
              mitigated.faulted_detection.mean_drift_time_to_detect_s);
    EXPECT_EQ(mitigated.healthy_detection.alarm_steps, 0U);

    options.monitored = false;
    const sim::fault_campaign_result blinded = sim::run_fault_campaign(9, options);
    EXPECT_TRUE(sim::campaign_violation(blinded).has_value());
    EXPECT_GT(blinded.faulted_max_die_c, mitigated.faulted_max_die_c + 2.0);
}

TEST(FaultCampaign, DriftingSensorEnvelopeHoldsAcrossSeeds) {
    // CI-sized slice of the calibrated 1000-seed sweep (worst observed
    // 76.4 degC, 3290/3314 drift onsets caught, zero healthy false
    // alarms).  Beyond the per-seed envelope, assert the aggregate
    // detection-rate floor the class was calibrated to: at least 95 % of
    // drift onsets must alarm.
    sim::fault_campaign_options options;
    options.fault_class = sim::campaign_class::drifting_sensor;
    options.monitored = true;
    sim::parallel_runner runner(0);
    const auto results = runner.map<sim::fault_campaign_result>(25, [&](std::size_t i) {
        return sim::run_fault_campaign(1 + static_cast<std::uint64_t>(i), options);
    });
    std::size_t drift_onsets = 0;
    std::size_t drift_detected = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto violation = sim::campaign_violation(results[i]);
        EXPECT_FALSE(violation.has_value())
            << "campaign seed " << (1 + i) << ": " << violation.value_or("");
        EXPECT_EQ(results[i].healthy_detection.alarm_steps, 0U) << "seed " << (1 + i);
        drift_onsets += results[i].faulted_detection.drift_onsets;
        drift_detected += results[i].faulted_detection.drift_detected;
    }
    ASSERT_GT(drift_onsets, 0U);
    EXPECT_GE(static_cast<double>(drift_detected), 0.95 * static_cast<double>(drift_onsets));
}

TEST(FaultCampaign, CorrelatedClassDrawsGroupedFanFailures) {
    // The correlated generator must actually emit rack-level events
    // (several pairs failing on the same tick) somewhere across seeds,
    // and every schedule must pass the coherence validation (implied:
    // construction didn't throw).
    sim::fault_campaign_options options;
    options.fault_class = sim::campaign_class::correlated;
    bool grouped = false;
    for (std::uint64_t seed = 1; seed <= 40 && !grouped; ++seed) {
        const sim::fault_campaign_result r = sim::run_fault_campaign(seed, options);
        const auto& events = r.schedule.events();
        for (std::size_t i = 0; i + 1 < events.size(); ++i) {
            grouped = grouped || (events[i].kind == sim::fault_kind::fan_failure &&
                                  events[i + 1].kind == sim::fault_kind::fan_failure &&
                                  events[i + 1].t_s == events[i].t_s);
        }
    }
    EXPECT_TRUE(grouped);
}

TEST(FaultCampaign, CorrelatedClassReplaysBitwiseAcrossThreadCounts) {
    sim::fault_campaign_options options;
    options.fault_class = sim::campaign_class::correlated;
    options.monitored = true;  // exercise the detection fields too
    const auto sweep_class = [&](std::size_t threads) {
        sim::parallel_runner runner(threads);
        return runner.map<sim::fault_campaign_result>(8, [&](std::size_t i) {
            return sim::run_fault_campaign(500 + static_cast<std::uint64_t>(i), options);
        });
    };
    const auto serial = sweep_class(1);
    const auto wide = sweep_class(4);
    ASSERT_EQ(serial.size(), wide.size());
    const sim::fault_campaign_limits limits;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("campaign seed " + std::to_string(500 + i));
        expect_results_bitwise_equal(serial[i], wide[i]);
        const auto violation = sim::campaign_violation(serial[i], limits);
        EXPECT_FALSE(violation.has_value()) << violation.value_or("");
    }
}

/// One generator draw, pinned event by event: fire time, kind, target,
/// value and span, each compared bitwise (hex literals).
struct pinned_campaign {
    std::uint64_t seed = 0;
    std::vector<sim::fault_event> events;
};

using kind = sim::fault_kind;
constexpr double k_nan = std::numeric_limits<double>::quiet_NaN();

const std::vector<pinned_campaign> k_pinned_default = {
    {1,
     {
         {0x1.b8e3d7a7ddb6fp+6, kind::sensor_bias, 0, 0x1.3cedd858p+0, 0.0},
         {0x1.c1c3489386db8p+7, kind::sensor_recover, 0, 0.0, 0.0},
         {0x1.06211f682524ap+8, kind::telemetry_loss, 0, 0.0, 0x1.9413223p+3},
         {0x1.b42df4b47524bp+8, kind::fan_failure, 1, 0.0, 0.0},
         {0x1.3642981cd76ddp+9, kind::sensor_stuck, 1, k_nan, 0.0},
         {0x1.378d550a88926p+9, kind::fan_recover, 1, 0.0, 0.0},
         {0x1.50924bd3806ddp+9, kind::sensor_recover, 1, 0.0, 0.0},
         {0x1.8e609d29d0002p+9, kind::telemetry_loss, 0, 0.0, 0x1.53606f9p+5},
         {0x1.b7eeb0182e927p+9, kind::telemetry_loss, 0, 0.0, 0x1.05b9f89fcp+6},
     }},
    {2,
     {
         {0x1.8d63534c2db6fp+6, kind::telemetry_loss, 0, 0.0, 0x1.220ebbe78p+6},
         {0x1.617318aa02494p+7, kind::sensor_bias, 3, 0x1.9d0f0642p+1, 0.0},
         {0x1.172938b0cd24ap+8, kind::sensor_recover, 3, 0.0, 0.0},
         {0x1.64335fe9f0002p+8, kind::fan_stuck_pwm, 1, k_nan, 0.0},
         {0x1.b525bde490002p+8, kind::fan_recover, 1, 0.0, 0.0},
         {0x1.05c61f5aaa002p+9, kind::telemetry_loss, 0, 0.0, 0x1.ce4d1ad7p+4},
         {0x1.63c0680dc56dep+9, kind::telemetry_loss, 0, 0.0, 0x1.4f621bca8p+5},
     }},
    {5,
     {
         {0x1.71f2f4e47b6dcp+6, kind::fan_failure, 0, 0.0, 0.0},
         {0x1.4e143f82d5b6ep+7, kind::fan_recover, 0, 0.0, 0.0},
         {0x1.f868e7d7d2494p+7, kind::sensor_dropout, 1, 0.0, 0x1.68b275168p+4},
         {0x1.94ba3538e0926p+8, kind::fan_stuck_pwm, 2, k_nan, 0.0},
         {0x1.d9b1fa1a48926p+8, kind::fan_recover, 2, 0.0, 0.0},
         {0x1.ed93c1fe776ddp+8, kind::telemetry_loss, 0, 0.0, 0x1.2a6d045b8p+5},
         {0x1.3a1a981999b6fp+9, kind::sensor_dropout, 0, 0.0, 0x1.e95aaa15ap+5},
         {0x1.8eb2584d31b7p+9, kind::sensor_stuck, 1, k_nan, 0.0},
         {0x1.9878ec2509b7p+9, kind::sensor_recover, 1, 0.0, 0.0},
     }},
};

const std::vector<pinned_campaign> k_pinned_correlated = {
    {1,
     {
         {0x1.b8e3d7a7ddb6fp+6, kind::sensor_bias, 0, 0x1.3cedd858p+0, 0.0},
         {0x1.c1c3489386db8p+7, kind::sensor_recover, 0, 0.0, 0.0},
         {0x1.2ba10fb1ef6ddp+8, kind::telemetry_loss, 0, 0.0, 0x1.ef045632p+5},
         {0x1.86c70546b0002p+8, kind::telemetry_loss, 0, 0.0, 0x1.52cdbbf64p+6},
         {0x1.1961e3b648494p+9, kind::sensor_dropout, 2, 0.0, 0x1.9a2dcd2eb8p+6},
         {0x1.539425c676002p+9, kind::sensor_stuck, 0, k_nan, 0.0},
         {0x1.7443f73dac494p+9, kind::telemetry_loss, 0, 0.0, 0x1.db0e6384p+4},
         {0x1.8b2c6cf58a002p+9, kind::sensor_recover, 0, 0.0, 0.0},
     }},
    {2,
     {
         {0x1.8d63534c2db6fp+6, kind::telemetry_loss, 0, 0.0, 0x1.220ebbe78p+6},
         {0x1.bb6436834db7p+7, kind::sensor_dropout, 2, 0.0, 0x1.8af8e960b8p+6},
         {0x1.7eb99a9f94926p+8, kind::fan_failure, 0, 0.0, 0.0},
         {0x1.7eb99a9f94926p+8, kind::fan_failure, 1, 0.0, 0.0},
         {0x1.c195774a0c926p+8, kind::fan_recover, 0, 0.0, 0.0},
         {0x1.c195774a0c926p+8, kind::fan_recover, 1, 0.0, 0.0},
         {0x1.17def7c3edb6fp+9, kind::fan_failure, 2, 0.0, 0.0},
         {0x1.17def7c3edb6fp+9, kind::fan_failure, 0, 0.0, 0.0},
         {0x1.7e84e33097b6fp+9, kind::fan_recover, 2, 0.0, 0.0},
         {0x1.7e84e33097b6fp+9, kind::fan_recover, 0, 0.0, 0.0},
         {0x1.7fa6f765e4002p+9, kind::sensor_bias, 3, 0x1.71fca512p+1, 0.0},
         {0x1.90f1286247002p+9, kind::sensor_recover, 3, 0.0, 0.0},
     }},
    {5,
     {
         {0x1.71f2f4e47b6dcp+6, kind::fan_failure, 0, 0.0, 0.0},
         {0x1.4e143f82d5b6ep+7, kind::fan_recover, 0, 0.0, 0.0},
         {0x1.d7f8fefad6db8p+7, kind::telemetry_loss, 0, 0.0, 0x1.43acee944p+6},
         {0x1.84b91215a8001p+8, kind::sensor_stuck, 3, k_nan, 0.0},
         {0x1.a3bd26f798001p+8, kind::sensor_recover, 3, 0.0, 0.0},
         {0x1.f48856150924ap+8, kind::sensor_dropout, 1, 0.0, 0x1.e726d0adep+5},
         {0x1.385031a5dd24ap+9, kind::sensor_dropout, 0, 0.0, 0x1.306728d73p+5},
         {0x1.5eb02bb702493p+9, kind::telemetry_loss, 0, 0.0, 0x1.467017f18p+6},
     }},
};

const std::vector<pinned_campaign> k_pinned_lying_sensor = {
    {1,
     {
         {0x1.aec75cb2e2p+7, kind::sensor_bias, 2, -0x1.3ac1a8bb2p+4, 0.0},
         {0x1.aec75cb2e2p+7, kind::sensor_bias, 3, -0x1.3ac1a8bb2p+4, 0.0},
         {0x1.45416003df8p+9, kind::sensor_recover, 2, 0.0, 0.0},
         {0x1.45416003df8p+9, kind::sensor_recover, 3, 0.0, 0.0},
     }},
    {2,
     {
         {0x1.88b6e8e2a8p+7, kind::sensor_bias, 0, -0x1.35218815bp+4, 0.0},
         {0x1.88b6e8e2a8p+7, kind::sensor_bias, 1, -0x1.35218815bp+4, 0.0},
         {0x1.88b6e8e2a8p+7, kind::sensor_bias, 2, -0x1.35218815bp+4, 0.0},
         {0x1.88b6e8e2a8p+7, kind::sensor_bias, 3, -0x1.35218815bp+4, 0.0},
         {0x1.5494cb9e6fp+9, kind::sensor_recover, 0, 0.0, 0.0},
         {0x1.5494cb9e6fp+9, kind::sensor_recover, 1, 0.0, 0.0},
         {0x1.5494cb9e6fp+9, kind::sensor_recover, 2, 0.0, 0.0},
         {0x1.5494cb9e6fp+9, kind::sensor_recover, 3, 0.0, 0.0},
     }},
    {5,
     {
         {0x1.70b49647ecp+7, kind::sensor_bias, 0, -0x1.bd577b794p+3, 0.0},
         {0x1.70b49647ecp+7, kind::sensor_bias, 1, -0x1.bd577b794p+3, 0.0},
         {0x1.061a4bd71d8p+9, kind::sensor_recover, 0, 0.0, 0.0},
         {0x1.061a4bd71d8p+9, kind::sensor_recover, 1, 0.0, 0.0},
     }},
};

const std::vector<pinned_campaign> k_pinned_drifting_sensor = {
    {1,
     {
         {0x1.8e9f7d5be7fffp+7, kind::sensor_drift, 2, -0x1.134f05170a3d7p-4, 0.0},
         {0x1.8e9f7d5be7fffp+7, kind::sensor_drift, 3, -0x1.134f05170a3d7p-4, 0.0},
         {0x1.1ab44ccfe6p+9, kind::sensor_recover, 2, 0.0, 0.0},
         {0x1.1ab44ccfe6p+9, kind::sensor_recover, 3, 0.0, 0.0},
     }},
    {2,
     {
         {0x1.702bed821ffffp+7, kind::sensor_drift, 0, -0x1.0a7243ep-4, 0.0},
         {0x1.702bed821ffffp+7, kind::sensor_drift, 1, -0x1.0a7243ep-4, 0.0},
         {0x1.702bed821ffffp+7, kind::sensor_drift, 2, -0x1.0a7243ep-4, 0.0},
         {0x1.702bed821ffffp+7, kind::sensor_drift, 3, -0x1.0a7243ep-4, 0.0},
         {0x1.26f7094b8cp+9, kind::sensor_recover, 0, 0.0, 0.0},
         {0x1.26f7094b8cp+9, kind::sensor_recover, 1, 0.0, 0.0},
         {0x1.26f7094b8cp+9, kind::sensor_recover, 2, 0.0, 0.0},
         {0x1.26f7094b8cp+9, kind::sensor_recover, 3, 0.0, 0.0},
     }},
    {5,
     {
         {0x1.5cf6de9feffffp+7, kind::sensor_drift, 0, -0x1.047a108p-5, 0.0},
         {0x1.5cf6de9feffffp+7, kind::sensor_drift, 1, -0x1.047a108p-5, 0.0},
         {0x1.d05d4624fcp+8, kind::sensor_recover, 0, 0.0, 0.0},
         {0x1.d05d4624fcp+8, kind::sensor_recover, 1, 0.0, 0.0},
         {0x1.f934196eeep+8, kind::sensor_intermittent, 2, -0x1.dd1c67efp+2, 0x1.7ce60ff938p+7},
         {0x1.f934196eeep+8, kind::sensor_intermittent, 3, -0x1.dd1c67efp+2, 0x1.7ce60ff938p+7},
     }},
};

void expect_pinned(const sim::fault_schedule& got, const pinned_campaign& want) {
    ASSERT_EQ(got.size(), want.events.size()) << "seed " << want.seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
        const sim::fault_event& g = got.events()[i];
        const sim::fault_event& w = want.events[i];
        SCOPED_TRACE(testing::Message() << "seed " << want.seed << ", event " << i);
        EXPECT_EQ(g.t_s, w.t_s);
        EXPECT_EQ(g.kind, w.kind);
        EXPECT_EQ(g.target, w.target);
        if (std::isnan(w.value)) {
            EXPECT_TRUE(std::isnan(g.value));
        } else {
            EXPECT_EQ(g.value, w.value);
        }
        EXPECT_EQ(g.duration_s, w.duration_s);
    }
}

TEST(FaultCampaign, DefaultClassGeneratorStreamIsUnchanged) {
    // The correlated knobs must not move the default generator's RNG
    // stream: with correlation off (the default) the campaign for a seed
    // is the same schedule the pre-correlation generator drew, which is
    // what the calibrated survivable envelope was measured over.  Guard
    // the invariant structurally: enabling correlation with probability
    // zero must also leave the stream untouched except for the extra
    // draw, so a seed's first onset time never moves.
    const sim::fault_schedule base = sim::make_random_campaign(123);
    sim::fault_campaign_config corr;
    corr.correlated_fan_events = true;
    corr.correlated_probability = 0.0;  // draw consumed, never acted on
    const sim::fault_schedule gated = sim::make_random_campaign(123, corr);
    ASSERT_FALSE(base.empty());
    ASSERT_FALSE(gated.empty());
    EXPECT_EQ(base.events()[0].t_s, gated.events()[0].t_s);
    EXPECT_EQ(base.events()[0].kind, gated.events()[0].kind);

    // Every generator's stream, pinned against recorded event lists: the
    // default class, the correlated class as run_fault_campaign
    // configures it, and the lying- and drifting-sensor generators.
    const sim::fault_campaign_config defaults;
    sim::fault_campaign_config correlated;
    correlated.correlated_fan_events = true;
    correlated.max_concurrent_fan_faults = correlated.fan_pairs - 1;
    for (const pinned_campaign& want : k_pinned_default) {
        expect_pinned(sim::make_random_campaign(want.seed, defaults), want);
    }
    for (const pinned_campaign& want : k_pinned_correlated) {
        expect_pinned(sim::make_random_campaign(want.seed, correlated), want);
    }
    for (const pinned_campaign& want : k_pinned_lying_sensor) {
        expect_pinned(sim::make_lying_sensor_campaign(want.seed, defaults), want);
    }
    for (const pinned_campaign& want : k_pinned_drifting_sensor) {
        expect_pinned(sim::make_drifting_sensor_campaign(want.seed, defaults), want);
    }
}

TEST(FaultCampaign, ViolationMessagesNameTheBrokenInvariant) {
    sim::fault_campaign_result r;
    r.healthy_max_die_c = 70.0;
    r.faulted_max_die_c = 90.0;
    r.energy_ratio = 1.01;
    r.fan_fault = false;
    const auto thermal = sim::campaign_violation(r);
    ASSERT_TRUE(thermal.has_value());
    EXPECT_NE(thermal->find("envelope"), std::string::npos);

    r.fan_fault = true;  // 90 degC is inside the fan-fault envelope
    EXPECT_FALSE(sim::campaign_violation(r).has_value());

    r.energy_ratio = 2.0;
    const auto regret = sim::campaign_violation(r);
    ASSERT_TRUE(regret.has_value());
    EXPECT_NE(regret->find("energy"), std::string::npos);
}

}  // namespace
