// Model-based fault detection: the residual monitor as a passive
// observer (monitor-on == monitor-off bitwise on every plant channel),
// verdict hysteresis against lying sensors and degraded fans, the
// sensor_age / monitor trace channels, detection summaries, snapshot/
// restore mid-hysteresis, and the monitor-backed recovery upgrades
// (failsafe override, rollout re-planning past a characterized fault).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/bang_bang_controller.hpp"
#include "core/controller_runtime.hpp"
#include "core/failsafe_controller.hpp"
#include "core/fault_monitor.hpp"
#include "core/rollout_controller.hpp"
#include "power/fan_model.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/metrics.hpp"
#include "sim/fault_campaign.hpp"
#include "sim/server_batch.hpp"
#include "sim/server_config.hpp"
#include "sim/server_simulator.hpp"
#include "util/error.hpp"
#include "workload/paper_tests.hpp"
#include "workload/profile.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

using core::component_health;

sim::fault_event ev(double t, sim::fault_kind kind, std::size_t target = 0, double value = 0.0,
                    double duration = 0.0) {
    sim::fault_event e;
    e.t_s = t;
    e.kind = kind;
    e.target = target;
    e.value = value;
    e.duration_s = duration;
    return e;
}

workload::utilization_profile steady(double pct, double duration_s) {
    workload::utilization_profile p("steady");
    p.constant(pct, util::seconds_t{duration_s});
    return p;
}

sim::server_config monitored_server() {
    sim::server_config config = sim::paper_server();
    config.monitor.enabled = true;
    return config;
}

void expect_traces_identical(const sim::trace_view& a, const sim::trace_view& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t c = 0; c < sim::trace_channel_count; ++c) {
        SCOPED_TRACE(sim::trace_channel_name(static_cast<sim::trace_channel>(c)));
        const util::column_view ca = a.channel(static_cast<sim::trace_channel>(c));
        const util::column_view cb = b.channel(static_cast<sim::trace_channel>(c));
        for (std::size_t j = 0; j < ca.size(); ++j) {
            ASSERT_EQ(ca.t(j), cb.t(j)) << "time diverged at row " << j;
            ASSERT_EQ(ca.v(j), cb.v(j)) << "value diverged at row " << j;
        }
    }
}

TEST(FaultMonitor, IsAPassiveObserverOfThePlant) {
    // Monitor-on must change nothing about the plant trajectory: every
    // pre-existing channel is bitwise the monitor-off run's, and the
    // monitor-off run records all-zero verdict channels.
    const auto profile = steady(70.0, 600.0);
    sim::server_simulator off;  // paper default: monitor disabled
    sim::server_simulator on(monitored_server());
    core::bang_bang_controller bang_off;
    core::bang_bang_controller bang_on;
    static_cast<void>(core::run_controlled(off, bang_off, profile));
    static_cast<void>(core::run_controlled(on, bang_on, profile));

    const sim::trace_view a = off.trace();
    const sim::trace_view b = on.trace();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t c = 0; c < sim::trace_channel_count; ++c) {
        const auto channel = static_cast<sim::trace_channel>(c);
        if (channel == sim::trace_channel::monitor_sensor_health ||
            channel == sim::trace_channel::monitor_fan_health ||
            channel == sim::trace_channel::monitor_die_estimate) {
            continue;
        }
        SCOPED_TRACE(sim::trace_channel_name(channel));
        const util::column_view ca = a.channel(channel);
        const util::column_view cb = b.channel(channel);
        for (std::size_t j = 0; j < ca.size(); ++j) {
            ASSERT_EQ(ca.v(j), cb.v(j)) << "row " << j;
        }
    }
    EXPECT_EQ(a.monitor_sensor_health().max(), 0.0);
    EXPECT_EQ(a.monitor_fan_health().max(), 0.0);
    EXPECT_EQ(a.monitor_die_estimate().max(), 0.0);
    EXPECT_EQ(off.monitor(), nullptr);
    ASSERT_NE(on.monitor(), nullptr);
    // The twin actually tracked the plant: its die estimate sits within
    // a couple of degrees of the true die temperature throughout.
    const util::column_view est = b.monitor_die_estimate();
    const util::column_view die0 = b.cpu0_temp();
    const util::column_view die1 = b.cpu1_temp();
    for (std::size_t j = 0; j < est.size(); ++j) {
        const double true_max = std::max(die0.v(j), die1.v(j));
        ASSERT_NEAR(est.v(j), true_max, 2.0) << "row " << j;
    }
}

TEST(FaultMonitor, TwinDieEstimateIsTheTrueDieBitwise) {
    // The twin heats itself with the plant's own power model and follows
    // honest tachs, so on a healthy plant its die estimate is the true
    // die temperature bitwise on every step: through a skewed load split,
    // a fan change every 37 s and a mid-run ambient step, on the scalar
    // plant and on a batch lane.
    workload::utilization_profile profile("mixed");
    profile.constant(90.0, 300_s).ramp(90.0, 20.0, 300_s).constant(50.0, 300_s);
    const double rpms[] = {1800.0, 4200.0, 2400.0, 3600.0, 3000.0};
    const auto fan_rpm = [&](int step) { return util::rpm_t{rpms[(step / 37) % 5]}; };
    const auto fan_pair = [](int step) { return static_cast<std::size_t>((step / 37) % 3); };

    sim::server_simulator s(monitored_server());
    s.set_load_imbalance(0.7);
    s.bind_workload(profile);
    s.force_cold_start();
    for (int i = 0; i < 900; ++i) {
        if (i % 37 == 0) {
            s.set_fan_speed(fan_pair(i), fan_rpm(i));
        }
        if (i == 450) {
            s.set_ambient(30_degC);
        }
        s.step();
        for (std::size_t d = 0; d < 2; ++d) {
            ASSERT_EQ(s.model_die_temp(d).value(), s.true_cpu_temp(d).value())
                << "scalar step " << i << " die " << d;
        }
    }

    sim::server_batch batch(monitored_server(), 2);
    batch.set_load_imbalance(1, 0.7);
    batch.bind_workload(0, steady(30.0, 900.0));
    batch.bind_workload(1, profile);
    batch.force_cold_start();
    for (int i = 0; i < 900; ++i) {
        if (i % 37 == 0) {
            batch.set_fan_speed(1, fan_pair(i), fan_rpm(i));
        }
        if (i == 450) {
            batch.set_ambient(1, 30_degC);
        }
        batch.step();
        for (std::size_t d = 0; d < 2; ++d) {
            ASSERT_EQ(batch.model_die_temp(1, d).value(), batch.true_cpu_temp(1, d).value())
                << "lane step " << i << " die " << d;
        }
    }
}

TEST(FaultMonitor, TwinGoesLiveAtTheFirstLyingTach) {
    // Pair 0's tach sticks at 100 s: its rotor stops while the tach keeps
    // reporting full speed.  Until then the twin sleeps and the monitor
    // reads the plant's own dies; at the onset step it wakes from the
    // plant's state and integrates under the tach airflow.  The estimates
    // after the onset were recorded from a plant whose twin integrated
    // on every step.
    sim::server_simulator s(monitored_server());
    s.bind_fault_schedule(sim::fault_schedule({ev(100.0, sim::fault_kind::fan_tach_stuck, 0)}));
    s.bind_workload(steady(90.0, 600.0));
    s.force_cold_start();
    for (int i = 0; i < 130; ++i) {
        s.step();
        for (std::size_t d = 0; d < 2 && i < 100; ++d) {
            ASSERT_EQ(s.model_die_temp(d).value(), s.true_cpu_temp(d).value())
                << "step " << i << " die " << d;
        }
    }
    const double recorded[30] = {
        0x1.af7686c3c6b1p+5,  0x1.afdf09da01483p+5, 0x1.b046c6042f478p+5, 0x1.b0adbc9c58473p+5,
        0x1.b113eefa7f25dp+5, 0x1.b1795e74a8676p+5, 0x1.b1de0c5edfda6p+5, 0x1.b241fa0b3d9cdp+5,
        0x1.b2a528c9ea964p+5, 0x1.b30799e9247afp+5, 0x1.b3694eb541689p+5, 0x1.b3ca4878b32a7p+5,
        0x1.b42a887c0a32ap+5, 0x1.b48a1005f8523p+5, 0x1.b4e8e05b533ap+5,  0x1.b546fabf16ccbp+5,
        0x1.b5a4607267485p+5, 0x1.b60112b4934e5p+5, 0x1.b65d12c315ce9p+5, 0x1.b6b861d997da6p+5,
        0x1.b7130131f263ap+5, 0x1.b76cf2042feacp+5, 0x1.b7c635868e1f6p+5, 0x1.b81ecced7f757p+5,
        0x1.b876b96bacb16p+5, 0x1.b8cdfc31f66dp+5,  0x1.b924966f7696fp+5, 0x1.b97a895181eep+5,
        0x1.b9cfd603a9793p+5, 0x1.ba247dafbbfep+5,
    };
    const sim::trace_view t = s.trace();
    ASSERT_EQ(t.size(), 130U);
    const util::column_view estimate = t.monitor_die_estimate();
    for (std::size_t j = 0; j < 30; ++j) {
        EXPECT_EQ(estimate.v(100 + j), recorded[j]) << "row " << 100 + j;
    }
    // The twin really diverged: the stricken die runs hotter than it.
    EXPECT_LT(s.model_die_temp(0).value(), s.true_cpu_temp(0).value());
}

TEST(FaultMonitor, ColdStartAfterDivergenceReplaysTheRecordedRun) {
    // A tach lies from 50 s to 150 s, so the twin goes live and stays
    // apart from the plant; the schedule is cleared and the plant cold
    // starts mid-run with honest tachs.  The cold start resets and
    // settles the twin but only settles the hot plant, and under this
    // steeper leakage the two fixed-point settles end apart, so the twin
    // must stay live.  The next 100 steps must match, bitwise, a run
    // recorded from a plant whose twin integrated on every step (FNV-1a
    // over every channel of every row).
    sim::server_config config = monitored_server();
    config.leakage.k2 = 1.0;
    config.leakage.k3 = 0.06;
    sim::server_simulator s(config);
    s.bind_fault_schedule(sim::fault_schedule({ev(50.0, sim::fault_kind::fan_tach_stuck, 0),
                                               ev(150.0, sim::fault_kind::fan_recover, 0)}));
    s.bind_workload(steady(90.0, 1200.0));
    s.force_cold_start();
    for (int i = 0; i < 300; ++i) {
        s.step();
    }
    ASSERT_NE(s.model_die_temp(0).value(), s.true_cpu_temp(0).value());
    s.clear_fault_schedule();
    s.force_cold_start();
    EXPECT_NE(s.model_die_temp(0).value(), s.true_cpu_temp(0).value());
    for (int i = 0; i < 100; ++i) {
        s.step();
    }
    const sim::trace_view t = s.trace();
    ASSERT_EQ(t.size(), 100U);
    std::uint64_t digest = 1469598103934665603ULL;
    for (std::size_t c = 0; c < sim::trace_channel_count; ++c) {
        const util::column_view col = t.channel(static_cast<sim::trace_channel>(c));
        for (std::size_t j = 0; j < col.size(); ++j) {
            for (const double v : {col.t(j), col.v(j)}) {
                std::uint64_t bits = 0;
                std::memcpy(&bits, &v, sizeof bits);
                for (int b = 0; b < 8; ++b) {
                    digest = (digest ^ ((bits >> (8 * b)) & 0xffU)) * 1099511628211ULL;
                }
            }
        }
    }
    EXPECT_EQ(digest, 16206679221423063437ULL);
    EXPECT_EQ(t.monitor_die_estimate().v(0), 0x1.5228f7fb66887p+5);
    EXPECT_EQ(t.monitor_die_estimate().v(99), 0x1.c6a00facb858fp+5);
}

TEST(FaultMonitor, BadConfigIsRejectedEvenWhileDisabled) {
    // One broken rule at a time: sim::validate rejects it with the
    // monitor off, and the monitor's own constructor rejects it too.
    using rule_break = std::function<void(core::fault_monitor_config&)>;
    const std::vector<rule_break> breaks = {
        [](core::fault_monitor_config& c) { c.sensor_residual_c = 0.0; },
        [](core::fault_monitor_config& c) { c.fan_residual_rpm = -1.0; },
        [](core::fault_monitor_config& c) { c.sensor_fail_polls = c.sensor_suspect_polls - 1; },
        [](core::fault_monitor_config& c) { c.fan_clear_steps = 0; },
        [](core::fault_monitor_config& c) { c.sensor_cusum_h_c = 0.0; },
        [](core::fault_monitor_config& c) { c.fan_command_grace_steps = -1; },
        [](core::fault_monitor_config& c) { c.fan_thermal_residual_c = 0.0; },
        [](core::fault_monitor_config& c) { c.fan_thermal_suspect_polls = 0; },
    };
    for (std::size_t i = 0; i < breaks.size(); ++i) {
        sim::server_config bad = sim::paper_server();
        breaks[i](bad.monitor);
        ASSERT_FALSE(bad.monitor.enabled);
        EXPECT_THROW(sim::validate(bad), util::precondition_error) << "rule " << i;
        const std::vector<double> commanded(bad.fan_pairs, 3600.0);
        EXPECT_THROW(core::fault_monitor(bad.monitor, commanded), util::precondition_error)
            << "rule " << i;
    }
}

TEST(FaultMonitor, HealthyRunRaisesNoAlarms) {
    // The honest sensor error (placement spread + noise + quantization)
    // stays far below the 3 degC residual threshold, so a healthy run
    // must produce zero false positives — the property the healthy leg
    // of every chaos campaign re-asserts over hundreds of seeds.
    workload::utilization_profile profile("mixed");
    profile.constant(90.0, 300_s).constant(30.0, 300_s).ramp(30.0, 100.0, 200_s).idle(100_s);
    sim::server_simulator s(monitored_server());
    core::failsafe_controller safe(std::make_unique<core::bang_bang_controller>());
    static_cast<void>(core::run_controlled(s, safe, profile));
    const sim::detection_summary d = sim::compute_detection_summary(s.trace());
    EXPECT_EQ(d.alarm_steps, 0U);
    EXPECT_EQ(d.alarm_fraction(), 0.0);
    EXPECT_EQ(d.first_sensor_alarm_s, -1.0);
    EXPECT_EQ(d.first_fan_alarm_s, -1.0);
    EXPECT_EQ(s.monitor()->worst_sensor_health(), component_health::healthy);
    EXPECT_EQ(s.monitor()->worst_fan_health(), component_health::healthy);
}

TEST(FaultMonitor, LyingSensorWalksSuspectFailedHealthy) {
    // Polls land every 10 s (0, 10, 20, ...).  A -10 degC bias from
    // t = 45 turns polls 50/60/70/80 bad: suspect after 2, failed after
    // 4.  Recovery at 200 makes polls 210/220 good: healthy after 2.
    sim::server_simulator s(monitored_server());
    s.bind_workload(steady(60.0, 400.0));
    s.bind_fault_schedule(
        sim::fault_schedule({ev(45.0, sim::fault_kind::sensor_bias, 0, -10.0),
                             ev(200.0, sim::fault_kind::sensor_recover, 0)}));
    s.force_cold_start();
    const core::fault_monitor* mon = s.monitor();
    ASSERT_NE(mon, nullptr);

    s.advance(55_s);  // one bad poll (t = 50)
    EXPECT_EQ(mon->sensor_health(0), component_health::healthy);
    s.advance(10_s);  // second bad poll (t = 60)
    EXPECT_EQ(mon->sensor_health(0), component_health::suspect);
    EXPECT_LT(mon->sensor_residual_c(0), -3.0);  // signed: lying cool
    s.advance(20_s);  // fourth bad poll (t = 80)
    EXPECT_EQ(mon->sensor_health(0), component_health::failed);
    EXPECT_EQ(mon->worst_sensor_health(), component_health::failed);
    // The partner sensor on the same die stays trusted.
    EXPECT_EQ(mon->sensor_health(1), component_health::healthy);

    s.advance(120_s);  // t = 205: recovered, but no clean poll scored yet
    EXPECT_EQ(mon->sensor_health(0), component_health::failed);
    s.advance(20_s);  // polls 210 and 220 both clean
    EXPECT_EQ(mon->sensor_health(0), component_health::healthy);
}

TEST(FaultMonitor, DeadAndStuckFansAreDetected) {
    sim::server_simulator s(monitored_server());
    s.bind_workload(steady(50.0, 600.0));
    s.bind_fault_schedule(
        sim::fault_schedule({ev(50.0, sim::fault_kind::fan_failure, 1),
                             ev(150.0, sim::fault_kind::fan_recover, 1),
                             ev(300.0, sim::fault_kind::fan_stuck_pwm, 0,
                                std::numeric_limits<double>::quiet_NaN())}));
    s.force_cold_start();
    s.set_all_fans(3000_rpm);
    const core::fault_monitor* mon = s.monitor();
    ASSERT_NE(mon, nullptr);

    s.advance(49_s);
    EXPECT_EQ(mon->worst_fan_health(), component_health::healthy);
    s.advance(10_s);  // tach reads 0 against a 3000 RPM command
    EXPECT_EQ(mon->fan_health(1), component_health::failed);
    EXPECT_EQ(mon->fan_health(0), component_health::healthy);

    s.advance(100_s);  // recovered at 150; residual collapses
    EXPECT_EQ(mon->fan_health(1), component_health::healthy);

    // A rotor stuck *at its commanded speed* is observationally healthy;
    // the residual only opens once the controller asks for a new speed.
    s.advance(150_s);  // t = 309, stuck at 3000 since 300
    EXPECT_EQ(mon->fan_health(0), component_health::healthy);
    s.set_fan_speed(0, 2400_rpm);  // latched by the fault, not actuated
    s.advance(10_s);
    EXPECT_EQ(mon->fan_health(0), component_health::failed);
}

TEST(FaultMonitor, CusumAccumulatesSubThresholdBias) {
    // Drive on_poll directly against a twin that never steps (its dies
    // sit at the 35 degC ambient), so the residuals are exact: sensor 0
    // carries a +2.5 degC bias — under the
    // 3 degC instantaneous threshold but above the 1.75 degC/poll CUSUM
    // allowance, so the positive sum grows exactly 0.75 per poll and
    // reaches the 5.0 bound on poll 7.  Sensor 1's +1.5 degC bias sits
    // under the allowance and must never accumulate; sensor 2 mirrors
    // the walk on the negative side.
    core::fault_monitor_config cfg;
    cfg.enabled = true;  // defaults: k = 1.75, h = 5.0, threshold 3.0
    core::fault_monitor mon(cfg, {3600.0, 3600.0, 3600.0});  // paper bank, all at 3600 RPM
    const std::array<double, 2> twin_die{35.0, 35.0};

    const auto poll = [&](double bias0, double bias1, double bias2) {
        std::vector<double> delivered(4);
        for (std::size_t s = 0; s < 4; ++s) {
            delivered[s] = twin_die[s / 2];
        }
        delivered[0] += bias0;
        delivered[1] += bias1;
        delivered[2] += bias2;
        mon.on_poll(delivered, twin_die);
    };
    for (int p = 1; p <= 6; ++p) {
        poll(2.5, 1.5, -2.5);
        EXPECT_DOUBLE_EQ(mon.sensor_cusum_pos_c(0), 0.75 * p) << "poll " << p;
        EXPECT_DOUBLE_EQ(mon.sensor_cusum_neg_c(2), 0.75 * p) << "poll " << p;
        EXPECT_EQ(mon.sensor_health(0), component_health::healthy) << "poll " << p;
        EXPECT_EQ(mon.sensor_cusum_pos_c(1), 0.0) << "poll " << p;
    }
    poll(2.5, 1.5, -2.5);  // 7th: 5.25 clamps onto the bound -> alarm
    EXPECT_DOUBLE_EQ(mon.sensor_cusum_pos_c(0), 5.0);
    EXPECT_EQ(mon.sensor_health(0), component_health::healthy);  // one bad poll
    poll(2.5, 1.5, -2.5);
    EXPECT_EQ(mon.sensor_health(0), component_health::suspect);
    EXPECT_EQ(mon.sensor_health(2), component_health::suspect);
    poll(2.5, 1.5, -2.5);
    poll(2.5, 1.5, -2.5);
    EXPECT_EQ(mon.sensor_health(0), component_health::failed);
    EXPECT_EQ(mon.sensor_health(2), component_health::failed);
    EXPECT_EQ(mon.sensor_health(1), component_health::healthy);
    EXPECT_EQ(mon.sensor_cusum_neg_c(0), 0.0);  // one-sided: wrong side stays zero

    // Recovery: the clamp caps the decay, so the very first clean poll
    // already drops the sum off the bound and two clean polls clear.
    poll(0.0, 0.0, 0.0);
    EXPECT_DOUBLE_EQ(mon.sensor_cusum_pos_c(0), 3.25);
    EXPECT_EQ(mon.sensor_health(0), component_health::failed);
    poll(0.0, 0.0, 0.0);
    EXPECT_EQ(mon.sensor_health(0), component_health::healthy);
    EXPECT_EQ(mon.sensor_health(2), component_health::healthy);
    poll(0.0, 0.0, 0.0);
    EXPECT_DOUBLE_EQ(mon.sensor_cusum_pos_c(0), 0.0);
}

TEST(FaultMonitor, FanCommandGraceToleratesTachLag) {
    // Aggressive bang-bang: a fresh command every step, applied to the
    // bank one step late, so the tach always reads the *previous*
    // command.  With the grace window that lag is in-band; without it
    // the same healthy ramp walks straight to failed — the transient
    // false positive the grace exists to kill.  A dead rotor matches
    // neither command and must still be caught through the window.
    const auto run_bang_bang = [&](int grace_steps, bool dead) {
        core::fault_monitor_config cfg;
        cfg.enabled = true;
        cfg.fan_command_grace_steps = grace_steps;
        power::fan_bank fans;  // paper bank, all pairs at 3600 RPM
        core::fault_monitor mon(cfg, {3600.0, 3600.0, 3600.0});
        if (dead) {
            fans.set_failed(0, true);
        }
        std::vector<double> tach(fans.pair_count());
        util::rpm_t pending{3600.0};
        for (int i = 0; i < 40; ++i) {
            fans.set_speed(0, pending);  // last step's command lands now
            const util::rpm_t cmd{i % 2 == 0 ? 1800.0 : 4200.0};
            mon.observe_fan_command(0, cmd);
            pending = cmd;
            for (std::size_t p = 0; p < tach.size(); ++p) {
                tach[p] = fans.effective_speed(p).value();
            }
            mon.step(tach);
        }
        return mon.fan_health(0);
    };
    EXPECT_EQ(run_bang_bang(2, false), component_health::healthy);
    EXPECT_EQ(run_bang_bang(0, false), component_health::failed);
    EXPECT_EQ(run_bang_bang(2, true), component_health::failed);
}

TEST(FaultMonitor, TachStuckPairIsCaughtByThermalCrossCheck) {
    // A tach-stuck pair keeps reporting whatever is commanded while the
    // rotor delivers nothing — the tach residual is structurally quiet,
    // the blind spot only the thermal cross-check covers.  Under
    // sustained 90 % load the stricken die runs away from the tach-driven
    // twin; the divergence is die-wide and the quiet pair takes the
    // blame, not the truthful sensors.  The failsafe then pins max
    // cooling off the failed-fan verdict.  (60 % steady keeps the dead
    // zone's excursion inside the calibrated fan-fault envelope; at
    // sustained 90 % a permanently dead zone exceeds what any
    // controller can hold — see RolloutRePlansPastDetectedDeadFan.)
    sim::server_simulator s(monitored_server());
    const sim::fault_schedule campaign({ev(100.0, sim::fault_kind::fan_tach_stuck, 0)});
    s.bind_fault_schedule(campaign);
    core::failsafe_controller safe(std::make_unique<core::bang_bang_controller>());
    static_cast<void>(core::run_controlled(s, safe, steady(60.0, 600.0)));

    const core::fault_monitor* mon = s.monitor();
    ASSERT_NE(mon, nullptr);
    EXPECT_EQ(mon->fan_health(0), component_health::failed);
    EXPECT_EQ(mon->worst_fan_health(), component_health::failed);
    EXPECT_TRUE(safe.fan_override());
    EXPECT_TRUE(safe.engaged());
    // The sensors told the truth all along: once the divergence is
    // attributed to the fans they score clean polls and end healthy.
    for (std::size_t sensor = 0; sensor < mon->sensor_count(); ++sensor) {
        EXPECT_EQ(mon->sensor_health(sensor), component_health::healthy)
            << "sensor " << sensor;
    }
    const sim::detection_summary d =
        sim::compute_detection_summary(s.trace(), &campaign);
    EXPECT_EQ(d.fault_onsets, 1U);
    EXPECT_EQ(d.detected, 1U);
    EXPECT_GT(d.fan_alarm_steps, 0U);
    // Max cooling on the survivors plus 30 % mixing keeps the true die
    // inside the calibrated fan-fault envelope.
    const sim::trace_view t = s.trace();
    const double max_die = std::max(t.cpu0_temp().max(), t.cpu1_temp().max());
    EXPECT_LE(max_die, sim::fault_campaign_limits{}.fan_fault_envelope_c);
}

TEST(FaultMonitor, DriftAndIntermittentSensorsAreDetected) {
    // A -0.05 degC/s ramp needs 60 s just to reach the instantaneous
    // threshold; the CUSUM starts accumulating once the ramp clears the
    // 1.75 degC allowance (~35 s in) and alarms with bounded latency.
    // The intermittent burst alternates bad and good polls at the 30 s
    // square period — the on-half still walks the hysteresis because two
    // consecutive 10 s polls land inside each 15 s burst.
    sim::server_simulator s(monitored_server());
    const sim::fault_schedule campaign(
        {ev(50.0, sim::fault_kind::sensor_drift, 0, -0.05),
         ev(400.0, sim::fault_kind::sensor_recover, 0),
         ev(500.0, sim::fault_kind::sensor_intermittent, 2, -6.0, 200.0)});
    s.bind_fault_schedule(campaign);
    core::failsafe_controller safe(std::make_unique<core::bang_bang_controller>());
    static_cast<void>(core::run_controlled(s, safe, steady(60.0, 800.0)));

    const sim::detection_summary d =
        sim::compute_detection_summary(s.trace(), &campaign);
    EXPECT_EQ(d.fault_onsets, 2U);
    EXPECT_EQ(d.detected, 2U);
    EXPECT_EQ(d.drift_onsets, 1U);  // only the ramp is drift-classified
    EXPECT_EQ(d.drift_detected, 1U);
    EXPECT_GT(d.mean_drift_time_to_detect_s, 0.0);
    EXPECT_LE(d.max_drift_time_to_detect_s, 150.0);
    // Both faults ended inside the run; the sensors cleared.
    EXPECT_EQ(s.monitor()->sensor_health(0), component_health::healthy);
    EXPECT_EQ(s.monitor()->sensor_health(2), component_health::healthy);
}

TEST(FaultMonitor, BatchLanesMatchScalarWithNewFaultKinds) {
    // The batched plant mirrors the scalar one bitwise through every new
    // fault kind: a slow drift, an intermittent burst, and a tach-stuck
    // pair with recovery, all in one monitored lane.
    const auto profile = steady(80.0, 700.0);
    const sim::fault_schedule campaign(
        {ev(60.0, sim::fault_kind::sensor_drift, 1, -0.04),
         ev(250.0, sim::fault_kind::sensor_recover, 1),
         ev(300.0, sim::fault_kind::sensor_intermittent, 3, -5.0, 120.0),
         ev(450.0, sim::fault_kind::fan_tach_stuck, 2),
         ev(600.0, sim::fault_kind::fan_recover, 2)});

    sim::server_batch batch(monitored_server(), 2);
    batch.bind_fault_schedule(0, campaign);
    core::failsafe_controller c0(std::make_unique<core::bang_bang_controller>());
    core::failsafe_controller c1(std::make_unique<core::bang_bang_controller>());
    static_cast<void>(core::run_controlled_batch(batch, {&c0, &c1}, {profile, profile}));

    sim::server_simulator faulted(monitored_server());
    faulted.bind_fault_schedule(campaign);
    sim::server_simulator healthy(monitored_server());
    core::failsafe_controller s0(std::make_unique<core::bang_bang_controller>());
    core::failsafe_controller s1(std::make_unique<core::bang_bang_controller>());
    static_cast<void>(core::run_controlled(faulted, s0, profile));
    static_cast<void>(core::run_controlled(healthy, s1, profile));

    expect_traces_identical(batch.trace(0), faulted.trace());
    expect_traces_identical(batch.trace(1), healthy.trace());
    // The lane actually exercised the new kinds, not a quiet schedule.
    const sim::detection_summary d =
        sim::compute_detection_summary(faulted.trace(), &campaign);
    EXPECT_EQ(d.fault_onsets, 3U);
    EXPECT_GT(d.detected, 0U);
    EXPECT_EQ(d.drift_onsets, 1U);
}

TEST(FaultMonitor, SensorAgeChannelTracksThePollClock) {
    // The new sensor_age channel records now - last_poll every step: it
    // saw-tooths within the 10 s cadence normally and climbs through a
    // telemetry outage — the failsafe's staleness evidence, now on the
    // trace for post-hoc analysis.
    sim::server_simulator s;  // monitor-off: the channel is telemetry-derived
    s.bind_fault_schedule(
        sim::fault_schedule({ev(100.0, sim::fault_kind::telemetry_loss, 0, 0.0, 60.0)}));
    core::failsafe_controller safe(std::make_unique<core::bang_bang_controller>());
    static_cast<void>(core::run_controlled(s, safe, steady(50.0, 300.0)));
    const util::column_view age = s.trace().sensor_age();
    EXPECT_LE(age.max(0.0, 99.0), 10.0);
    EXPECT_GE(age.max(100.0, 160.0), 59.0);  // grew through the outage
    EXPECT_LE(age.max(200.0, 299.0), 10.0);  // cadence restored
}

TEST(FaultMonitor, SnapshotRestoresMidSuspectBitwiseScalar) {
    // Snapshot while a sensor verdict is mid-hysteresis (suspect, two of
    // four bad polls counted): the restored twin must walk the identical
    // suspect -> failed -> healthy path and step bitwise thereafter.
    const auto profile = steady(60.0, 500.0);
    const sim::fault_schedule campaign({ev(45.0, sim::fault_kind::sensor_bias, 2, -8.0),
                                        ev(200.0, sim::fault_kind::sensor_recover, 2)});
    sim::server_simulator a(monitored_server());
    a.bind_workload(profile);
    a.bind_fault_schedule(campaign);
    a.force_cold_start();
    a.advance(65_s);  // polls at 50 and 60 scored bad: suspect, not failed
    ASSERT_EQ(a.monitor()->sensor_health(2), component_health::suspect);
    const sim::server_state snap = a.snapshot_state();

    sim::server_simulator b(monitored_server());
    b.bind_workload(profile);
    b.bind_fault_schedule(campaign);
    b.restore_state(snap);
    ASSERT_EQ(b.monitor()->sensor_health(2), component_health::suspect);
    a.clear_trace();

    a.advance(300_s);  // through failed, recovery, and re-clearing
    b.advance(300_s);
    expect_traces_identical(a.trace(), b.trace());
    EXPECT_EQ(a.monitor()->sensor_health(2), b.monitor()->sensor_health(2));
    EXPECT_EQ(a.cpu_sensor_temps(), b.cpu_sensor_temps());
}

TEST(FaultMonitor, SnapshotRestoresMidSuspectBitwiseBatch) {
    // The same mid-hysteresis contract through the batched plant: lane
    // state captured at suspect restores into a fresh batch and the two
    // lanes step bitwise, monitor channels included.
    const auto profile = steady(60.0, 500.0);
    const sim::fault_schedule campaign({ev(45.0, sim::fault_kind::sensor_bias, 2, -8.0),
                                        ev(200.0, sim::fault_kind::sensor_recover, 2)});
    sim::server_batch a(monitored_server(), 2);
    a.bind_workload(0, profile);
    a.bind_workload(1, profile);
    a.bind_fault_schedule(0, campaign);
    a.force_cold_start();
    for (int i = 0; i < 65; ++i) {
        a.step();
    }
    ASSERT_NE(a.monitor(0), nullptr);
    ASSERT_EQ(a.monitor(0)->sensor_health(2), component_health::suspect);
    sim::server_state snap;
    a.snapshot_lane_state(0, snap);

    sim::server_batch b(monitored_server(), 2);
    b.bind_workload(0, profile);
    b.bind_workload(1, profile);
    b.bind_fault_schedule(0, campaign);
    b.load_lane_state(0, snap);
    ASSERT_EQ(b.monitor(0)->sensor_health(2), component_health::suspect);
    a.clear_trace(0);
    b.clear_trace(0);

    for (int i = 0; i < 300; ++i) {
        a.step();
        b.step();
    }
    expect_traces_identical(a.trace(0), b.trace(0));
    EXPECT_EQ(a.monitor(0)->sensor_health(2), b.monitor(0)->sensor_health(2));
}

TEST(FaultMonitor, BatchLanesMatchScalarWithMonitor) {
    // A monitored faulted lane is bitwise the monitored faulted scalar
    // plant — the monitor's wiring order (step, then poll, then record)
    // is identical in both drivers.
    const auto profile = steady(65.0, 600.0);
    const sim::fault_schedule campaign = sim::make_lying_sensor_campaign(9);

    sim::server_batch batch(monitored_server(), 2);
    batch.bind_fault_schedule(0, campaign);
    core::failsafe_controller c0(std::make_unique<core::bang_bang_controller>());
    core::failsafe_controller c1(std::make_unique<core::bang_bang_controller>());
    static_cast<void>(core::run_controlled_batch(batch, {&c0, &c1}, {profile, profile}));

    sim::server_simulator faulted(monitored_server());
    faulted.bind_fault_schedule(campaign);
    sim::server_simulator healthy(monitored_server());
    core::failsafe_controller s0(std::make_unique<core::bang_bang_controller>());
    core::failsafe_controller s1(std::make_unique<core::bang_bang_controller>());
    static_cast<void>(core::run_controlled(faulted, s0, profile));
    static_cast<void>(core::run_controlled(healthy, s1, profile));

    expect_traces_identical(batch.trace(0), faulted.trace());
    expect_traces_identical(batch.trace(1), healthy.trace());
}

TEST(FaultMonitor, MixedBatchMatchesScalar) {
    // Monitored and unmonitored lanes share one batch, so a monitored
    // lane's twin need not sit at its own lane index.  Lanes [off, on,
    // off, on]: lane 1's tach-stuck pair keeps following commands while
    // its rotor is dead, so its twin leaves the plant; lane 3 goes inert
    // for steps 200-400; lane 1's snapshot is then loaded into lane 3.
    // Every lane, monitor channels included, stays bitwise a one-lane
    // plant driven through the same schedule.
    std::vector<sim::server_config> configs(4, sim::paper_server());
    for (std::size_t l = 0; l < configs.size(); ++l) {
        configs[l].seed = 40 + l;
        configs[l].monitor.enabled = l % 2 == 1;
    }
    configs[3].seed = configs[1].seed;  // lane 3 takes lane 1's snapshot
    const sim::fault_schedule campaign({ev(100.0, sim::fault_kind::fan_tach_stuck, 0),
                                        ev(350.0, sim::fault_kind::fan_recover, 0)});

    sim::server_batch batch(configs);
    std::vector<std::unique_ptr<sim::server_simulator>> scalars;
    for (std::size_t l = 0; l < configs.size(); ++l) {
        scalars.push_back(std::make_unique<sim::server_simulator>(configs[l]));
        const auto profile = steady(40.0 + 15.0 * static_cast<double>(l), 900.0);
        batch.bind_workload(l, profile);
        scalars[l]->bind_workload(profile);
    }
    batch.bind_fault_schedule(1, campaign);
    scalars[1]->bind_fault_schedule(campaign);
    batch.force_cold_start();
    for (auto& s : scalars) {
        s->force_cold_start();
    }

    const double rpms[] = {2400.0, 4200.0, 1800.0, 3000.0};
    for (int i = 0; i < 700; ++i) {
        if (i % 60 == 30) {
            const util::rpm_t rpm{rpms[(i / 60) % 4]};
            for (std::size_t l = 0; l < 3; ++l) {
                batch.set_fan_speed(l, (i / 60) % 3, rpm);
                scalars[l]->set_fan_speed((i / 60) % 3, rpm);
            }
        }
        if (i == 200 || i == 400) {
            batch.set_lane_active(3, i == 400);
        }
        if (i == 500) {
            sim::server_state snap;
            batch.snapshot_lane_state(1, snap);
            batch.load_lane_state(3, snap);
            scalars[3]->restore_state(scalars[1]->snapshot_state());
        }
        batch.step();
        for (std::size_t l = 0; l < scalars.size(); ++l) {
            if (l != 3 || i < 200 || i >= 400) {
                scalars[l]->step();
            }
        }
    }
    for (std::size_t l = 0; l < scalars.size(); ++l) {
        SCOPED_TRACE(l);
        expect_traces_identical(batch.trace(l), scalars[l]->trace());
    }
    // The tach-stuck window really pulled lane 1's twin off the plant.
    const sim::trace_view t1 = batch.trace(1);
    double max_gap = 0.0;
    for (std::size_t j = 0; j < t1.size(); ++j) {
        const double true_max = std::max(t1.cpu0_temp().v(j), t1.cpu1_temp().v(j));
        max_gap = std::max(max_gap, std::fabs(t1.monitor_die_estimate().v(j) - true_max));
    }
    EXPECT_GT(max_gap, 1.0);
    EXPECT_EQ(batch.trace(0).monitor_die_estimate().max(), 0.0);
}

TEST(FaultMonitor, RolloutRePlansPastDetectedDeadFan) {
    // The recovery upgrade this PR buys: under PR 6 semantics a rollout
    // controller abandons its lookahead for the baseline whenever any
    // fault is active — for a 10-minute dead-fan outage that means
    // baseline control for the whole window.  With the monitor
    // validating the plant view, the rollout keeps planning *through*
    // the characterized fault (the snapshot it rolls out from carries
    // the dead pair), and wins back the lookahead's energy on a Table-I
    // scenario at the same envelope.  (The outage is bounded: a pair
    // that stays dead into Test-2's sustained 100 % segments runs the
    // leakage feedback away — no controller can stabilize that zone.)
    const workload::utilization_profile profile =
        workload::make_paper_test(workload::paper_test::test2_periods);
    const sim::fault_schedule campaign({ev(300.0, sim::fault_kind::fan_failure, 0),
                                        ev(900.0, sim::fault_kind::fan_recover, 0)});
    core::rollout_controller_config cfg;
    cfg.horizon = 60_s;
    cfg.lattice_radius = 2;

    const auto run = [&](bool monitored) {
        sim::server_config config = sim::paper_server();
        config.monitor.enabled = monitored;
        sim::server_simulator s(config);
        s.bind_fault_schedule(campaign);
        core::rollout_controller roll(std::make_unique<core::bang_bang_controller>(), cfg);
        const sim::run_metrics m = core::run_controlled(s, roll, profile);
        const sim::trace_view t = s.trace();
        const double max_die = std::max(t.cpu0_temp().max(), t.cpu1_temp().max());
        return std::make_pair(m, max_die);
    };
    const auto [m_degrade, die_degrade] = run(false);
    const auto [m_replan, die_replan] = run(true);

    const sim::fault_campaign_limits limits;
    EXPECT_LE(die_degrade, limits.fan_fault_envelope_c);
    EXPECT_LE(die_replan, limits.fan_fault_envelope_c);
    // Same safety envelope, strictly less energy: re-planning beats
    // degrade-to-baseline on the faulted scenario.
    EXPECT_LT(m_replan.energy_kwh, m_degrade.energy_kwh);
}

}  // namespace
