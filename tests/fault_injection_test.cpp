// Deterministic fault injection: campaign generation (bitwise replay,
// survivable-class constraints), per-class plant effects (fan failure /
// stuck PWM, sensor stuck / bias / dropout, telemetry loss), the
// healthy-path bitwise contract (empty schedule == no schedule), fault
// state through snapshot/restore and batch lanes, and the controller
// hardening on top (failsafe engagement, rollout degradation, and the
// documented lying-sensor limitation).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/bang_bang_controller.hpp"
#include "core/controller_runtime.hpp"
#include "core/failsafe_controller.hpp"
#include "core/rollout_controller.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/metrics.hpp"
#include "sim/server_batch.hpp"
#include "sim/server_simulator.hpp"
#include "thermal/sensors.hpp"
#include "util/error.hpp"
#include "workload/profile.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

constexpr double k_nan = std::numeric_limits<double>::quiet_NaN();

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

TEST(FaultInjection, CampaignReplaysBitwiseFromSeed) {
    const sim::fault_schedule a = sim::make_random_campaign(1234);
    const sim::fault_schedule b = sim::make_random_campaign(1234);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_FALSE(a.empty());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.events()[i].t_s, b.events()[i].t_s);
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
        EXPECT_EQ(a.events()[i].target, b.events()[i].target);
        EXPECT_EQ(a.events()[i].duration_s, b.events()[i].duration_s);
        const double va = a.events()[i].value;
        const double vb = b.events()[i].value;
        EXPECT_TRUE(va == vb || (std::isnan(va) && std::isnan(vb)));
    }
    // Different seeds draw different campaigns.
    const sim::fault_schedule c = sim::make_random_campaign(1235);
    bool differs = a.size() != c.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i) {
        differs = a.events()[i].t_s != c.events()[i].t_s ||
                  a.events()[i].kind != c.events()[i].kind ||
                  a.events()[i].target != c.events()[i].target;
    }
    EXPECT_TRUE(differs);
}

TEST(FaultInjection, CampaignsRespectSurvivableConstraints) {
    // The default generator class is what the chaos sweep's envelope
    // invariant is claimed over; these are its structural guarantees.
    const sim::fault_campaign_config cfg;
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const sim::fault_schedule campaign = sim::make_random_campaign(seed, cfg);
        const std::vector<sim::fault_event>& events = campaign.events();

        // Sorted, in-window, in-range, value sanity.
        for (std::size_t i = 0; i < events.size(); ++i) {
            const sim::fault_event& e = events[i];
            if (i > 0) {
                EXPECT_GE(e.t_s, events[i - 1].t_s);
            }
            EXPECT_GE(e.t_s, 0.0);
            EXPECT_LE(e.t_s, cfg.duration_s);
            switch (e.kind) {
                case sim::fault_kind::fan_failure:
                case sim::fault_kind::fan_stuck_pwm:
                case sim::fault_kind::fan_recover:
                    EXPECT_LT(e.target, cfg.fan_pairs);
                    break;
                case sim::fault_kind::sensor_bias:
                    EXPECT_GE(e.value, 0.0);  // truthful-guard class
                    EXPECT_LE(e.value, sim::k_max_sensor_bias_c);
                    EXPECT_LT(e.target, thermal::k_cpu_sensors);
                    break;
                case sim::fault_kind::sensor_stuck:
                case sim::fault_kind::sensor_dropout:
                case sim::fault_kind::sensor_recover:
                    EXPECT_LT(e.target, thermal::k_cpu_sensors);
                    break;
                case sim::fault_kind::telemetry_loss:
                    EXPECT_GT(e.duration_s, 0.0);
                    EXPECT_LE(e.duration_s, cfg.max_telemetry_loss_s);
                    break;
                case sim::fault_kind::fan_tach_stuck:
                case sim::fault_kind::sensor_drift:
                case sim::fault_kind::sensor_intermittent:
                    // Not part of the survivable class.
                    ADD_FAILURE() << "survivable campaign drew " << sim::to_string(e.kind);
                    break;
            }
        }

        // Reconstruct per-target fault intervals: onset..matching
        // recover (or campaign end); dropouts self-expire.
        struct interval {
            double begin, end;
            std::size_t target;
        };
        std::vector<interval> fan_faults;
        std::vector<interval> sensor_faults;
        const auto end_of = [&](std::size_t i, sim::fault_kind recover_kind) {
            for (std::size_t j = i + 1; j < events.size(); ++j) {
                if (events[j].kind == recover_kind && events[j].target == events[i].target) {
                    return events[j].t_s;
                }
            }
            return cfg.duration_s;
        };
        for (std::size_t i = 0; i < events.size(); ++i) {
            const sim::fault_event& e = events[i];
            if (e.kind == sim::fault_kind::fan_failure ||
                e.kind == sim::fault_kind::fan_stuck_pwm) {
                fan_faults.push_back({e.t_s, end_of(i, sim::fault_kind::fan_recover), e.target});
            } else if (e.kind == sim::fault_kind::sensor_stuck ||
                       e.kind == sim::fault_kind::sensor_bias) {
                sensor_faults.push_back(
                    {e.t_s, end_of(i, sim::fault_kind::sensor_recover), e.target});
            } else if (e.kind == sim::fault_kind::sensor_dropout) {
                sensor_faults.push_back({e.t_s, e.t_s + e.duration_s, e.target});
            }
        }
        // At most one fan pair degraded at a time (>= 1 pair stays
        // healthy with the default 3-pair plant).
        for (std::size_t i = 0; i < fan_faults.size(); ++i) {
            for (std::size_t j = i + 1; j < fan_faults.size(); ++j) {
                const bool overlap = fan_faults[i].begin < fan_faults[j].end &&
                                     fan_faults[j].begin < fan_faults[i].end;
                EXPECT_FALSE(overlap) << "concurrent fan faults in seed " << seed;
            }
        }
        // A sensor and its same-die partner (s ^ 1) are never faulted
        // together: the max-per-die guard always has a truthful reading.
        for (std::size_t i = 0; i < sensor_faults.size(); ++i) {
            for (std::size_t j = i + 1; j < sensor_faults.size(); ++j) {
                const bool same_die =
                    (sensor_faults[i].target / 2) == (sensor_faults[j].target / 2);
                const bool overlap = sensor_faults[i].begin < sensor_faults[j].end &&
                                     sensor_faults[j].begin < sensor_faults[i].end;
                EXPECT_FALSE(same_die && overlap)
                    << "both sensors of a die faulted in seed " << seed;
            }
        }
    }
}

TEST(FaultInjection, ScheduleValidatesEventsAndBindTargets) {
    EXPECT_THROW(sim::fault_schedule({ev(-1.0, sim::fault_kind::fan_failure)}),
                 util::precondition_error);
    EXPECT_THROW(
        sim::fault_schedule({ev(10.0, sim::fault_kind::telemetry_loss, 0, 0.0, -5.0)}),
        util::precondition_error);
    EXPECT_THROW(sim::fault_schedule({ev(10.0, sim::fault_kind::sensor_bias, 0, k_nan)}),
                 util::precondition_error);
    // NaN is the "at current value" convention for the stuck kinds only.
    EXPECT_NO_THROW(sim::fault_schedule({ev(10.0, sim::fault_kind::sensor_stuck, 0, k_nan)}));

    sim::server_simulator s;
    EXPECT_THROW(s.bind_fault_schedule(
                     sim::fault_schedule({ev(1.0, sim::fault_kind::fan_failure, 99)})),
                 util::precondition_error);
    EXPECT_THROW(s.bind_fault_schedule(
                     sim::fault_schedule({ev(1.0, sim::fault_kind::sensor_bias, 99, 1.0)})),
                 util::precondition_error);

    // Events sort by fire time regardless of construction order.
    const sim::fault_schedule sorted({ev(50.0, sim::fault_kind::telemetry_loss, 0, 0.0, 10.0),
                                      ev(5.0, sim::fault_kind::sensor_bias, 1, 2.0)});
    EXPECT_EQ(sorted.events()[0].t_s, 5.0);
    EXPECT_EQ(sorted.events()[1].t_s, 50.0);
}

TEST(FaultInjection, ScheduleRejectsIncoherentOrderings) {
    // A recovery with nothing to recover is a campaign-authoring bug,
    // not a plant state: the constructor rejects it instead of letting
    // the no-op silently change what a later onset means.
    EXPECT_THROW(sim::fault_schedule({ev(10.0, sim::fault_kind::fan_recover, 0)}),
                 util::precondition_error);
    EXPECT_THROW(sim::fault_schedule({ev(10.0, sim::fault_kind::sensor_recover, 1)}),
                 util::precondition_error);
    EXPECT_THROW(  // recover sorts before its own fault
        sim::fault_schedule({ev(20.0, sim::fault_kind::fan_failure, 0),
                             ev(10.0, sim::fault_kind::fan_recover, 0)}),
        util::precondition_error);
    // Ordered fault -> recover -> fault again is coherent.
    EXPECT_NO_THROW(sim::fault_schedule({ev(10.0, sim::fault_kind::fan_failure, 0),
                                         ev(20.0, sim::fault_kind::fan_recover, 0),
                                         ev(30.0, sim::fault_kind::fan_stuck_pwm, 0, k_nan)}));
    // A dropout self-expires, so a recover inside its window is valid
    // (cuts it short) but one after the window has nothing to act on.
    EXPECT_NO_THROW(
        sim::fault_schedule({ev(10.0, sim::fault_kind::sensor_dropout, 2, 0.0, 50.0),
                             ev(40.0, sim::fault_kind::sensor_recover, 2)}));
    EXPECT_THROW(sim::fault_schedule({ev(10.0, sim::fault_kind::sensor_dropout, 2, 0.0, 20.0),
                                      ev(40.0, sim::fault_kind::sensor_recover, 2)}),
                 util::precondition_error);
}

TEST(FaultInjection, ScheduleRejectsSameTickConflicts) {
    // Two events of one component class landing on one target in the
    // same tick have no defined winner; the constructor rejects them.
    EXPECT_THROW(sim::fault_schedule({ev(10.0, sim::fault_kind::fan_failure, 0),
                                      ev(10.0, sim::fault_kind::fan_stuck_pwm, 0, k_nan)}),
                 util::precondition_error);
    EXPECT_THROW(sim::fault_schedule({ev(10.0, sim::fault_kind::sensor_bias, 1, 2.0),
                                      ev(10.0, sim::fault_kind::sensor_stuck, 1, k_nan)}),
                 util::precondition_error);
    EXPECT_THROW(
        sim::fault_schedule({ev(10.0, sim::fault_kind::telemetry_loss, 0, 0.0, 5.0),
                             ev(10.0, sim::fault_kind::telemetry_loss, 0, 0.0, 9.0)}),
        util::precondition_error);
    // Distinct targets at one tick are exactly what correlated
    // campaigns emit — they stay valid.
    EXPECT_NO_THROW(sim::fault_schedule({ev(10.0, sim::fault_kind::fan_failure, 0),
                                         ev(10.0, sim::fault_kind::fan_failure, 1),
                                         ev(10.0, sim::fault_kind::sensor_bias, 0, 2.0)}));
}

TEST(FaultInjection, ScheduleValidatesNewKindCoherence) {
    // fan_tach_stuck latches its pair like any fan fault...
    EXPECT_NO_THROW(sim::fault_schedule({ev(10.0, sim::fault_kind::fan_tach_stuck, 1),
                                         ev(60.0, sim::fault_kind::fan_recover, 1)}));
    // ...and conflicts with a same-tick fan event on the same pair.
    EXPECT_THROW(sim::fault_schedule({ev(10.0, sim::fault_kind::fan_tach_stuck, 0),
                                      ev(10.0, sim::fault_kind::fan_failure, 0)}),
                 util::precondition_error);
    // A drift is latched until its recover; a run-long drift with no
    // recover is valid, a same-tick drift + recover has no defined winner.
    EXPECT_NO_THROW(sim::fault_schedule({ev(10.0, sim::fault_kind::sensor_drift, 0, -0.05)}));
    EXPECT_NO_THROW(sim::fault_schedule({ev(10.0, sim::fault_kind::sensor_drift, 0, -0.05),
                                         ev(200.0, sim::fault_kind::sensor_recover, 0)}));
    EXPECT_THROW(sim::fault_schedule({ev(10.0, sim::fault_kind::sensor_drift, 0, -0.05),
                                      ev(10.0, sim::fault_kind::sensor_recover, 0)}),
                 util::precondition_error);
    // A drift rate must be a real number — NaN stays reserved for the
    // stuck kinds' "at current value" convention.
    EXPECT_THROW(sim::fault_schedule({ev(10.0, sim::fault_kind::sensor_drift, 0, k_nan)}),
                 util::precondition_error);
    // An intermittent episode self-expires like a dropout: a recover
    // inside its window cuts it short, one after it has nothing to act on.
    EXPECT_NO_THROW(
        sim::fault_schedule({ev(10.0, sim::fault_kind::sensor_intermittent, 2, -5.0, 60.0),
                             ev(40.0, sim::fault_kind::sensor_recover, 2)}));
    EXPECT_THROW(
        sim::fault_schedule({ev(10.0, sim::fault_kind::sensor_intermittent, 2, -5.0, 20.0),
                             ev(40.0, sim::fault_kind::sensor_recover, 2)}),
        util::precondition_error);
}

TEST(FaultInjection, TinyCapsStillGenerateValidCampaigns) {
    // The boundary fix: outage caps below the 10 s preferred minimum
    // used to draw spans *above* the cap, and near-zero caps could
    // collapse a span to nothing — putting an onset and its recover on
    // one tick, which the schedule constructor rightly rejects.  Every
    // tiny-cap campaign must now construct with every span inside its
    // cap (the k_min_fault_span_s floor keeps onset < recover).
    sim::fault_campaign_config cfg;
    cfg.duration_s = 45.0;
    cfg.max_faults = 8;
    cfg.min_fan_outage_s = 1e-6;
    cfg.max_fan_outage_s = 2e-6;
    cfg.max_sensor_outage_s = 0.5;
    cfg.max_telemetry_loss_s = 1e-3;
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        sim::fault_schedule campaign;
        ASSERT_NO_THROW(campaign = sim::make_random_campaign(seed, cfg));
        for (const sim::fault_event& e : campaign.events()) {
            EXPECT_LE(e.t_s, cfg.duration_s);  // at most exactly the profile end
            if (e.kind == sim::fault_kind::sensor_dropout) {
                EXPECT_GT(e.duration_s, 0.0);
                EXPECT_LE(e.duration_s, cfg.max_sensor_outage_s + 1e-12);
            }
            if (e.kind == sim::fault_kind::telemetry_loss) {
                EXPECT_GT(e.duration_s, 0.0);
                EXPECT_LE(e.duration_s, cfg.max_telemetry_loss_s + 1e-12);
            }
        }
    }
    // The episode generators stay coherent at tiny durations too.
    sim::fault_campaign_config tiny;
    tiny.duration_s = 1.0;
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        EXPECT_NO_THROW(static_cast<void>(sim::make_drifting_sensor_campaign(seed, tiny)));
        EXPECT_NO_THROW(static_cast<void>(sim::make_lying_sensor_campaign(seed, tiny)));
    }
}

TEST(FaultInjection, DriftingCampaignStructureAndReplay) {
    // The drifting-sensor generator's structural contract: one drift
    // episode covering a die's full sensor complement (or every sensor)
    // at a rate inside the calibrated 0.02-0.1 degC/s band, always
    // recovering inside the campaign, optionally overlapped by an
    // intermittent burst on the spared die — and bitwise replay.
    bool saw_intermittent = false;
    bool saw_all_sensor_scope = false;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const sim::fault_schedule a = sim::make_drifting_sensor_campaign(seed);
        const sim::fault_schedule b = sim::make_drifting_sensor_campaign(seed);
        ASSERT_EQ(a.size(), b.size());
        std::size_t drifts = 0;
        std::size_t recovers = 0;
        for (std::size_t i = 0; i < a.size(); ++i) {
            const sim::fault_event& e = a.events()[i];
            const sim::fault_event& twin = b.events()[i];
            EXPECT_EQ(e.t_s, twin.t_s);
            EXPECT_EQ(e.kind, twin.kind);
            EXPECT_EQ(e.target, twin.target);
            EXPECT_EQ(e.value, twin.value);
            EXPECT_EQ(e.duration_s, twin.duration_s);
            EXPECT_LE(e.t_s, 900.0);
            switch (e.kind) {
                case sim::fault_kind::sensor_drift:
                    ++drifts;
                    EXPECT_GE(e.value, -0.1);
                    EXPECT_LE(e.value, -0.02);  // lying cool, above the floor
                    break;
                case sim::fault_kind::sensor_recover:
                    ++recovers;
                    break;
                case sim::fault_kind::sensor_intermittent:
                    saw_intermittent = true;
                    EXPECT_GE(e.value, -8.0);
                    EXPECT_LE(e.value, -4.0);
                    EXPECT_GT(e.duration_s, 0.0);
                    break;
                default:
                    ADD_FAILURE() << "unexpected kind " << sim::to_string(e.kind);
                    break;
            }
        }
        EXPECT_TRUE(drifts == 2 || drifts == 4) << "drift scope must be a die or all";
        EXPECT_EQ(recovers, drifts);  // every drift recovers inside the campaign
        saw_all_sensor_scope = saw_all_sensor_scope || drifts == 4;
    }
    EXPECT_TRUE(saw_intermittent);
    EXPECT_TRUE(saw_all_sensor_scope);
}

TEST(FaultInjection, EmptyScheduleIsBitwiseHealthy) {
    const auto profile = steady(70.0, 600.0);
    sim::server_simulator healthy;
    sim::server_simulator bound;
    bound.bind_fault_schedule(sim::fault_schedule{});
    core::bang_bang_controller bang_a;
    core::bang_bang_controller bang_b;
    const auto ma = core::run_controlled(healthy, bang_a, profile);
    const auto mb = core::run_controlled(bound, bang_b, profile);
    expect_traces_identical(healthy.trace(), bound.trace());
    EXPECT_EQ(ma.energy_kwh, mb.energy_kwh);
    EXPECT_EQ(ma.max_temp_c, mb.max_temp_c);
    EXPECT_EQ(ma.fan_changes, mb.fan_changes);
}

TEST(FaultInjection, FanFailureZeroesTachAndLatchesCommands) {
    sim::server_simulator s;
    s.bind_workload(steady(50.0, 600.0));
    s.bind_fault_schedule(sim::fault_schedule({ev(50.0, sim::fault_kind::fan_failure, 1),
                                               ev(150.0, sim::fault_kind::fan_recover, 1)}));
    s.force_cold_start();
    s.set_all_fans(3000_rpm);
    s.reset_fan_change_counter();

    s.advance(60_s);
    EXPECT_EQ(s.fan_speed(1).value(), 0.0);       // dead rotor reads 0 on the tach
    EXPECT_EQ(s.fan_speed(0).value(), 3000.0);    // healthy pairs unaffected
    EXPECT_TRUE(s.current_fault_state().any_fan_fault());

    const std::size_t changes_before = s.fan_change_count();
    s.set_fan_speed(1, 3600_rpm);                  // latched, not actuated
    EXPECT_EQ(s.fan_speed(1).value(), 0.0);
    EXPECT_EQ(s.fan_change_count(), changes_before);  // latching is not a change

    s.advance(100_s);  // past the recovery
    EXPECT_FALSE(s.current_fault_state().any_fan_fault());
    EXPECT_EQ(s.fan_speed(1).value(), 3600.0);  // latched command applied
    EXPECT_EQ(s.fan_change_count(), changes_before);
}

TEST(FaultInjection, FanStuckHoldsSpeedAgainstCommands) {
    sim::server_simulator s;
    s.bind_workload(steady(50.0, 600.0));
    s.bind_fault_schedule(
        sim::fault_schedule({ev(50.0, sim::fault_kind::fan_stuck_pwm, 0, k_nan),
                             ev(150.0, sim::fault_kind::fan_recover, 0)}));
    s.force_cold_start();
    s.set_all_fans(3000_rpm);
    s.advance(60_s);

    EXPECT_EQ(s.fan_speed(0).value(), 3000.0);  // stuck at its current speed
    s.set_fan_speed(0, 2400_rpm);
    EXPECT_EQ(s.fan_speed(0).value(), 3000.0);  // command latched, not applied
    s.advance(100_s);
    EXPECT_EQ(s.fan_speed(0).value(), 2400.0);  // applied on recovery
}

TEST(FaultInjection, ClearingScheduleMidOutagePushesRestoredAirflow) {
    // Clearing the campaign while a pair is dead restarts its rotor, and
    // the thermal half must see that airflow at once: the true dies match
    // a twin whose schedule recovers the pair at the same instant, on the
    // scalar plant and on a batch lane.
    const auto profile = steady(80.0, 300.0);
    const sim::fault_event failure = ev(50.0, sim::fault_kind::fan_failure, 1);
    const sim::fault_schedule dies_for_good({failure});
    const sim::fault_schedule recovers({failure, ev(150.0, sim::fault_kind::fan_recover, 1)});

    sim::server_simulator cleared;
    sim::server_simulator recovered;
    sim::server_batch batch(sim::paper_server(), 2);
    cleared.bind_workload(profile);
    recovered.bind_workload(profile);
    batch.bind_workload(0, profile);
    batch.bind_workload(1, profile);
    cleared.bind_fault_schedule(dies_for_good);
    recovered.bind_fault_schedule(recovers);
    batch.bind_fault_schedule(0, dies_for_good);
    batch.bind_fault_schedule(1, recovers);
    cleared.force_cold_start();
    recovered.force_cold_start();
    batch.force_cold_start();
    for (int i = 0; i < 300; ++i) {
        if (i == 150) {
            ASSERT_TRUE(cleared.current_fault_state().any_fan_fault());
            cleared.clear_fault_schedule();
            batch.clear_fault_schedule(0);
        }
        cleared.step();
        recovered.step();
        batch.step();
        for (std::size_t d = 0; d < 2; ++d) {
            ASSERT_EQ(cleared.true_cpu_temp(d).value(), recovered.true_cpu_temp(d).value())
                << "scalar step " << i << " die " << d;
            ASSERT_EQ(batch.true_cpu_temp(0, d).value(), batch.true_cpu_temp(1, d).value())
                << "lane step " << i << " die " << d;
        }
    }
}

TEST(FaultInjection, ClearingScheduleResumesLatchedCommands) {
    // A command sent to a degraded pair is latched, and clearing the
    // campaign must resume it exactly as a fan_recover at the same instant
    // would: a failed pair restarts at the latched speed, not its
    // pre-failure one, and a stuck pair leaves its stuck RPM.  Scalar
    // plant and batch lane alike.
    const auto profile = steady(80.0, 300.0);
    const sim::fault_event failures[] = {ev(50.0, sim::fault_kind::fan_failure, 0),
                                         ev(50.0, sim::fault_kind::fan_stuck_pwm, 0, 2000.0)};
    for (const sim::fault_event& fault : failures) {
        SCOPED_TRACE(sim::to_string(fault.kind));
        const sim::fault_schedule for_good({fault});
        const sim::fault_schedule recovers({fault, ev(150.0, sim::fault_kind::fan_recover, 0)});

        sim::server_simulator cleared;
        sim::server_simulator recovered;
        sim::server_batch batch(sim::paper_server(), 2);
        cleared.bind_workload(profile);
        recovered.bind_workload(profile);
        batch.bind_workload(0, profile);
        batch.bind_workload(1, profile);
        cleared.bind_fault_schedule(for_good);
        recovered.bind_fault_schedule(recovers);
        batch.bind_fault_schedule(0, for_good);
        batch.bind_fault_schedule(1, recovers);
        cleared.force_cold_start();
        recovered.force_cold_start();
        batch.force_cold_start();
        for (int i = 0; i < 300; ++i) {
            if (i == 100) {
                // Mid-outage command (cold start runs at 3600 RPM): pair 0
                // latches it, the rest move.
                cleared.set_all_fans(2400_rpm);
                recovered.set_all_fans(2400_rpm);
                batch.set_all_fans(0, 2400_rpm);
                batch.set_all_fans(1, 2400_rpm);
            }
            if (i == 150) {
                ASSERT_TRUE(cleared.current_fault_state().any_fan_fault());
                cleared.clear_fault_schedule();
                batch.clear_fault_schedule(0);
                EXPECT_EQ(cleared.fan_speed(0).value(), 2400.0);
                EXPECT_EQ(batch.fan_speed(0, 0).value(), 2400.0);
            }
            cleared.step();
            recovered.step();
            batch.step();
            for (std::size_t d = 0; d < 2; ++d) {
                ASSERT_EQ(cleared.true_cpu_temp(d).value(), recovered.true_cpu_temp(d).value())
                    << "scalar step " << i << " die " << d;
                ASSERT_EQ(batch.true_cpu_temp(0, d).value(), batch.true_cpu_temp(1, d).value())
                    << "lane step " << i << " die " << d;
            }
            for (std::size_t p = 0; p < 3; ++p) {
                ASSERT_EQ(cleared.fan_speed(p).value(), recovered.fan_speed(p).value())
                    << "scalar step " << i << " pair " << p;
                ASSERT_EQ(batch.fan_speed(0, p).value(), batch.fan_speed(1, p).value())
                    << "lane step " << i << " pair " << p;
            }
        }
    }
}

TEST(FaultInjection, SensorBiasOffsetsReadingsExactly) {
    // Twin plants, same seed, no controller: the biased sensor reads
    // exactly raw + bias (the RNG stream stays aligned because the true
    // sensor is always sampled first), every other sensor is bitwise.
    sim::server_simulator healthy;
    sim::server_simulator biased;
    healthy.bind_workload(steady(60.0, 300.0));
    biased.bind_workload(steady(60.0, 300.0));
    biased.bind_fault_schedule(
        sim::fault_schedule({ev(0.0, sim::fault_kind::sensor_bias, 0, 3.0)}));
    healthy.force_cold_start();
    biased.force_cold_start();
    healthy.advance(100_s);
    biased.advance(100_s);

    const std::vector<double> h = healthy.cpu_sensor_temps();
    const std::vector<double> b = biased.cpu_sensor_temps();
    EXPECT_EQ(b[0], h[0] + 3.0);
    for (std::size_t i = 1; i < h.size(); ++i) {
        EXPECT_EQ(b[i], h[i]);
    }
}

TEST(FaultInjection, SensorStuckFreezesAndRecoverRealigns) {
    sim::server_simulator healthy;
    sim::server_simulator faulted;
    healthy.bind_workload(steady(80.0, 400.0));
    faulted.bind_workload(steady(80.0, 400.0));
    faulted.bind_fault_schedule(
        sim::fault_schedule({ev(50.0, sim::fault_kind::sensor_stuck, 2, 55.125),
                             ev(150.0, sim::fault_kind::sensor_recover, 2)}));
    healthy.force_cold_start();
    faulted.force_cold_start();
    healthy.advance(100_s);
    faulted.advance(100_s);
    EXPECT_EQ(faulted.cpu_sensor_temps()[2], 55.125);  // frozen at the given value
    EXPECT_NE(healthy.cpu_sensor_temps()[2], 55.125);

    healthy.advance(100_s);
    faulted.advance(100_s);
    // Recovered: the twin streams realign bitwise (the stuck window
    // never consumed extra RNG draws).
    const std::vector<double> h = healthy.cpu_sensor_temps();
    const std::vector<double> f = faulted.cpu_sensor_temps();
    for (std::size_t i = 0; i < h.size(); ++i) {
        EXPECT_EQ(f[i], h[i]);
    }
}

TEST(FaultInjection, SensorDropoutHoldsLastDeliveredValue) {
    sim::server_simulator healthy;
    sim::server_simulator faulted;
    healthy.bind_workload(steady(80.0, 400.0));
    faulted.bind_workload(steady(80.0, 400.0));
    faulted.bind_fault_schedule(
        sim::fault_schedule({ev(55.0, sim::fault_kind::sensor_dropout, 1, 0.0, 60.0)}));
    healthy.force_cold_start();
    faulted.force_cold_start();

    healthy.advance(50_s);
    faulted.advance(50_s);
    const double held = faulted.cpu_sensor_temps()[1];  // last delivered before dropout
    healthy.advance(50_s);
    faulted.advance(50_s);
    EXPECT_EQ(faulted.cpu_sensor_temps()[1], held);  // window [55, 115): held
    EXPECT_EQ(faulted.cpu_sensor_temps()[0], healthy.cpu_sensor_temps()[0]);

    healthy.advance(100_s);
    faulted.advance(100_s);
    // Self-expired: readings realign bitwise.
    EXPECT_EQ(faulted.cpu_sensor_temps()[1], healthy.cpu_sensor_temps()[1]);
}

TEST(FaultInjection, TelemetryLossSuppressesPollsAndAgesObservations) {
    sim::server_simulator s;
    s.bind_workload(steady(60.0, 400.0));
    s.bind_fault_schedule(
        sim::fault_schedule({ev(35.0, sim::fault_kind::telemetry_loss, 0, 0.0, 40.0)}));
    s.force_cold_start();

    s.advance(32_s);
    EXPECT_LE(s.telemetry_age_s(), 10.0);  // healthy cadence
    const std::vector<double> last_good = s.cpu_sensor_temps();

    s.advance(38_s);  // now 70, inside the suppression window [35, 75)
    EXPECT_GT(s.telemetry_age_s(), 25.0);  // stale: the failsafe trigger
    EXPECT_EQ(s.cpu_sensor_temps(), last_good);  // observations frozen

    s.advance(20_s);  // now 90, past the window; polls resumed
    EXPECT_LE(s.telemetry_age_s(), 10.0);
    EXPECT_NE(s.cpu_sensor_temps(), last_good);
}

TEST(FaultInjection, RebindingWorkloadRestartsFaultTimeline) {
    // A rebind rewinds the clock, so the fault timeline restarts with it:
    // live effects (whose expiry times are on the old clock) clear, and
    // the schedule replays from its first event on the new clock.
    sim::server_simulator s;
    s.bind_workload(steady(60.0, 400.0));
    s.bind_fault_schedule(
        sim::fault_schedule({ev(90.0, sim::fault_kind::telemetry_loss, 0, 0.0, 40.0)}));
    s.force_cold_start();
    s.advance(100_s);  // inside the loss window [90, 130)
    ASSERT_TRUE(s.current_fault_state().telemetry_lost(s.now().value()));

    s.bind_workload(steady(60.0, 400.0));  // mid-run, no cold start
    EXPECT_EQ(s.now().value(), 0.0);
    EXPECT_FALSE(s.current_fault_state().telemetry_lost(0.0));
    s.step();  // new clock 1 s: the poll due since old-clock 100 s is taken
    EXPECT_EQ(s.telemetry_age_s(), 0.0);
    s.advance(88_s);  // new clock 89 s: healthy cadence
    EXPECT_LE(s.telemetry_age_s(), 10.0);
    s.advance(31_s);  // new clock 120 s: the loss fired again at 90 s
    EXPECT_GT(s.telemetry_age_s(), 25.0);
    s.advance(20_s);  // new clock 140 s: past the window, polls resumed
    EXPECT_LE(s.telemetry_age_s(), 10.0);
}

TEST(FaultInjection, RebindingMidOutagePushesRestoredAirflow) {
    // A rebind during a fan failure restarts the rotor with the fault
    // timeline, and the thermal half must see that airflow at once: the
    // dies match a twin lane whose schedule is cleared and rebound at the
    // same instant, through the failure's replay at new-clock 50 s.
    const auto profile = steady(80.0, 300.0);
    const sim::fault_schedule fails({ev(50.0, sim::fault_kind::fan_failure, 1)});
    sim::server_batch batch(sim::paper_server(), 2);
    for (std::size_t l = 0; l < 2; ++l) {
        batch.bind_workload(l, profile);
        batch.bind_fault_schedule(l, fails);
    }
    batch.force_cold_start();
    for (int i = 0; i < 100; ++i) {
        batch.step();
    }
    ASSERT_TRUE(batch.current_fault_state(0).any_fan_fault());
    batch.bind_workload(0, profile);
    batch.clear_fault_schedule(1);
    batch.bind_fault_schedule(1, fails);
    batch.bind_workload(1, profile);
    EXPECT_FALSE(batch.current_fault_state(0).any_fan_fault());
    for (int i = 0; i < 80; ++i) {
        batch.step();
        for (std::size_t d = 0; d < 2; ++d) {
            ASSERT_EQ(batch.true_cpu_temp(0, d).value(), batch.true_cpu_temp(1, d).value())
                << "step " << i << " die " << d;
        }
    }
    EXPECT_TRUE(batch.current_fault_state(0).any_fan_fault());
}

TEST(FaultInjection, FailsafeEngagesOnStaleSensorsAndHandsBack) {
    // Unit surface: fresh observations pass the baseline through
    // bitwise; stale ones override to max fans.
    core::failsafe_controller failsafe(std::make_unique<core::bang_bang_controller>());
    core::bang_bang_controller bang;
    core::controller_inputs in;
    in.max_cpu_temp = 78_degC;  // bang band: step up
    in.current_rpm = 2400_rpm;
    in.sensor_age_s = 8.0;
    EXPECT_EQ(failsafe.decide(in), bang.decide(in));
    EXPECT_FALSE(failsafe.engaged());
    in.sensor_age_s = 60.0;
    EXPECT_EQ(failsafe.decide(in)->value(), 4200.0);
    EXPECT_TRUE(failsafe.engaged());
    EXPECT_EQ(failsafe.name(), "Failsafe(Bang)");

    // Closed loop: a telemetry outage drives the commanded speed to the
    // failsafe maximum inside the window, and control hands back after.
    sim::server_simulator s;
    s.bind_fault_schedule(
        sim::fault_schedule({ev(100.0, sim::fault_kind::telemetry_loss, 0, 0.0, 80.0)}));
    core::failsafe_controller wrapped(std::make_unique<core::bang_bang_controller>());
    static_cast<void>(core::run_controlled(s, wrapped, steady(50.0, 400.0)));
    const util::column_view rpm = s.trace().avg_fan_rpm();
    // Stale past 25 s from the last pre-outage poll at t = 100: the
    // decisions from t = 130 on command 4200 until polls resume at 180.
    EXPECT_EQ(rpm.max(140.0, 175.0), 4200.0);
    EXPECT_LT(rpm.max(0.0, 120.0), 4200.0);
    EXPECT_LT(rpm.v(rpm.size() - 1), 4200.0);  // handed back to the baseline
}

TEST(FaultInjection, SnapshotRoundTripsDegradedPlant) {
    // Snapshot a plant mid-degradation (dead fan, biased + dropped
    // sensors, suppressed telemetry) and restore it into a twin: both
    // must step bitwise-identically through recoveries and later events.
    const auto profile = steady(70.0, 600.0);
    const sim::fault_schedule campaign(
        {ev(50.0, sim::fault_kind::fan_failure, 2), ev(80.0, sim::fault_kind::sensor_bias, 0, 2.5),
         ev(90.0, sim::fault_kind::sensor_dropout, 3, 0.0, 60.0),
         ev(100.0, sim::fault_kind::telemetry_loss, 0, 0.0, 40.0),
         ev(200.0, sim::fault_kind::fan_recover, 2),
         ev(250.0, sim::fault_kind::sensor_recover, 0),
         ev(300.0, sim::fault_kind::fan_stuck_pwm, 1, k_nan)});

    sim::server_simulator a;
    a.bind_workload(profile);
    a.bind_fault_schedule(campaign);
    a.force_cold_start();
    a.advance(120_s);  // inside all four degradations
    ASSERT_TRUE(a.current_fault_state().any_active(a.now().value()));
    const sim::server_state snap = a.snapshot_state();

    sim::server_simulator b;
    b.bind_workload(profile);
    b.bind_fault_schedule(campaign);
    b.restore_state(snap);
    a.clear_trace();

    a.advance(360_s);  // through every recovery and the stuck event
    b.advance(360_s);
    expect_traces_identical(a.trace(), b.trace());
    EXPECT_EQ(a.cpu_sensor_temps(), b.cpu_sensor_temps());
    EXPECT_EQ(a.fan_change_count(), b.fan_change_count());
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(a.fan_speed(i).value(), b.fan_speed(i).value());
    }
}

TEST(FaultInjection, BatchLanesMatchScalarUnderFaults) {
    // A faulted batch lane is bitwise the faulted scalar plant, and its
    // healthy neighbors are bitwise the healthy scalar plant: fault
    // effects cannot leak across lanes.
    const auto profile = steady(65.0, 600.0);
    const sim::fault_schedule campaign = sim::make_random_campaign(77);

    sim::server_batch batch(sim::paper_server(), 2);
    batch.bind_fault_schedule(0, campaign);
    core::failsafe_controller c0(std::make_unique<core::bang_bang_controller>());
    core::failsafe_controller c1(std::make_unique<core::bang_bang_controller>());
    static_cast<void>(
        core::run_controlled_batch(batch, {&c0, &c1}, {profile, profile}));

    sim::server_simulator faulted;
    faulted.bind_fault_schedule(campaign);
    sim::server_simulator healthy;
    core::failsafe_controller s0(std::make_unique<core::bang_bang_controller>());
    core::failsafe_controller s1(std::make_unique<core::bang_bang_controller>());
    static_cast<void>(core::run_controlled(faulted, s0, profile));
    static_cast<void>(core::run_controlled(healthy, s1, profile));

    expect_traces_identical(batch.trace(0), faulted.trace());
    expect_traces_identical(batch.trace(1), healthy.trace());
}

void expect_states_identical(const sim::server_state& a, const sim::server_state& b) {
    EXPECT_EQ(a.now_s, b.now_s);
    EXPECT_EQ(a.fan_changes, b.fan_changes);
    EXPECT_EQ(a.fan_rpm, b.fan_rpm);
    EXPECT_EQ(a.sensor_reads, b.sensor_reads);
    EXPECT_EQ(a.thermal.temps, b.thermal.temps);
    EXPECT_EQ(a.thermal.edge_g, b.thermal.edge_g);
    EXPECT_EQ(a.fault.next_event, b.fault.next_event);
    EXPECT_EQ(a.fault.fan_mode, b.fault.fan_mode);
    EXPECT_EQ(a.fault.fan_commanded_rpm, b.fault.fan_commanded_rpm);
    EXPECT_EQ(a.monitor.commanded_rpm, b.monitor.commanded_rpm);
    EXPECT_EQ(a.monitor.fan_prev_rpm, b.monitor.fan_prev_rpm);
    EXPECT_EQ(a.monitor.fan_grace_steps, b.monitor.fan_grace_steps);
}

/// Plants for the fan-command rejection tests: a scalar plant and its
/// twin, plus a two-lane batch whose lane 1 twins lane 0.  Pair 1 fails
/// at 20 s and recovers at 200 s; every plant is parked at 60 s, so one
/// healthy and one faulted (latching) pair are live.
struct command_rig {
    explicit command_rig(bool monitored)
        : config(make_config(monitored)), plant(config), twin(config), batch(config, 2) {
        const auto profile = steady(60.0, 600.0);
        const sim::fault_schedule campaign({ev(20.0, sim::fault_kind::fan_failure, 1),
                                            ev(200.0, sim::fault_kind::fan_recover, 1)});
        for (sim::server_simulator* s : {&plant, &twin}) {
            s->bind_workload(profile);
            s->bind_fault_schedule(campaign);
            s->force_cold_start();
            s->set_all_fans(3000_rpm);
            s->advance(60_s);
        }
        for (std::size_t l = 0; l < 2; ++l) {
            batch.bind_workload(l, profile);
            batch.bind_fault_schedule(l, campaign);
            batch.force_cold_start(l);
            batch.set_all_fans(l, 3000_rpm);
        }
        batch.advance(60_s);
    }

    static sim::server_config make_config(bool monitored) {
        sim::server_config c = sim::paper_server();
        c.monitor.enabled = monitored;
        return c;
    }

    /// After the rejected calls nothing moved: states match the twins,
    /// and every plant keeps stepping bitwise with its twin through the
    /// recovery that replays the latched command.
    void expect_untouched() {
        expect_states_identical(plant.snapshot_state(), twin.snapshot_state());
        sim::server_state lane0;
        sim::server_state lane1;
        batch.snapshot_lane_state(0, lane0);
        batch.snapshot_lane_state(1, lane1);
        expect_states_identical(lane0, lane1);
        plant.clear_trace();
        twin.clear_trace();
        batch.clear_trace(0);
        batch.clear_trace(1);
        plant.advance(240_s);
        twin.advance(240_s);
        batch.advance(240_s);
        expect_traces_identical(plant.trace(), twin.trace());
        expect_traces_identical(batch.trace(0), batch.trace(1));
        expect_traces_identical(batch.trace(0), plant.trace());
        EXPECT_EQ(plant.fan_speed(1).value(), 3000.0);  // the latched command, recovered
    }

    sim::server_config config;
    sim::server_simulator plant;
    sim::server_simulator twin;
    sim::server_batch batch;
};

TEST(FaultInjection, OutOfRangeFanPairThrowsAndLeavesPlantsUntouched) {
    // The pair index used to reach the per-pair fault arrays before any
    // range check: with the monitor off, that read (and could write) past
    // their end.  Both plants now reject it up front.
    for (const bool monitored : {false, true}) {
        SCOPED_TRACE(monitored ? "monitor on" : "monitor off");
        command_rig rig(monitored);
        for (const std::size_t pair : {std::size_t{3}, std::size_t{64}}) {
            EXPECT_THROW(rig.plant.set_fan_speed(pair, 2400_rpm), util::precondition_error);
            EXPECT_THROW(rig.batch.set_fan_speed(0, pair, 2400_rpm), util::precondition_error);
        }
        rig.expect_untouched();
    }
}

TEST(FaultInjection, NonFiniteFanCommandsAreRejectedBeforeAnyMutation) {
    // std::clamp passes NaN through, so a NaN command used to land in the
    // fan bank (healthy pair), in a faulted pair's latched command (which
    // recovery then applies), or in the monitor's command record.  Every
    // command path now throws first.
    const double inf = std::numeric_limits<double>::infinity();
    for (const bool monitored : {false, true}) {
        SCOPED_TRACE(monitored ? "monitor on" : "monitor off");
        command_rig rig(monitored);
        for (const double bad : {k_nan, inf, -inf}) {
            const util::rpm_t rpm{bad};
            EXPECT_THROW(rig.plant.set_fan_speed(0, rpm), util::precondition_error);
            EXPECT_THROW(rig.plant.set_fan_speed(1, rpm), util::precondition_error);
            EXPECT_THROW(rig.plant.set_all_fans(rpm), util::precondition_error);
            EXPECT_THROW(rig.batch.set_fan_speed(0, 0, rpm), util::precondition_error);
            EXPECT_THROW(rig.batch.set_fan_speed(0, 1, rpm), util::precondition_error);
            EXPECT_THROW(rig.batch.set_all_fans(0, rpm), util::precondition_error);
        }
        rig.expect_untouched();
    }
}

TEST(FaultInjection, ColdStartRewindsCampaignForReplay) {
    // Two runs on one plant binding: force_cold_start rewinds the
    // campaign cursor with the clock, so the controlled run replays
    // bitwise without rebinding.
    sim::server_simulator s;
    s.bind_fault_schedule(sim::make_random_campaign(5));
    const auto profile = steady(70.0, 600.0);
    core::failsafe_controller c1(std::make_unique<core::bang_bang_controller>());
    core::failsafe_controller c2(std::make_unique<core::bang_bang_controller>());
    const sim::run_metrics m1 = core::run_controlled(s, c1, profile);
    const sim::run_metrics m2 = core::run_controlled(s, c2, profile);
    EXPECT_EQ(m1.energy_kwh, m2.energy_kwh);
    EXPECT_EQ(m1.max_temp_c, m2.max_temp_c);
    EXPECT_EQ(m1.fan_changes, m2.fan_changes);
    EXPECT_EQ(m1.avg_rpm, m2.avg_rpm);
}

TEST(FaultInjection, RolloutDegradesToBaselineUnderActiveFault) {
    const auto profile = steady(70.0, 900.0);
    sim::server_simulator s;
    s.bind_workload(profile);
    s.bind_fault_schedule(
        sim::fault_schedule({ev(50.0, sim::fault_kind::fan_failure, 0)}));
    s.force_cold_start();
    s.advance(100_s);  // fan 0 dead and staying dead
    ASSERT_TRUE(s.current_fault_state().any_active(s.now().value()));

    core::rollout_controller_config cfg;
    cfg.horizon = 60_s;
    cfg.lattice_radius = 2;
    core::rollout_controller roll(std::make_unique<core::bang_bang_controller>(), cfg);
    const core::batch_lane_plant_view view(s.batch(), 0);
    roll.attach_plant(&view);
    roll.reset();

    core::controller_inputs in;
    in.now = s.now();
    in.max_cpu_temp = 78_degC;
    in.current_rpm = 2400_rpm;
    core::bang_bang_controller bang;
    EXPECT_EQ(roll.decide(in), bang.decide(in));      // baseline's decision
    EXPECT_TRUE(roll.last_rollout().scores.empty());  // and no rollout ran
    roll.attach_plant(nullptr);

    // Control arm: the same setup on a healthy plant does roll out.
    sim::server_simulator h;
    h.bind_workload(profile);
    h.force_cold_start();
    h.advance(100_s);
    core::rollout_controller roll_h(std::make_unique<core::bang_bang_controller>(), cfg);
    const core::batch_lane_plant_view view_h(h.batch(), 0);
    roll_h.attach_plant(&view_h);
    roll_h.reset();
    static_cast<void>(roll_h.decide(in));
    EXPECT_FALSE(roll_h.last_rollout().scores.empty());
    roll_h.attach_plant(nullptr);
}

TEST(FaultInjection, NegativeBiasDefeatsTheGuardWithoutMonitor) {
    // The threat the residual monitor exists for: a sensor lying *cool*
    // looks fresh and healthy, so every guard steering on raw readings
    // (bang-bang band, failsafe staleness) is blind to the excursion it
    // hides.  With all four sensors biased -15 degC at full load, the
    // bang-bang controller parks the fans at minimum while the true dies
    // run far hotter than any healthy run.  The mitigation is pinned in
    // NegativeBiasContainedWithMonitor below.
    const auto profile = steady(100.0, 900.0);
    std::vector<sim::fault_event> lying;
    for (std::size_t sensor = 0; sensor < 4; ++sensor) {
        lying.push_back(ev(0.0, sim::fault_kind::sensor_bias, sensor, -15.0));
    }
    sim::server_simulator healthy;
    sim::server_simulator blinded;
    blinded.bind_fault_schedule(sim::fault_schedule(std::move(lying)));
    core::bang_bang_controller bang_h;
    core::bang_bang_controller bang_b;
    static_cast<void>(core::run_controlled(healthy, bang_h, profile));
    static_cast<void>(core::run_controlled(blinded, bang_b, profile));

    const auto max_die = [](const sim::server_simulator& s) {
        const sim::trace_view t = s.trace();
        return std::max(t.cpu0_temp().max(), t.cpu1_temp().max());
    };
    EXPECT_GT(max_die(blinded), max_die(healthy) + 3.0);
}

TEST(FaultInjection, NegativeBiasContainedWithMonitor) {
    // Same all-sensor -15 degC lie, same full load — but the plant runs
    // the residual monitor and the failsafe acts on its verdicts: lying
    // sensors are excluded from the guard in favor of the model-backed
    // die estimates, so the fans keep tracking the *true* temperature
    // and the hidden excursion never develops.
    const auto profile = steady(100.0, 900.0);
    std::vector<sim::fault_event> lying;
    for (std::size_t sensor = 0; sensor < 4; ++sensor) {
        lying.push_back(ev(0.0, sim::fault_kind::sensor_bias, sensor, -15.0));
    }
    sim::server_config monitored = sim::paper_server();
    monitored.monitor.enabled = true;
    sim::server_simulator healthy(monitored);
    sim::server_simulator blinded(monitored);
    blinded.bind_fault_schedule(sim::fault_schedule(std::move(lying)));
    core::failsafe_controller safe_h(std::make_unique<core::bang_bang_controller>());
    core::failsafe_controller safe_b(std::make_unique<core::bang_bang_controller>());
    static_cast<void>(core::run_controlled(healthy, safe_h, profile));
    static_cast<void>(core::run_controlled(blinded, safe_b, profile));

    const auto max_die = [](const sim::server_simulator& s) {
        const sim::trace_view t = s.trace();
        return std::max(t.cpu0_temp().max(), t.cpu1_temp().max());
    };
    EXPECT_TRUE(safe_b.sensor_override());  // lying sensors still excluded at the end
    EXPECT_FALSE(safe_h.sensor_override());
    EXPECT_LT(max_die(blinded), max_die(healthy) + 2.0);
}

}  // namespace
