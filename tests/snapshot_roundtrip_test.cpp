// Snapshot/restore round trips: a server_state saved from a live plant
// and restored — into the same scalar simulator, a fresh one, or a
// server_batch lane — must continue stepping bitwise-identically to the
// source.  This contract is what makes rollout predictions exact and is
// the foundation under core::rollout_controller.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "core/fault_monitor.hpp"
#include "server_network.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/server_batch.hpp"
#include "sim/server_config.hpp"
#include "sim/server_simulator.hpp"
#include "sim/server_state.hpp"
#include "thermal/rc_batch.hpp"
#include "thermal/rc_network.hpp"
#include "util/error.hpp"
#include "workload/paper_tests.hpp"
#include "workload/profile.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

// A workload with load swings and PWM structure so the snapshot lands
// mid-transient, mid-PWM-period, and mid-telemetry-interval.
workload::utilization_profile busy_profile() {
    workload::utilization_profile p("snapshot");
    p.constant(70.0, 300_s).constant(20.0, 300_s).ramp(20.0, 90.0, 300_s).constant(90.0, 300_s);
    return p;
}

// Drives the plant through a deterministic schedule with a mid-stream
// fan change and ambient nudge, exercising every snapshotted subsystem.
template <typename StepFn, typename FanFn, typename AmbientFn>
void drive(int steps, int t0, StepFn step, FanFn set_fans, AmbientFn set_ambient) {
    for (int k = 0; k < steps; ++k) {
        const int t = t0 + k;
        if (t == 120) {
            set_fans(util::rpm_t{2400.0});
        }
        if (t == 260) {
            set_ambient(util::celsius_t{27.0});
        }
        if (t == 470) {
            set_fans(util::rpm_t{3000.0});
        }
        step();
    }
}

void expect_rows_identical(const sim::trace_view& a, std::size_t a_offset,
                           const sim::trace_view& b) {
    ASSERT_EQ(a.size(), a_offset + b.size());
    for (std::size_t c = 0; c < sim::trace_channel_count; ++c) {
        SCOPED_TRACE(sim::trace_channel_name(static_cast<sim::trace_channel>(c)));
        const util::column_view ca = a.channel(static_cast<sim::trace_channel>(c));
        const util::column_view cb = b.channel(static_cast<sim::trace_channel>(c));
        for (std::size_t j = 0; j < cb.size(); ++j) {
            ASSERT_EQ(ca.t(a_offset + j), cb.t(j)) << "time diverged at row " << j;
            ASSERT_EQ(ca.v(a_offset + j), cb.v(j)) << "value diverged at row " << j;
        }
    }
}

TEST(SnapshotRoundtrip, ScalarRestoreResumesBitwise) {
    const auto profile = busy_profile();
    sim::server_simulator a;
    a.bind_workload(profile);
    a.force_cold_start();
    a.set_all_fans(3300_rpm);

    const auto step_a = [&] { a.step(1_s); };
    const auto fans_a = [&](util::rpm_t r) { a.set_all_fans(r); };
    const auto amb_a = [&](util::celsius_t t) { a.set_ambient(t); };
    drive(400, 0, step_a, fans_a, amb_a);

    const sim::server_state snap = a.snapshot_state();
    EXPECT_EQ(snap.now_s, 400.0);

    drive(300, 400, step_a, fans_a, amb_a);

    sim::server_simulator b;
    b.bind_workload(profile);
    b.restore_state(snap);
    EXPECT_EQ(b.now().value(), 400.0);
    EXPECT_EQ(b.fan_change_count(), snap.fan_changes);
    const auto step_b = [&] { b.step(1_s); };
    const auto fans_b = [&](util::rpm_t r) { b.set_all_fans(r); };
    const auto amb_b = [&](util::celsius_t t) { b.set_ambient(t); };
    drive(300, 400, step_b, fans_b, amb_b);

    // The restored plant's fresh trace must equal the source's tail
    // bitwise — including the sensor-noise channel (RNG stream) and the
    // telemetry-poll cadence baked into max_sensor_temp.
    expect_rows_identical(a.trace(), 400, b.trace());
    for (std::size_t s = 0; s < 2; ++s) {
        EXPECT_EQ(a.true_cpu_temp(s).value(), b.true_cpu_temp(s).value());
    }
    EXPECT_EQ(a.true_dimm_temp().value(), b.true_dimm_temp().value());
    EXPECT_EQ(a.system_power_reading().value(), b.system_power_reading().value());
    EXPECT_EQ(a.max_cpu_sensor_temp().value(), b.max_cpu_sensor_temp().value());
    EXPECT_EQ(a.measured_utilization(240_s), b.measured_utilization(240_s));
    EXPECT_EQ(a.fan_change_count(), b.fan_change_count());
}

TEST(SnapshotRoundtrip, SnapshotIsPureRead) {
    const auto profile = busy_profile();
    sim::server_simulator plain;
    sim::server_simulator probed;
    for (sim::server_simulator* s : {&plain, &probed}) {
        s->bind_workload(profile);
        s->force_cold_start();
        s->set_all_fans(3300_rpm);
    }
    sim::server_state scratch;
    for (int k = 0; k < 300; ++k) {
        plain.step(1_s);
        probed.snapshot_state(scratch);  // every step: must not perturb
        probed.step(1_s);
    }
    expect_rows_identical(plain.trace(), 0, probed.trace());
}

TEST(SnapshotRoundtrip, ScalarSnapshotLoadsIntoBatchLane) {
    const auto profile = busy_profile();
    sim::server_simulator a;
    a.bind_workload(profile);
    a.force_cold_start();
    a.set_all_fans(3300_rpm);
    const auto step_a = [&] { a.step(1_s); };
    const auto fans_a = [&](util::rpm_t r) { a.set_all_fans(r); };
    const auto amb_a = [&](util::celsius_t t) { a.set_ambient(t); };
    drive(400, 0, step_a, fans_a, amb_a);
    const sim::server_state snap = a.snapshot_state();
    drive(300, 400, step_a, fans_a, amb_a);

    // Clone into the middle lane of a running fleet; neighbours keep
    // their own (cold-started) trajectories.
    sim::server_batch batch(sim::paper_server(), 3);
    for (std::size_t l = 0; l < 3; ++l) {
        batch.bind_workload(l, profile);
    }
    batch.force_cold_start();
    batch.set_lane_active(1, false);  // load must reactivate
    batch.load_lane_state(1, snap);
    EXPECT_TRUE(batch.lane_active(1));
    EXPECT_EQ(batch.now(1).value(), 400.0);

    const auto step_b = [&] { batch.step(1_s); };
    const auto fans_b = [&](util::rpm_t r) { batch.set_all_fans(1, r); };
    const auto amb_b = [&](util::celsius_t t) { batch.set_ambient(1, t); };
    drive(300, 400, step_b, fans_b, amb_b);

    expect_rows_identical(a.trace(), 400, batch.trace(1));
    for (std::size_t s = 0; s < 2; ++s) {
        EXPECT_EQ(a.true_cpu_temp(s).value(), batch.true_cpu_temp(1, s).value());
    }
    EXPECT_EQ(a.max_cpu_sensor_temp().value(), batch.max_cpu_sensor_temp(1).value());
    EXPECT_EQ(a.fan_change_count(), batch.fan_change_count(1));
}

TEST(SnapshotRoundtrip, BatchLaneSnapshotLoadsIntoScalar) {
    const auto profile = busy_profile();
    sim::server_batch batch(sim::paper_server(), 2);
    for (std::size_t l = 0; l < 2; ++l) {
        batch.bind_workload(l, profile);
    }
    batch.force_cold_start();
    batch.set_all_fans(0, 3300_rpm);
    batch.set_all_fans(1, 2400_rpm);  // lane 1 diverges from lane 0
    for (int k = 0; k < 350; ++k) {
        batch.step(1_s);
    }
    sim::server_state snap;
    batch.snapshot_lane_state(1, snap);

    sim::server_simulator scalar;
    scalar.bind_workload(profile);
    scalar.restore_state(snap);
    for (int k = 0; k < 200; ++k) {
        batch.step(1_s);
        scalar.step(1_s);
    }
    expect_rows_identical(batch.trace(1), 350, scalar.trace());
    EXPECT_EQ(batch.true_avg_cpu_temp(1).value(), scalar.true_avg_cpu_temp().value());
    EXPECT_EQ(batch.system_power_reading(1).value(), scalar.system_power_reading().value());
}

/// The server network with values off the paper calibration, so no
/// default value can stand in for a restored one.
thermal::rc_network bare_network() {
    test::server_network_values v;
    v.c_die = 50.0;
    v.c_sink = 400.0;
    v.g_die_sink = 8.0;
    v.g_sink = 3.0;
    return test::server_network(v);
}

TEST(SnapshotRoundtrip, RcNetworkSaveRestoreRoundTrip) {
    const thermal::rc_network net = bare_network();
    thermal::rc_batch a(net, 1);
    a.set_power(thermal::node_id{0}, 0, 120_W);
    for (int k = 0; k < 50; ++k) {
        a.step(1_s);
    }
    a.set_conductance(thermal::edge_id{1}, 0, 4.5);
    a.set_power(thermal::node_id{0}, 0, 95_W);

    thermal::rc_state st;
    a.save_lane_state(0, st);

    thermal::rc_batch b(net, 1);
    b.load_lane_state(0, st);
    for (std::size_t i = 0; i < net.node_count(); ++i) {
        EXPECT_EQ(a.temperature(thermal::node_id{i}, 0).value(),
                  b.temperature(thermal::node_id{i}, 0).value());
        EXPECT_EQ(a.power(thermal::node_id{i}, 0).value(),
                  b.power(thermal::node_id{i}, 0).value());
    }
    EXPECT_EQ(a.conductance(thermal::edge_id{0}, 0), b.conductance(thermal::edge_id{0}, 0));
    EXPECT_EQ(a.conductance(thermal::edge_id{1}, 0), b.conductance(thermal::edge_id{1}, 0));
    EXPECT_EQ(a.ambient(0).value(), b.ambient(0).value());

    for (int k = 0; k < 50; ++k) {
        a.step(1_s);
        b.step(1_s);
    }
    for (std::size_t i = 0; i < net.node_count(); ++i) {
        EXPECT_EQ(a.temperature(thermal::node_id{i}, 0).value(),
                  b.temperature(thermal::node_id{i}, 0).value());
    }
}

TEST(SnapshotRoundtrip, RcStateMovesBetweenNetworkAndBatchLane) {
    // A one-lane plant's state moves into lane 2 of a wider batch and
    // back out, stepping bitwise alongside the source in between.
    const thermal::rc_network net = bare_network();
    thermal::rc_batch single(net, 1);
    single.set_power(thermal::node_id{0}, 0, 120_W);
    for (int k = 0; k < 40; ++k) {
        single.step(1_s);
    }
    thermal::rc_state st;
    single.save_lane_state(0, st);

    thermal::rc_batch batch(net, 3);
    batch.load_lane_state(2, st);
    for (std::size_t i = 0; i < net.node_count(); ++i) {
        EXPECT_EQ(single.temperature(thermal::node_id{i}, 0).value(),
                  batch.temperature(thermal::node_id{i}, 2).value());
    }
    for (int k = 0; k < 40; ++k) {
        single.step(1_s);
        batch.step(1_s);
    }
    for (std::size_t i = 0; i < net.node_count(); ++i) {
        EXPECT_EQ(single.temperature(thermal::node_id{i}, 0).value(),
                  batch.temperature(thermal::node_id{i}, 2).value());
    }

    // And back out: the lane's saved state matches the source's.
    thermal::rc_state back;
    batch.save_lane_state(2, back);
    thermal::rc_state single_now;
    single.save_lane_state(0, single_now);
    EXPECT_EQ(back.temps, single_now.temps);
    EXPECT_EQ(back.powers, single_now.powers);
    EXPECT_EQ(back.edge_g, single_now.edge_g);
    EXPECT_EQ(back.ambient_c, single_now.ambient_c);
}

TEST(SnapshotRoundtrip, CusumMidAccumulationRoundTripsBitwise) {
    // Snapshot while a slow drift's CUSUM sum is strictly between zero
    // and the decision bound — accumulated evidence with no verdict
    // flipped yet.  The restored twin (scalar and batch lane alike) must
    // resume the accumulation bitwise: same alarm poll, same walk to
    // failed, same recover/clear path.
    workload::utilization_profile profile("steady");
    profile.constant(60.0, util::seconds_t{500.0});
    sim::server_config config = sim::paper_server();
    config.monitor.enabled = true;
    const auto drift_ev = [](double t, sim::fault_kind kind, std::size_t target, double value) {
        sim::fault_event e;
        e.t_s = t;
        e.kind = kind;
        e.target = target;
        e.value = value;
        return e;
    };
    const sim::fault_schedule campaign(
        {drift_ev(45.0, sim::fault_kind::sensor_drift, 2, -0.25),
         drift_ev(150.0, sim::fault_kind::sensor_recover, 2, 0.0)});

    sim::server_simulator a(config);
    a.bind_workload(profile);
    a.bind_fault_schedule(campaign);
    a.force_cold_start();
    a.advance(65_s);  // polls at 50 and 60 scored; the ramp is still shallow
    ASSERT_NE(a.monitor(), nullptr);
    const double mid_neg = a.monitor()->sensor_cusum_neg_c(2);
    ASSERT_GT(mid_neg, 0.0);
    ASSERT_LT(mid_neg, config.monitor.sensor_cusum_h_c);
    ASSERT_EQ(a.monitor()->sensor_health(2), core::component_health::healthy);
    const sim::server_state snap = a.snapshot_state();

    sim::server_simulator b(config);
    b.bind_workload(profile);
    b.bind_fault_schedule(campaign);
    b.restore_state(snap);
    EXPECT_EQ(b.monitor()->sensor_cusum_neg_c(2), mid_neg);
    EXPECT_EQ(b.monitor()->sensor_cusum_pos_c(2), a.monitor()->sensor_cusum_pos_c(2));

    sim::server_batch batch(config, 2);
    batch.bind_workload(0, profile);
    batch.bind_workload(1, profile);
    batch.bind_fault_schedule(0, campaign);
    batch.load_lane_state(0, snap);
    EXPECT_EQ(batch.monitor(0)->sensor_cusum_neg_c(2), mid_neg);

    a.clear_trace();
    batch.clear_trace(0);
    double peak_neg = 0.0;
    bool reached_failed = false;
    for (int k = 0; k < 300; ++k) {
        a.step(1_s);
        b.step(1_s);
        batch.step(1_s);
        peak_neg = std::max(peak_neg, b.monitor()->sensor_cusum_neg_c(2));
        reached_failed = reached_failed ||
                         b.monitor()->sensor_health(2) == core::component_health::failed;
    }
    // The accumulation continued through the restore: the sum hit the
    // clamped bound, the verdict walked to failed, and the recovery at
    // t = 150 cleared it again.
    EXPECT_DOUBLE_EQ(peak_neg, config.monitor.sensor_cusum_h_c);
    EXPECT_TRUE(reached_failed);
    EXPECT_EQ(b.monitor()->sensor_health(2), core::component_health::healthy);
    expect_rows_identical(a.trace(), 0, b.trace());
    expect_rows_identical(a.trace(), 0, batch.trace(0));
    EXPECT_EQ(a.monitor()->sensor_cusum_neg_c(2), b.monitor()->sensor_cusum_neg_c(2));
    EXPECT_EQ(a.monitor()->sensor_cusum_neg_c(2), batch.monitor(0)->sensor_cusum_neg_c(2));
}

TEST(SnapshotRoundtrip, RejectedLoadLeavesLaneUntouched) {
    // A snapshot the lane rejects changes nothing: not the clock, the
    // trace, the true temperatures, the sensor stream, or the rows that
    // follow.  (a) An unmonitored plant's snapshot fails a monitored
    // lane's monitor shape check; (b) a NaN node temperature fails the
    // thermal check; (c) so does a NaN twin temperature; (d) a NaN fan
    // speed and (e) every rotor stopped fail the lane's checks.  Each is
    // offered at t = 50 s to a monitored lane that runs next to a control
    // lane which never sees the load.
    const auto profile = busy_profile();
    sim::server_config monitored = sim::paper_server();
    monitored.monitor.enabled = true;
    const auto run_to = [&](sim::server_simulator& s, int steps) {
        s.bind_workload(profile);
        s.force_cold_start();
        for (int i = 0; i < steps; ++i) {
            s.step();
        }
    };
    sim::server_simulator plain;
    run_to(plain, 100);
    sim::server_simulator watched(monitored);
    run_to(watched, 100);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const sim::server_state unmonitored = plain.snapshot_state();
    sim::server_state bad_node = watched.snapshot_state();
    bad_node.thermal.temps[3] = nan;
    sim::server_state bad_twin = watched.snapshot_state();
    bad_twin.monitor.twin.temps[3] = nan;
    sim::server_state bad_fan = watched.snapshot_state();
    bad_fan.fan_rpm[1] = nan;
    sim::server_state no_airflow = watched.snapshot_state();
    std::fill(no_airflow.fault.fan_mode.begin(), no_airflow.fault.fan_mode.end(),
              sim::fault_state::fan_failed);

    const char* names[] = {"unmonitored snapshot", "NaN node", "NaN twin node", "NaN fan speed",
                           "every rotor stopped"};
    const sim::server_state* bad[] = {&unmonitored, &bad_node, &bad_twin, &bad_fan, &no_airflow};
    for (std::size_t c = 0; c < 5; ++c) {
        SCOPED_TRACE(names[c]);
        sim::server_simulator lane(monitored);
        sim::server_simulator control(monitored);
        run_to(lane, 50);
        run_to(control, 50);
        EXPECT_THROW(lane.restore_state(*bad[c]), util::precondition_error);
        EXPECT_EQ(lane.now().value(), control.now().value());
        EXPECT_EQ(lane.trace().size(), control.trace().size());
        for (std::size_t d = 0; d < 2; ++d) {
            EXPECT_EQ(lane.true_cpu_temp(d).value(), control.true_cpu_temp(d).value());
        }
        EXPECT_EQ(lane.true_dimm_temp().value(), control.true_dimm_temp().value());
        EXPECT_EQ(lane.cpu_sensor_temps(), control.cpu_sensor_temps());
        for (int i = 0; i < 60; ++i) {
            lane.step();
            control.step();
        }
        expect_rows_identical(control.trace(), 0, lane.trace());
    }
}

sim::server_config monitored_server() {
    sim::server_config config = sim::paper_server();
    config.monitor.enabled = true;
    return config;
}

/// Pair 0's tach sticks at 100 s and recovers at 200 s: the monitor twin
/// goes live at the onset and stays apart from the plant after the tachs
/// are honest again.
sim::fault_schedule lying_tach_window() {
    sim::fault_event stuck;
    stuck.t_s = 100.0;
    stuck.kind = sim::fault_kind::fan_tach_stuck;
    sim::fault_event recover;
    recover.t_s = 200.0;
    recover.kind = sim::fault_kind::fan_recover;
    return sim::fault_schedule({stuck, recover});
}

void expect_same_bits(const std::vector<double>& a, const std::vector<double>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i], b[i]) << "entry " << i;
    }
}

TEST(SnapshotRoundtrip, DormantAndLiveTwinsCrossLoadBitwise) {
    // Batch a: lane 0's tachs stay honest, so its twin stays dormant;
    // lane 1's twin went live at the lying tach.  Batch b has them the
    // other way round when it loads a's snapshots crosswise, so a dormant
    // twin's snapshot lands on a live twin and a live one on a dormant
    // twin.  Each loaded lane then replays its source lane bitwise.
    const auto profile = busy_profile();
    sim::server_batch a(monitored_server(), 2);
    a.bind_workload(0, profile);
    a.bind_workload(1, profile);
    a.bind_fault_schedule(1, lying_tach_window());
    a.force_cold_start();
    for (int k = 0; k < 300; ++k) {
        a.step(1_s);
    }
    sim::server_state dormant;
    sim::server_state live;
    a.snapshot_lane_state(0, dormant);
    a.snapshot_lane_state(1, live);
    // A dormant twin's saved state is the plant's, bitwise.
    expect_same_bits(dormant.monitor.twin.temps, dormant.thermal.temps);
    expect_same_bits(dormant.monitor.twin.powers, dormant.thermal.powers);
    expect_same_bits(dormant.monitor.twin.edge_g, dormant.thermal.edge_g);
    EXPECT_EQ(dormant.monitor.twin.ambient_c, dormant.thermal.ambient_c);
    ASSERT_NE(live.monitor.twin.temps, live.thermal.temps);

    sim::server_batch b(monitored_server(), 2);
    b.bind_workload(0, profile);
    b.bind_workload(1, profile);
    b.bind_fault_schedule(0, lying_tach_window());
    b.force_cold_start();
    for (int k = 0; k < 250; ++k) {
        b.step(1_s);
    }
    ASSERT_NE(b.model_die_temp(0, 0).value(), b.true_cpu_temp(0, 0).value());  // live
    ASSERT_EQ(b.model_die_temp(1, 0).value(), b.true_cpu_temp(1, 0).value());  // dormant
    // Each target lane's schedule matches its source lane's.
    b.clear_fault_schedule(0);
    b.bind_fault_schedule(1, lying_tach_window());
    b.load_lane_state(0, dormant);
    b.load_lane_state(1, live);
    for (int k = 0; k < 300; ++k) {
        a.step(1_s);
        b.step(1_s);
        for (std::size_t l = 0; l < 2; ++l) {
            for (std::size_t d = 0; d < 2; ++d) {
                ASSERT_EQ(a.model_die_temp(l, d).value(), b.model_die_temp(l, d).value())
                    << "lane " << l << " step " << k << " die " << d;
            }
        }
    }
    expect_rows_identical(a.trace(0), 300, b.trace(0));
    expect_rows_identical(a.trace(1), 300, b.trace(1));
}

TEST(SnapshotRoundtrip, TwinSnapshotKeepsAPendingFanCommand) {
    // A fan command reaches the twin at the next step.  A snapshot taken
    // in between, of a dormant or a live twin, must restore a twin that
    // still gets the command.
    for (const bool lie : {false, true}) {
        SCOPED_TRACE(lie ? "live twin" : "dormant twin");
        const auto profile = busy_profile();
        sim::server_simulator a(monitored_server());
        a.bind_workload(profile);
        if (lie) {
            a.bind_fault_schedule(lying_tach_window());
        }
        a.force_cold_start();
        for (int k = 0; k < 300; ++k) {
            a.step(1_s);
        }
        a.set_all_fans(3000_rpm);
        const sim::server_state snap = a.snapshot_state();

        sim::server_simulator b(monitored_server());
        b.bind_workload(profile);
        b.restore_state(snap);
        for (int k = 0; k < 200; ++k) {
            a.step(1_s);
            b.step(1_s);
            ASSERT_EQ(a.model_die_temp(0).value(), b.model_die_temp(0).value()) << "step " << k;
        }
        expect_rows_identical(a.trace(), 300, b.trace());
    }
}

TEST(SnapshotRoundtrip, ShapeMismatchesAreRejected) {
    sim::server_simulator s;
    sim::server_state snap = s.snapshot_state();
    snap.fan_rpm.push_back(3000.0);
    EXPECT_THROW(s.restore_state(snap), util::precondition_error);
    snap = s.snapshot_state();
    snap.thermal.temps.pop_back();
    EXPECT_THROW(s.restore_state(snap), util::precondition_error);

    sim::server_batch batch(sim::paper_server(), 1);
    snap = s.snapshot_state();
    snap.sensor_reads.clear();
    EXPECT_THROW(batch.load_lane_state(0, snap), util::precondition_error);
    EXPECT_THROW(batch.load_lane_state(7, s.snapshot_state()), util::precondition_error);
}

}  // namespace
