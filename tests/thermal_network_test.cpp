// Unit tests for the RC network topology and the rc_batch integrator and
// steady solver on one lane, validated against closed-form solutions.
// rc_batch integrates the server network only, so the closed forms are
// taken on its pieces: the DIMM node with its one ambient edge is a
// one-node network, and a socket is a die-sink-ambient chain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "server_network.hpp"
#include "thermal/airflow.hpp"
#include "thermal/rc_batch.hpp"
#include "thermal/rc_network.hpp"
#include "util/error.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;
using thermal::rc_batch;
using thermal::rc_network;

/// Steps `lane` by repeated steps of at most `max_dt` until `duration`
/// has elapsed.
void advance(rc_batch& lane, double duration, double max_dt) {
    double remaining = duration;
    while (remaining > 1e-12) {
        const double dt = std::min(remaining, max_dt);
        lane.step(util::seconds_t{dt});
        remaining -= dt;
    }
}

/// The DIMM node alone: C dT/dt = G (T_amb - T) + P, with the sockets
/// unpowered at ambient (they stay there exactly) and slow enough that
/// the DIMM node sets the stable substep.
/// Closed form: T(t) = T_inf + (T0 - T_inf) e^(-t G / C).
struct one_node_fixture {
    double c = 100.0;
    double g = 2.0;
    double p = 50.0;

    [[nodiscard]] rc_network net() const {
        test::server_network_values v;
        v.ambient_c = 25.0;
        v.c_die = 1e4;
        v.c_sink = 1e4;
        v.c_dimm = c;
        v.g_dimm = g;
        return test::server_network(v);
    }

    /// A one-lane batch over the network with the fixture's power.
    [[nodiscard]] rc_batch lane() const {
        rc_batch b(net(), 1);
        b.set_power(test::dimm, 0, util::watts_t{p});
        return b;
    }

    [[nodiscard]] double exact(double t) const {
        const double t_inf = 25.0 + p / g;
        return t_inf + (25.0 - t_inf) * std::exp(-t * g / c);
    }
};

TEST(RcNetwork, SteadyStateOneNode) {
    one_node_fixture f;
    rc_batch b = f.lane();
    b.settle_lane(0);
    EXPECT_NEAR(b.temperature(test::dimm, 0).value(), 50.0, 1e-9);  // 25 + 50/2
    EXPECT_NEAR(b.temperature(test::die0, 0).value(), 25.0, 1e-9);
}

TEST(RcNetwork, TransientMatchesClosedFormRk4) {
    one_node_fixture f;
    rc_batch b = f.lane();
    advance(b, 120.0, 1.0);
    EXPECT_NEAR(b.temperature(test::dimm, 0).value(), f.exact(120.0), 1e-6);
    for (const thermal::node_id n : {test::die0, test::sink0, test::die1, test::sink1}) {
        EXPECT_EQ(b.temperature(n, 0).value(), 25.0) << "node " << n.index;
    }
}

TEST(RcNetwork, Rk4ConvergenceOrder) {
    // Halving the step should shrink the error by ~2^4 for RK4 (measured
    // against the closed form before sub-stepping kicks in).
    one_node_fixture f;
    rc_batch a = f.lane();
    rc_batch b = f.lane();
    ASSERT_GT(a.stable_dt(0), 20.0);
    advance(a, 60.0, 20.0);
    advance(b, 60.0, 10.0);
    const double err_a = std::fabs(a.temperature(test::dimm, 0).value() - f.exact(60.0));
    const double err_b = std::fabs(b.temperature(test::dimm, 0).value() - f.exact(60.0));
    EXPECT_LT(err_b, err_a);
    EXPECT_GT(err_a / err_b, 8.0);
}

TEST(RcNetwork, AllSchemesAgreeAtSteadyState) {
    // RK4 is the one transient scheme; integrated for an hour it lands on
    // what the steady solve returns.
    one_node_fixture f;
    rc_batch b = f.lane();
    advance(b, 3600.0, 5.0);
    EXPECT_NEAR(b.temperature(test::dimm, 0).value(), 50.0, 0.01);
    const double integrated = b.temperature(test::dimm, 0).value();
    b.settle_lane(0);
    EXPECT_NEAR(b.temperature(test::dimm, 0).value(), integrated, 0.01);
}

TEST(RcNetwork, TwoNodeSteadyState) {
    // Socket 0: die --G1-- sink --G2-- ambient, power only at the die.
    test::server_network_values v;
    v.ambient_c = 20.0;
    v.g_die_sink = 5.0;  // R = 0.2
    v.g_sink = 2.0;      // R = 0.5
    rc_batch b(test::server_network(v), 1);
    b.set_power(test::die0, 0, util::watts_t{30.0});
    b.settle_lane(0);
    EXPECT_NEAR(b.temperature(test::sink0, 0).value(), 20.0 + 30.0 * 0.5, 1e-9);
    EXPECT_NEAR(b.temperature(test::die0, 0).value(), 20.0 + 30.0 * 0.7, 1e-9);
}

TEST(RcNetwork, HeatFlowConservation) {
    // At steady state all injected power must exit through ambient edges.
    test::server_network_values v;
    v.ambient_c = 25.0;
    v.g_die_sink = 3.0;
    v.g_sink = 1.0;
    v.g_dimm = 2.0;
    rc_batch lane(test::server_network(v), 1);
    lane.set_conductance(test::sink1_ambient, 0, 1.5);
    lane.set_power(test::die0, 0, util::watts_t{12.0});
    lane.set_power(test::sink1, 0, util::watts_t{8.0});
    lane.set_power(test::dimm, 0, util::watts_t{5.0});
    lane.settle_lane(0);
    const double out = 1.0 * (lane.temperature(test::sink0, 0).value() - 25.0) +
                       1.5 * (lane.temperature(test::sink1, 0).value() - 25.0) +
                       2.0 * (lane.temperature(test::dimm, 0).value() - 25.0);
    EXPECT_NEAR(out, 25.0, 1e-9);
}

TEST(RcNetwork, IsolatedNodeSteadySingular) {
    // With its sink's ambient edge at zero, socket 0 has no path to
    // ambient: the steady system is singular.
    rc_batch b(test::server_network(), 1);
    b.set_conductance(test::sink0_ambient, 0, 0.0);
    b.set_power(test::die0, 0, util::watts_t{5.0});
    EXPECT_THROW(b.settle_lane(0), util::numeric_error);
}

TEST(RcNetwork, ConductanceUpdateChangesSteadyState) {
    one_node_fixture f;
    f.g = 5.0;
    rc_batch b = f.lane();
    b.settle_lane(0);
    EXPECT_NEAR(b.temperature(test::dimm, 0).value(), 35.0, 1e-9);
    b.set_conductance(test::dimm_ambient, 0, 2.0);
    b.settle_lane(0);
    EXPECT_NEAR(b.temperature(test::dimm, 0).value(), 50.0, 1e-9);
}

TEST(RcNetwork, Rk4TracksConductanceChanges) {
    one_node_fixture f;
    rc_batch b = f.lane();
    advance(b, 600.0, 1.0);
    // Double the conductance mid-flight; the stable substep and the
    // derivatives must follow.
    b.set_conductance(test::dimm_ambient, 0, 4.0);
    advance(b, 3600.0, 1.0);
    EXPECT_NEAR(b.temperature(test::dimm, 0).value(), 25.0 + 50.0 / 4.0, 0.05);
}

TEST(RcNetwork, NegativeCapacityThrows) {
    rc_network net(util::celsius_t{25.0});
    EXPECT_THROW(net.add_node(-1.0), util::precondition_error);
    EXPECT_THROW(net.add_node(0.0), util::precondition_error);
}

TEST(RcNetwork, SelfEdgeThrows) {
    rc_network net(util::celsius_t{25.0});
    const auto n = net.add_node(1.0);
    EXPECT_THROW(net.add_edge(n, n, 1.0), util::precondition_error);
}

TEST(RcNetwork, NegativeConductanceThrows) {
    rc_network net(util::celsius_t{25.0});
    const auto a = net.add_node(1.0);
    const auto b = net.add_node(1.0);
    EXPECT_THROW(net.add_edge(a, b, -1.0), util::precondition_error);
    EXPECT_THROW(net.add_ambient_edge(a, -0.1), util::precondition_error);
    rc_batch lane(test::server_network(), 1);
    EXPECT_THROW(lane.set_conductance(test::die0_sink0, 0, -1.0), util::precondition_error);
}

TEST(RcNetwork, NonFinitePowerThrows) {
    one_node_fixture f;
    rc_batch b = f.lane();
    EXPECT_THROW(b.set_power(test::dimm, 0, util::watts_t{std::nan("")}),
                 util::precondition_error);
}

TEST(RcNetwork, StableExplicitStepScalesWithStiffness) {
    one_node_fixture slow;  // tau = 50 s
    one_node_fixture fast;
    fast.c = 1.0;
    fast.g = 10.0;  // tau = 0.1 s
    EXPECT_GT(slow.lane().stable_dt(0), fast.lane().stable_dt(0));
}

TEST(RcNetwork, StiffNetworkStableAtLargeStep) {
    // RK4 must sub-step rather than blow up.
    one_node_fixture f;
    f.c = 0.5;
    f.g = 20.0;  // tau = 0.025 s
    f.p = 10.0;
    rc_batch b = f.lane();
    advance(b, 10.0, 1.0);
    EXPECT_NEAR(b.temperature(test::dimm, 0).value(), 25.5, 1e-3);
}

TEST(RcBatch, RejectsEveryOtherTopology) {
    // The fused kernel is written for the server network alone; any
    // other network is refused up front rather than integrated wrong.
    const auto rejects = [](const rc_network& net) {
        EXPECT_THROW(rc_batch(net, 1), util::precondition_error);
    };
    rejects(rc_network(util::celsius_t{25.0}));
    {
        rc_network one(util::celsius_t{25.0});
        one.add_ambient_edge(one.add_node(10.0), 1.0);
        rejects(one);
    }
    {
        // The server's nodes with socket 0's edges swapped in order.
        rc_network swapped(util::celsius_t{25.0});
        for (int s = 0; s < 2; ++s) {
            const auto die = swapped.add_node(60.0);
            const auto sink = swapped.add_node(600.0);
            if (s == 0) {
                swapped.add_ambient_edge(sink, 2.857);
                swapped.add_edge(die, sink, 7.0);
            } else {
                swapped.add_edge(die, sink, 7.0);
                swapped.add_ambient_edge(sink, 2.857);
            }
        }
        swapped.add_ambient_edge(swapped.add_node(800.0), 5.26);
        rejects(swapped);
    }
    {
        // A die cooled straight to ambient instead of through its sink.
        rc_network direct(util::celsius_t{25.0});
        for (int s = 0; s < 2; ++s) {
            const auto die = direct.add_node(60.0);
            const auto sink = direct.add_node(600.0);
            direct.add_edge(die, sink, 7.0);
            direct.add_ambient_edge(s == 0 ? die : sink, 2.857);
        }
        direct.add_ambient_edge(direct.add_node(800.0), 5.26);
        rejects(direct);
    }
    {
        rc_network extra = test::server_network();
        extra.add_edge(test::sink0, test::sink1, 1.0);
        rejects(extra);
    }
    EXPECT_NO_THROW(rc_batch(test::server_network(), 2));
}

TEST(Airflow, StreamCapacityMatchesHandCalc) {
    // 65.57 CFM -> ~36.5 W/K with rho*cp = 1180 J/(m^3 K).
    EXPECT_NEAR(thermal::stream_capacity_w_per_k(util::cfm_t{65.57}), 36.5, 0.2);
}

TEST(Airflow, TemperatureRiseInverseInFlow) {
    const double r1 = thermal::stream_temperature_rise(100_W, util::cfm_t{50.0}).value();
    const double r2 = thermal::stream_temperature_rise(100_W, util::cfm_t{100.0}).value();
    EXPECT_NEAR(r1 / r2, 2.0, 1e-9);
}

TEST(Airflow, ZeroFlowThrows) {
    EXPECT_THROW(static_cast<void>(thermal::stream_temperature_rise(100_W, util::cfm_t{0.0})),
                 util::precondition_error);
}

}  // namespace
