// Unit tests for the RC network topology and the rc_batch integrator and
// steady solver on one lane, validated against closed-form solutions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

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

/// One node, one ambient edge: C dT/dt = G (T_amb - T) + P.
/// Closed form: T(t) = T_inf + (T0 - T_inf) e^(-t G / C).
struct one_node_fixture {
    rc_network net{util::celsius_t{25.0}};
    thermal::node_id n;
    double c = 100.0;
    double g = 2.0;
    double p = 50.0;

    one_node_fixture() {
        n = net.add_node(c);
        net.add_ambient_edge(n, g);
    }

    /// A one-lane batch over the network with the fixture's power.
    [[nodiscard]] rc_batch lane() const {
        rc_batch b(net, 1);
        b.set_power(n, 0, util::watts_t{p});
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
    EXPECT_NEAR(b.temperature(f.n, 0).value(), 50.0, 1e-9);  // 25 + 50/2
}

TEST(RcNetwork, TransientMatchesClosedFormRk4) {
    one_node_fixture f;
    rc_batch b = f.lane();
    advance(b, 120.0, 1.0);
    EXPECT_NEAR(b.temperature(f.n, 0).value(), f.exact(120.0), 1e-6);
}

TEST(RcNetwork, Rk4ConvergenceOrder) {
    // Halving the step should shrink the error by ~2^4 for RK4 (measured
    // against the closed form before sub-stepping kicks in).
    one_node_fixture f;
    rc_batch a = f.lane();
    rc_batch b = f.lane();
    advance(a, 60.0, 20.0);
    advance(b, 60.0, 10.0);
    const double err_a = std::fabs(a.temperature(f.n, 0).value() - f.exact(60.0));
    const double err_b = std::fabs(b.temperature(f.n, 0).value() - f.exact(60.0));
    EXPECT_LT(err_b, err_a);
    EXPECT_GT(err_a / err_b, 8.0);
}

TEST(RcNetwork, AllSchemesAgreeAtSteadyState) {
    // RK4 is the one transient scheme; integrated for an hour it lands on
    // what the steady solve returns.
    one_node_fixture f;
    rc_batch b = f.lane();
    advance(b, 3600.0, 5.0);
    EXPECT_NEAR(b.temperature(f.n, 0).value(), 50.0, 0.01);
    const double integrated = b.temperature(f.n, 0).value();
    b.settle_lane(0);
    EXPECT_NEAR(b.temperature(f.n, 0).value(), integrated, 0.01);
}

TEST(RcNetwork, TwoNodeSteadyState) {
    // die --G1-- sink --G2-- ambient, power only at die.
    rc_network net(util::celsius_t{20.0});
    const auto die = net.add_node(10.0);
    const auto sink = net.add_node(100.0);
    net.add_edge(die, sink, 5.0);       // R = 0.2
    net.add_ambient_edge(sink, 2.0);    // R = 0.5
    rc_batch b(net, 1);
    b.set_power(die, 0, util::watts_t{30.0});
    b.settle_lane(0);
    EXPECT_NEAR(b.temperature(sink, 0).value(), 20.0 + 30.0 * 0.5, 1e-9);
    EXPECT_NEAR(b.temperature(die, 0).value(), 20.0 + 30.0 * 0.7, 1e-9);
}

TEST(RcNetwork, HeatFlowConservation) {
    // At steady state all injected power must exit through ambient edges.
    rc_network net(util::celsius_t{25.0});
    const auto a = net.add_node(10.0);
    const auto b = net.add_node(20.0);
    net.add_edge(a, b, 3.0);
    net.add_ambient_edge(a, 1.0);
    net.add_ambient_edge(b, 2.0);
    rc_batch lane(net, 1);
    lane.set_power(a, 0, util::watts_t{12.0});
    lane.set_power(b, 0, util::watts_t{8.0});
    lane.settle_lane(0);
    const double out = 1.0 * (lane.temperature(a, 0).value() - 25.0) +
                       2.0 * (lane.temperature(b, 0).value() - 25.0);
    EXPECT_NEAR(out, 20.0, 1e-9);
}

TEST(RcNetwork, IsolatedNodeSteadySingular) {
    rc_network net(util::celsius_t{25.0});
    const auto n = net.add_node(10.0);
    rc_batch b(net, 1);
    b.set_power(n, 0, util::watts_t{5.0});
    EXPECT_THROW(b.settle_lane(0), util::numeric_error);
}

TEST(RcNetwork, ConductanceUpdateChangesSteadyState) {
    one_node_fixture f;
    const auto e2 = f.net.add_ambient_edge(f.n, 3.0);  // total G = 5
    rc_batch b = f.lane();
    b.settle_lane(0);
    EXPECT_NEAR(b.temperature(f.n, 0).value(), 35.0, 1e-9);
    b.set_conductance(e2, 0, 0.0);
    b.settle_lane(0);
    EXPECT_NEAR(b.temperature(f.n, 0).value(), 50.0, 1e-9);
}

TEST(RcNetwork, Rk4TracksConductanceChanges) {
    one_node_fixture f;
    const auto e2 = f.net.add_ambient_edge(f.n, 0.0);
    rc_batch b = f.lane();
    advance(b, 600.0, 1.0);
    // Double the conductance mid-flight; the stable substep and the
    // derivatives must follow.
    b.set_conductance(e2, 0, 2.0);
    advance(b, 3600.0, 1.0);
    EXPECT_NEAR(b.temperature(f.n, 0).value(), 25.0 + 50.0 / 4.0, 0.05);
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
    const auto e = net.add_edge(a, b, 1.0);
    rc_batch lane(net, 1);
    EXPECT_THROW(lane.set_conductance(e, 0, -1.0), util::precondition_error);
}

TEST(RcNetwork, NonFinitePowerThrows) {
    one_node_fixture f;
    rc_batch b = f.lane();
    EXPECT_THROW(b.set_power(f.n, 0, util::watts_t{std::nan("")}), util::precondition_error);
}

TEST(RcNetwork, StableExplicitStepScalesWithStiffness) {
    one_node_fixture slow;  // tau = 50 s
    rc_network fast_net(util::celsius_t{25.0});
    const auto n = fast_net.add_node(1.0);
    fast_net.add_ambient_edge(n, 10.0);  // tau = 0.1 s
    EXPECT_GT(slow.lane().stable_dt(0), rc_batch(fast_net, 1).stable_dt(0));
}

TEST(RcNetwork, StiffNetworkStableAtLargeStep) {
    // RK4 must sub-step rather than blow up.
    rc_network net(util::celsius_t{25.0});
    const auto n = net.add_node(0.5);
    net.add_ambient_edge(n, 20.0);  // tau = 0.025 s
    rc_batch b(net, 1);
    b.set_power(n, 0, util::watts_t{10.0});
    advance(b, 10.0, 1.0);
    EXPECT_NEAR(b.temperature(n, 0).value(), 25.5, 1e-3);
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
