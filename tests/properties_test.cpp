// Property-based and parameterized sweeps over the library's invariants:
// monotonicity laws, conservation, optimality of the LUT, controller
// safety contracts, and solver agreement — each checked across a grid of
// operating points via TEST_P.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "core/bang_bang_controller.hpp"
#include "core/characterization.hpp"
#include "core/controller_runtime.hpp"
#include "core/default_controller.hpp"
#include "core/lut_controller.hpp"
#include "power/fan_model.hpp"
#include "power/leakage_model.hpp"
#include "server_network.hpp"
#include "sim/experiment.hpp"
#include "sim/server_simulator.hpp"
#include "thermal/rc_batch.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/server_thermal_model.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "workload/paper_tests.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

// --- leakage law properties ---------------------------------------------------

class LeakageTemps : public ::testing::TestWithParam<double> {};

TEST_P(LeakageTemps, StrictlyIncreasingAndConvex) {
    const power::leakage_model m;
    const double t = GetParam();
    const double h = 1.0;
    const double lo = m.at(util::celsius_t{t - h}).value();
    const double mid = m.at(util::celsius_t{t}).value();
    const double hi = m.at(util::celsius_t{t + h}).value();
    EXPECT_GT(mid, lo);
    EXPECT_GT(hi, mid);
    // Exponential is convex: midpoint under the chord.
    EXPECT_LT(mid, 0.5 * (lo + hi));
}

TEST_P(LeakageTemps, ShareScalingExact) {
    const power::leakage_model m;
    const double t = GetParam();
    for (int n : {1, 2, 4, 8}) {
        EXPECT_NEAR(m.share_at(util::celsius_t{t}, n).value() * n,
                    m.at(util::celsius_t{t}).value(), 1e-10);
    }
}

INSTANTIATE_TEST_SUITE_P(TemperatureGrid, LeakageTemps,
                         ::testing::Values(30.0, 40.0, 50.0, 55.0, 60.0, 65.0, 70.0, 75.0, 80.0,
                                           85.0, 90.0));

// --- fan law properties ----------------------------------------------------------

class FanRpms : public ::testing::TestWithParam<double> {};

TEST_P(FanRpms, CubicPowerLinearAirflow) {
    const power::fan_pair pair{power::fan_spec{}};
    const double rpm = GetParam();
    const double ratio = rpm / 4200.0;
    EXPECT_NEAR(pair.power(util::rpm_t{rpm}).value(), 16.7 * ratio * ratio * ratio, 1e-9);
    EXPECT_NEAR(pair.airflow(util::rpm_t{rpm}).value(), 51.0 * ratio, 1e-9);
}

TEST_P(FanRpms, MarginalCostGrowsWithSpeed) {
    // d(P)/d(rpm) increases with rpm: spinning faster costs ever more.
    const power::fan_pair pair{power::fan_spec{}};
    const double rpm = GetParam();
    if (rpm + 300.0 > 4200.0) {
        GTEST_SKIP() << "no headroom above " << rpm;
    }
    const double below = pair.power(util::rpm_t{rpm}).value() -
                         pair.power(util::rpm_t{rpm - 300.0}).value();
    const double above = pair.power(util::rpm_t{rpm + 300.0}).value() -
                         pair.power(util::rpm_t{rpm}).value();
    EXPECT_GT(above, below);
}

INSTANTIATE_TEST_SUITE_P(RpmGrid, FanRpms,
                         ::testing::Values(2100.0, 2400.0, 2700.0, 3000.0, 3300.0, 3600.0,
                                           3900.0));

// --- plant monotonicity across utilization -----------------------------------------

class UtilLevels : public ::testing::TestWithParam<double> {};

TEST_P(UtilLevels, SteadyTempDecreasesWithRpm) {
    sim::server_simulator s;
    const double u = GetParam();
    double prev = 1e9;
    for (double rpm : {1800.0, 2400.0, 3000.0, 3600.0, 4200.0}) {
        const auto p = sim::measure_steady_point(s, u, util::rpm_t{rpm});
        EXPECT_LT(p.avg_cpu_temp_c, prev) << "u=" << u << " rpm=" << rpm;
        prev = p.avg_cpu_temp_c;
    }
}

TEST_P(UtilLevels, TotalPowerDecomposesExactly) {
    sim::server_simulator s;
    const double u = GetParam();
    const auto p = sim::measure_steady_point(s, u, 3000_rpm);
    EXPECT_NEAR(p.total_power_w,
                sim::paper_server().base_power_w + p.active_power_w + p.leakage_power_w +
                    p.fan_power_w,
                1e-6);
}

TEST_P(UtilLevels, FanLeakTradeoffBounded) {
    // At every utilization the optimum fan+leakage cost is within the
    // bracket set by its neighbours (convexity along the RPM axis near the
    // optimum).
    sim::server_simulator s;
    const double u = GetParam();
    std::vector<double> costs;
    for (double rpm : {1800.0, 2400.0, 3000.0, 3600.0, 4200.0}) {
        const auto p = sim::measure_steady_point(s, u, util::rpm_t{rpm});
        costs.push_back(p.fan_power_w + p.leakage_power_w);
    }
    const auto min_it = std::min_element(costs.begin(), costs.end());
    // The cost curve rises monotonically moving away from the minimum.
    for (auto it = min_it; it + 1 != costs.end(); ++it) {
        EXPECT_LE(*it, *(it + 1) + 1e-9);
    }
    for (auto it = min_it; it != costs.begin(); --it) {
        EXPECT_LE(*it, *(it - 1) + 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(PaperUtilGrid, UtilLevels,
                         ::testing::Values(10.0, 25.0, 40.0, 50.0, 60.0, 75.0, 90.0, 100.0));

// --- LUT optimality ------------------------------------------------------------------

class LutOptimality : public ::testing::TestWithParam<double> {
protected:
    static void SetUpTestSuite() {
        sim_ = new sim::server_simulator();
        result_ = new core::characterization_result(core::characterize(*sim_));
    }
    static void TearDownTestSuite() {
        delete result_;
        delete sim_;
        sim_ = nullptr;
        result_ = nullptr;
    }
    static sim::server_simulator* sim_;
    static core::characterization_result* result_;
};

sim::server_simulator* LutOptimality::sim_ = nullptr;
core::characterization_result* LutOptimality::result_ = nullptr;

TEST_P(LutOptimality, ChosenRpmMinimizesFanPlusLeakageUnderCap) {
    const double u = GetParam();
    const double chosen = result_->lut.lookup(u).value();
    double chosen_cost = 0.0;
    double best_cost = 1e18;
    for (const auto& p : result_->sweep) {
        if (std::fabs(p.utilization_pct - u) > 1e-9) {
            continue;
        }
        const double cost = p.fan_power_w + result_->fit.leakage_at(p.avg_cpu_temp_c);
        if (std::fabs(p.fan_rpm - chosen) < 1.0) {
            chosen_cost = cost;
        }
        if (p.avg_cpu_temp_c <= 75.0) {
            best_cost = std::min(best_cost, cost);
        }
    }
    EXPECT_NEAR(chosen_cost, best_cost, 1e-9) << "u=" << u;
}

INSTANTIATE_TEST_SUITE_P(PaperUtilGrid, LutOptimality,
                         ::testing::Values(10.0, 25.0, 40.0, 50.0, 60.0, 75.0, 90.0, 100.0));

// --- controller safety across all paper tests ---------------------------------------

struct safety_case {
    workload::paper_test test;
    const char* controller;
};

class ControllerSafety : public ::testing::TestWithParam<safety_case> {};

TEST_P(ControllerSafety, TemperatureAndRateContracts) {
    const auto [test, controller_name] = GetParam();
    sim::server_simulator s;
    std::unique_ptr<core::fan_controller> controller;
    if (std::string(controller_name) == "Bang") {
        controller = std::make_unique<core::bang_bang_controller>();
    } else if (std::string(controller_name) == "LUT") {
        controller = std::make_unique<core::lut_controller>(core::characterize(s).lut);
    } else {
        controller = std::make_unique<core::default_controller>();
    }
    const auto profile = workload::make_paper_test(test);
    const auto m = core::run_controlled(s, *controller, profile);

    // Safety: never approach the 90 degC critical threshold.
    EXPECT_LT(m.max_temp_c, 85.0);
    // Fans always inside the legal range.
    EXPECT_GE(s.trace().avg_fan_rpm().min(), 1800.0 - 1e-9);
    EXPECT_LE(s.trace().avg_fan_rpm().max(), 4200.0 + 1e-9);

    // LUT rate limit: at most one change per minute outside emergencies.
    if (std::string(controller_name) == "LUT") {
        const util::column_view rpm = s.trace().avg_fan_rpm();
        double last_change = -1e9;
        for (std::size_t i = 1; i < rpm.size(); ++i) {
            if (rpm.at(i).v != rpm.at(i - 1).v) {
                EXPECT_GE(rpm.at(i).t - last_change, 59.0)
                    << "LUT changed twice within a minute at t=" << rpm.at(i).t;
                last_change = rpm.at(i).t;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllTestsAllControllers, ControllerSafety,
    ::testing::Values(safety_case{workload::paper_test::test1_ramp, "Default"},
                      safety_case{workload::paper_test::test1_ramp, "Bang"},
                      safety_case{workload::paper_test::test1_ramp, "LUT"},
                      safety_case{workload::paper_test::test2_periods, "Bang"},
                      safety_case{workload::paper_test::test2_periods, "LUT"},
                      safety_case{workload::paper_test::test3_frequent, "Bang"},
                      safety_case{workload::paper_test::test3_frequent, "LUT"},
                      safety_case{workload::paper_test::test4_poisson, "Bang"},
                      safety_case{workload::paper_test::test4_poisson, "LUT"}),
    [](const ::testing::TestParamInfo<safety_case>& info) {
        return std::string("T") +
               std::to_string(static_cast<int>(info.param.test)) + info.param.controller;
    });

// --- solver self-convergence ----------------------------------------------------------

class SolverSteps : public ::testing::TestWithParam<double> {};

TEST_P(SolverSteps, Rk4SelfConvergesOnServerTransient) {
    // A 10-minute warm-up of the paper server from ambient: the plant at
    // dt and at dt/4 must agree to well under the sensors' quantum.  The
    // DIMM preheat is held over each step (injected at the step's start),
    // so the plant as a whole is first order in dt even though each
    // thermal step is RK4: the bound scales with dt.
    const double dt = GetParam();
    const auto run = [](double h) {
        thermal::server_thermal_model m;
        for (std::size_t s = 0; s < 2; ++s) {
            m.set_cpu_heat(0, s, util::watts_t{115.0});
        }
        m.set_dimm_heat(0, util::watts_t{145.0});
        const int steps = static_cast<int>(std::lround(600.0 / h));
        for (int k = 0; k < steps; ++k) {
            m.step(util::seconds_t{h});
        }
        return m.average_cpu_temp(0).value();
    };
    const double coarse = run(dt);
    const double fine = run(dt / 4.0);
    EXPECT_GT(coarse, 50.0) << "dt=" << dt;
    EXPECT_NEAR(coarse, fine, 2e-3 * dt) << "dt=" << dt;
}

INSTANTIATE_TEST_SUITE_P(StepSizes, SolverSteps, ::testing::Values(0.5, 1.0, 2.0, 5.0));

// --- random RC networks: steady-state conservation ------------------------------------------

class RandomNetworks : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomNetworks, SteadyStateConservesHeat) {
    // Build a random connected network with random ambient couplings and
    // verify that, at the solved steady state, injected power equals the
    // power leaving through the ambient edges (global heat balance).  The
    // steady system comes from rc_network's lane helpers, which serve any
    // network; rc_batch integrates the server network only, so the
    // transient half draws a random calibration of that network.
    util::pcg32 rng(GetParam());
    const double ambient_c = 20.0 + rng.uniform(0.0, 15.0);
    thermal::rc_network net(util::celsius_t{ambient_c});
    const std::size_t n = 3 + rng.next_u32() % 8;
    std::vector<thermal::node_id> nodes;
    for (std::size_t i = 0; i < n; ++i) {
        nodes.push_back(net.add_node(rng.uniform(5.0, 500.0)));
    }
    // Spanning chain keeps it connected; extra random edges add loops.
    for (std::size_t i = 1; i < n; ++i) {
        net.add_edge(nodes[i - 1], nodes[i], rng.uniform(0.5, 20.0));
    }
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j = rng.next_u32() % n;
        if (j != i) {
            net.add_edge(nodes[i], nodes[j], rng.uniform(0.1, 5.0));
        }
    }
    // At least one ambient path plus random extras.
    std::vector<double> ambient_g(n, 0.0);
    ambient_g[0] = rng.uniform(0.5, 5.0);
    net.add_ambient_edge(nodes[0], ambient_g[0]);
    for (std::size_t i = 1; i < n; ++i) {
        if (rng.next_double() < 0.5) {
            ambient_g[i] = rng.uniform(0.1, 3.0);
            net.add_ambient_edge(nodes[i], ambient_g[i]);
        }
    }
    std::vector<double> powers(n);
    double injected = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        powers[i] = rng.uniform(0.0, 150.0);
        injected += powers[i];
    }
    std::vector<double> edge_g(net.edge_count());
    for (std::size_t e = 0; e < edge_g.size(); ++e) {
        edge_g[e] = net.conductance(thermal::edge_id{e});
    }
    util::matrix cond;
    net.lane_conductance_matrix_into(1, 0, edge_g.data(), cond);
    std::vector<double> rhs;
    net.lane_source_vector_into(1, 0, powers.data(), ambient_c, edge_g.data(), rhs);
    const std::vector<double> temps = util::solve(cond, rhs);
    double out_through_ambient = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        out_through_ambient += ambient_g[i] * (temps[i] - ambient_c);
    }
    EXPECT_NEAR(out_through_ambient, injected, 1e-6 * std::max(1.0, injected));

    // The transient solution relaxes to the steady state, on a random
    // calibration of the server network with every node powered.
    test::server_network_values v;
    v.ambient_c = ambient_c;
    v.c_die = rng.uniform(5.0, 500.0);
    v.c_sink = rng.uniform(5.0, 500.0);
    v.c_dimm = rng.uniform(5.0, 500.0);
    v.g_die_sink = rng.uniform(0.5, 20.0);
    v.g_sink = rng.uniform(0.5, 5.0);
    v.g_dimm = rng.uniform(0.5, 5.0);
    thermal::rc_batch steady(test::server_network(v), 1);
    steady.set_conductance(test::sink1_ambient, 0, rng.uniform(0.5, 5.0));
    for (std::size_t i = 0; i < steady.node_count(); ++i) {
        steady.set_power(thermal::node_id{i}, 0, util::watts_t{rng.uniform(0.0, 150.0)});
    }
    thermal::rc_batch transient = steady;
    steady.settle_lane(0);
    for (int k = 0; k < 10000; ++k) {
        transient.step(util::seconds_t{5.0});
    }
    for (std::size_t i = 0; i < steady.node_count(); ++i) {
        const thermal::node_id node{i};
        EXPECT_NEAR(transient.temperature(node, 0).value(), steady.temperature(node, 0).value(),
                    0.05)
            << "node " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetworks,
                         ::testing::Values(1U, 2U, 3U, 5U, 8U, 13U, 21U, 34U, 55U, 89U));

// --- conservation and determinism ----------------------------------------------------------

class PaperTestIds : public ::testing::TestWithParam<workload::paper_test> {};

TEST_P(PaperTestIds, EnergyDecomposesAcrossTrace) {
    sim::server_simulator s;
    core::default_controller dflt;
    const auto profile = workload::make_paper_test(GetParam());
    (void)core::run_controlled(s, dflt, profile);
    const auto& tr = s.trace();
    const double base_j = sim::paper_server().base_power_w * tr.total_power().duration();
    const double sum = base_j + tr.active_power().integrate() + tr.leakage_power().integrate() +
                       tr.fan_power().integrate();
    EXPECT_NEAR(tr.total_power().integrate(), sum, 1.0);
}

TEST_P(PaperTestIds, RunsAreDeterministic) {
    const auto profile = workload::make_paper_test(GetParam());
    sim::server_simulator s1;
    sim::server_simulator s2;
    core::bang_bang_controller c1;
    core::bang_bang_controller c2;
    const auto m1 = core::run_controlled(s1, c1, profile);
    const auto m2 = core::run_controlled(s2, c2, profile);
    EXPECT_DOUBLE_EQ(m1.energy_kwh, m2.energy_kwh);
    EXPECT_DOUBLE_EQ(m1.max_temp_c, m2.max_temp_c);
    EXPECT_EQ(m1.fan_changes, m2.fan_changes);
}

INSTANTIATE_TEST_SUITE_P(AllPaperTests, PaperTestIds,
                         ::testing::Values(workload::paper_test::test1_ramp,
                                           workload::paper_test::test2_periods,
                                           workload::paper_test::test3_frequent,
                                           workload::paper_test::test4_poisson),
                         [](const ::testing::TestParamInfo<workload::paper_test>& info) {
                             return std::string("Test") +
                                    std::to_string(static_cast<int>(info.param));
                         });

}  // namespace
