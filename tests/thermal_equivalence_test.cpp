// Equivalence suite for the one thermal integrator and steady solver.
//
// rc_batch promises numerics *bitwise identical* to the seed rc_network +
// transient_solver on the paper server network, for any lane count.  This
// suite holds it to that: a `reference` model per lane carries verbatim
// copies of the seed algorithms (interleaved edge walk, per-step matrix
// assembly, per-solve LU), and a `twin` applies every mutation to both
// the batch lane and its reference.  Any divergence — including a stale
// per-lane cache (diagonal, stable substep, LU factorization) after a
// mid-run conductance or ambient change — shows up as an exact-comparison
// failure.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "server_network.hpp"
#include "thermal/rc_batch.hpp"
#include "thermal/rc_network.hpp"
#include "util/error.hpp"
#include "util/matrix.hpp"

namespace {

using namespace ltsc;
using thermal::rc_batch;
using thermal::rc_network;

namespace reference {

// Seed data layout: one interleaved edge list, walked in insertion order.
struct edge {
    std::size_t a = 0;
    std::size_t b = 0;
    bool to_ambient = false;
    double conductance = 0.0;
};

// Verbatim port of the seed rc_network + transient_solver numerics.
struct model {
    double ambient = 0.0;
    std::vector<double> capacities;
    std::vector<double> temps;
    std::vector<double> powers;
    std::vector<edge> edges;

    [[nodiscard]] std::vector<double> derivatives(const std::vector<double>& t) const {
        std::vector<double> flow(capacities.size(), 0.0);
        for (const edge& e : edges) {
            if (e.to_ambient) {
                flow[e.a] += e.conductance * (ambient - t[e.a]);
            } else {
                const double q = e.conductance * (t[e.b] - t[e.a]);
                flow[e.a] += q;
                flow[e.b] -= q;
            }
        }
        for (std::size_t i = 0; i < flow.size(); ++i) {
            flow[i] = (flow[i] + powers[i]) / capacities[i];
        }
        return flow;
    }

    [[nodiscard]] util::matrix conductance_matrix() const {
        util::matrix l(capacities.size(), capacities.size());
        for (const edge& e : edges) {
            if (e.to_ambient) {
                l(e.a, e.a) += e.conductance;
            } else {
                l(e.a, e.a) += e.conductance;
                l(e.b, e.b) += e.conductance;
                l(e.a, e.b) -= e.conductance;
                l(e.b, e.a) -= e.conductance;
            }
        }
        return l;
    }

    [[nodiscard]] std::vector<double> source_vector() const {
        std::vector<double> rhs = powers;
        for (const edge& e : edges) {
            if (e.to_ambient) {
                rhs[e.a] += e.conductance * ambient;
            }
        }
        return rhs;
    }

    [[nodiscard]] double stable_explicit_step() const {
        const util::matrix l = conductance_matrix();
        double min_ratio = 1e30;
        for (std::size_t i = 0; i < capacities.size(); ++i) {
            const double g = l(i, i);
            if (g > 0.0) {
                min_ratio = std::min(min_ratio, capacities[i] / g);
            }
        }
        return 0.9 * 2.0 * min_ratio;
    }

    void step_rk4(double dt) {
        const double stable = stable_explicit_step();
        const int substeps = std::max(1, static_cast<int>(std::ceil(dt / stable)));
        const double h = dt / substeps;
        std::vector<double> t0 = temps;
        const std::size_t n = t0.size();
        std::vector<double> tmp(n);
        for (int s = 0; s < substeps; ++s) {
            const std::vector<double> k1 = derivatives(t0);
            for (std::size_t i = 0; i < n; ++i) {
                tmp[i] = t0[i] + 0.5 * h * k1[i];
            }
            const std::vector<double> k2 = derivatives(tmp);
            for (std::size_t i = 0; i < n; ++i) {
                tmp[i] = t0[i] + 0.5 * h * k2[i];
            }
            const std::vector<double> k3 = derivatives(tmp);
            for (std::size_t i = 0; i < n; ++i) {
                tmp[i] = t0[i] + h * k3[i];
            }
            const std::vector<double> k4 = derivatives(tmp);
            for (std::size_t i = 0; i < n; ++i) {
                t0[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
            }
        }
        temps = t0;
    }

    [[nodiscard]] std::vector<double> steady_state() const {
        return util::solve(conductance_matrix(), source_vector());
    }
};

}  // namespace reference

/// The paper server network (mirrors server_thermal_model's topology and
/// calibration constants): 2 dies, 2 sinks, 1 DIMM bank.  Internal edges
/// precede each node's ambient edge exactly as in the production builder.
/// `ref` receives the matching seed model.
rc_network make_paper_server(reference::model& ref) {
    rc_network net(util::celsius_t{24.0});
    ref = reference::model{};
    ref.ambient = 24.0;
    const auto add_node = [&](double c) {
        ref.capacities.push_back(c);
        ref.temps.push_back(ref.ambient);
        ref.powers.push_back(0.0);
        return net.add_node(c);
    };
    for (int s = 0; s < 2; ++s) {
        const auto die = add_node(60.0);
        const auto sink = add_node(600.0);
        net.add_edge(die, sink, 1.0 / 0.13);
        ref.edges.push_back(reference::edge{die.index, sink.index, false, 1.0 / 0.13});
        net.add_ambient_edge(sink, 2.857);
        ref.edges.push_back(reference::edge{sink.index, 0, true, 2.857});
    }
    const auto dimm = add_node(800.0);
    net.add_ambient_edge(dimm, 5.26);
    ref.edges.push_back(reference::edge{dimm.index, 0, true, 5.26});
    return net;
}

/// An N-lane batch over the paper server with one seed reference per
/// lane; every mutation goes to both, so each lane can be compared
/// exactly against its own reference.
struct twin {
    std::vector<reference::model> ref;
    rc_batch batch;

    explicit twin(std::size_t lanes) : ref(lanes), batch(make_paper_server(ref[0]), lanes) {
        for (std::size_t l = 1; l < lanes; ++l) {
            ref[l] = ref[0];
        }
    }

    void set_conductance(std::size_t lane, std::size_t e, double g) {
        batch.set_conductance(thermal::edge_id{e}, lane, g);
        ref[lane].edges[e].conductance = g;
    }

    void set_power(std::size_t lane, std::size_t n, double w) {
        batch.set_power(thermal::node_id{n}, lane, util::watts_t{w});
        ref[lane].powers[n] = w;
    }

    void set_ambient(std::size_t lane, double c) {
        batch.set_ambient(lane, util::celsius_t{c});
        ref[lane].ambient = c;
    }

    void expect_lane_identical(std::size_t lane, const std::vector<double>& expected,
                               const std::string& where) const {
        ASSERT_EQ(batch.node_count(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
            ASSERT_EQ(batch.temperature(thermal::node_id{i}, lane).value(), expected[i])
                << where << ", lane " << lane << ", node " << i;
        }
    }
};

/// Drives every lane through a hostile schedule: time-varying powers,
/// fan-speed-like conductance changes, and ambient drift, all mid-run so
/// every cache invalidation path is exercised.  Lanes run phase-shifted
/// variants, so their conductances (and hence substep counts) differ.
/// Step k of the hostile schedule for one lane; `variant` phase-shifts it.
void drive_lane(twin& t, std::size_t lane, std::size_t variant, int k) {
    const double phase = 0.9 * static_cast<double>(variant);
    // Power waveform (deterministic, same doubles on both sides).
    t.set_power(lane, 0, 80.0 + 40.0 * std::sin(0.11 * k + phase));
    t.set_power(lane, 2, 75.0 + 35.0 * std::cos(0.07 * k + phase));
    t.set_power(lane, 4, 120.0 + 20.0 * std::sin(0.05 * k + phase));
    // "Fan speed change": rescale the convective conductances.
    if ((k + 5 * static_cast<int>(variant)) % 37 == 13) {
        const double scale = (k % 2 == 0) ? 1.4 : 0.8;
        t.set_conductance(lane, 1, 2.857 * scale);
        t.set_conductance(lane, 3, 2.857 * scale);
        t.set_conductance(lane, 4, 5.26 * scale * (1.0 + 0.1 * static_cast<double>(variant)));
    }
    // Room drift: the derivative must track it with no cached quantity
    // depending on it.
    if ((k + static_cast<int>(variant)) % 53 == 20) {
        t.set_ambient(lane, 24.0 + 0.05 * k);
    }
}

void run_rk4_schedule(std::size_t lanes, double dt) {
    twin t(lanes);
    t.batch.set_validate_steps(true);
    for (int k = 0; k < 240; ++k) {
        for (std::size_t l = 0; l < lanes; ++l) {
            drive_lane(t, l, l, k);
            t.ref[l].step_rk4(dt);
        }
        t.batch.step(util::seconds_t{dt});
        for (std::size_t l = 0; l < lanes; ++l) {
            t.expect_lane_identical(l, t.ref[l].temps, "step " + std::to_string(k));
            if (::testing::Test::HasFatalFailure()) {
                return;
            }
        }
    }
}

TEST(ThermalEquivalence, Rk4BitwiseIdenticalToSeed) {
    // Odd widths leave a remainder after any vectorised lane loop; 8 and
    // 67 are a rack and a fleet shard's order of magnitude.
    for (const std::size_t lanes : {1, 3, 8, 67}) {
        SCOPED_TRACE(lanes);
        run_rk4_schedule(lanes, 5.0);
    }
}

TEST(ThermalEquivalence, MaskedPrefixWithMixedSubstepsMatchesSeed) {
    // Step a prefix of a wider batch under an active mask that changes
    // every step, with lanes whose die-sink conductances give them
    // different substep counts.  Each stepped lane must match its seed
    // reference; masked lanes and lanes past the prefix stay untouched.
    const std::size_t lanes = 9;
    const std::size_t prefix = 7;
    const double dt = 30.0;
    twin t(lanes);
    t.batch.set_validate_steps(true);
    for (std::size_t l = 0; l < lanes; ++l) {
        const double g = (1.0 / 0.13) * (1.0 + 0.6 * static_cast<double>(l));
        t.set_conductance(l, 0, g);
        t.set_conductance(l, 2, g);
    }
    std::vector<int> substeps;
    for (std::size_t l = 0; l < prefix; ++l) {
        substeps.push_back(std::max(1, static_cast<int>(std::ceil(dt / t.batch.stable_dt(l)))));
    }
    ASSERT_NE(substeps.front(), substeps.back());
    std::vector<unsigned char> active(lanes);
    for (int k = 0; k < 120; ++k) {
        for (std::size_t l = 0; l < lanes; ++l) {
            drive_lane(t, l, l, k);
            active[l] = (k + l) % 3 != 0 ? 1 : 0;
            if (l < prefix && active[l] != 0) {
                t.ref[l].step_rk4(dt);
            }
        }
        t.batch.step_prefix(prefix, util::seconds_t{dt}, active.data());
        for (std::size_t l = 0; l < lanes; ++l) {
            t.expect_lane_identical(l, t.ref[l].temps, "step " + std::to_string(k));
            if (::testing::Test::HasFatalFailure()) {
                return;
            }
        }
    }
}

TEST(ThermalEquivalence, OneLanePrefixOfAWiderBatchIsTheOneLaneBatch) {
    // A monitored plant whose twin is dormant steps lane 0 of a 2-lane
    // batch alone.  That lane must integrate bitwise as a 1-lane batch
    // does, while lane 1, driven through a different schedule, is never
    // read and never stepped.
    twin wide(2);
    twin one(1);
    wide.batch.set_validate_steps(true);
    for (int k = 0; k < 240; ++k) {
        drive_lane(wide, 0, 0, k);
        drive_lane(wide, 1, 3, k);
        drive_lane(one, 0, 0, k);
        wide.batch.step_prefix(1, util::seconds_t{5.0});
        one.batch.step(util::seconds_t{5.0});
        for (std::size_t i = 0; i < one.batch.node_count(); ++i) {
            const thermal::node_id n{i};
            ASSERT_EQ(wide.batch.temperature(n, 0).value(), one.batch.temperature(n, 0).value())
                << "step " << k << ", node " << i;
            ASSERT_EQ(wide.batch.temperature(n, 1).value(), 24.0) << "step " << k;
        }
    }
}

void run_steady_rounds(std::size_t lanes) {
    twin t(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
        t.set_power(l, 0, 115.0 + static_cast<double>(l));
        t.set_power(l, 2, 115.0);
        t.set_power(l, 4, 145.0);
    }
    for (int round = 0; round < 4; ++round) {
        for (std::size_t l = 0; l < lanes; ++l) {
            t.batch.settle_lane(l);
            t.expect_lane_identical(l, t.ref[l].steady_state(), "round " + std::to_string(round));
            if (::testing::Test::HasFatalFailure()) {
                return;
            }
        }
        // Mutate between rounds: the cached factorizations must refresh.
        for (std::size_t l = 0; l < lanes; ++l) {
            t.set_conductance(l, 1, 2.857 * (1.0 + 0.25 * (round + 1) + 0.1 * l));
            t.set_ambient(l, 24.0 + round);
            t.set_power(l, 4, 145.0 - 10.0 * round);
        }
    }
}

TEST(ThermalEquivalence, SteadyStateMatchesSeedSolve) {
    run_steady_rounds(1);
    run_steady_rounds(3);
}

TEST(ThermalEquivalence, SettleLaneLuCacheTracksConductanceChanges) {
    // The steady factorization is cached per lane.  Each way a lane's
    // conductances can move must drop exactly that lane's cache: a stale
    // factorization shows up as a solve that differs from the seed's.
    twin t(4);
    for (std::size_t l = 0; l < 4; ++l) {
        t.set_power(l, 0, 100.0 + 5.0 * l);
        t.set_power(l, 2, 90.0);
        t.set_power(l, 4, 140.0);
        t.batch.settle_lane(l);  // warm every lane's cache
    }
    const auto expect_settled = [&](std::size_t lane, const char* where) {
        t.batch.settle_lane(lane);
        t.expect_lane_identical(lane, t.ref[lane].steady_state(), where);
    };

    // 1. set_conductance on the settled lane.
    t.set_conductance(0, 3, 4.1);
    expect_settled(0, "after set_conductance");

    // 2. load_lane_state with different conductances.
    thermal::rc_state state;
    t.batch.save_lane_state(0, state);
    state.edge_g[4] = 7.7;
    state.edge_g[0] = 6.5;
    t.batch.load_lane_state(0, state);
    t.ref[0].edges[4].conductance = 7.7;
    t.ref[0].edges[0].conductance = 6.5;
    t.ref[0].temps = state.temps;
    expect_settled(0, "after load_lane_state");

    // 3. Only lane 1 changes; lanes 2 and 3 keep their (still valid)
    // factorizations, and lane 1 drops its own.
    t.set_conductance(1, 1, 1.9);
    for (std::size_t l = 1; l < 4; ++l) {
        expect_settled(l, "after a lane-1 change");
    }
    // Powers and ambient leave the factorization valid.
    t.set_power(3, 4, 60.0);
    t.set_ambient(3, 30.0);
    expect_settled(3, "after power and ambient moves");
}

TEST(ThermalEquivalence, CachedMatrixTracksConductanceMutation) {
    twin t(2);
    const double before = t.batch.diagonal(thermal::node_id{1}, 0);
    t.set_conductance(0, 1, 9.99);
    EXPECT_NE(before, t.batch.diagonal(thermal::node_id{1}, 0));
    const util::matrix expected = t.ref[0].conductance_matrix();
    util::matrix lane;
    std::vector<double> g(t.batch.topology().edge_count() * 2);
    for (std::size_t e = 0; e < t.batch.topology().edge_count(); ++e) {
        for (std::size_t l = 0; l < 2; ++l) {
            g[e * 2 + l] = t.batch.conductance(thermal::edge_id{e}, l);
        }
    }
    t.batch.topology().lane_conductance_matrix_into(2, 0, g.data(), lane);
    for (std::size_t r = 0; r < expected.rows(); ++r) {
        ASSERT_EQ(t.batch.diagonal(thermal::node_id{r}, 0), expected(r, r)) << "diag " << r;
        for (std::size_t c = 0; c < expected.cols(); ++c) {
            ASSERT_EQ(lane(r, c), expected(r, c)) << "(" << r << "," << c << ")";
        }
    }
    EXPECT_EQ(t.batch.stable_dt(0), t.ref[0].stable_explicit_step());
    // The untouched lane keeps the seed's original values.
    EXPECT_EQ(t.batch.stable_dt(1), t.ref[1].stable_explicit_step());
    EXPECT_EQ(t.batch.diagonal(thermal::node_id{1}, 1), before);
}

TEST(ThermalEquivalence, StepValidationFlagGatesNonFiniteCheck) {
    // With validation on, a state overflowing to infinity throws; with it
    // off, the (cheaper) step completes and the caller owns the check.
    const auto blow_up = [](bool validate) {
        test::server_network_values v;
        v.c_die = 1.0;
        v.c_sink = 1.0;
        rc_batch lane(test::server_network(v), 1);
        // Near-DBL_MAX injection: the RK4 stage sum overflows to inf.
        lane.set_power(thermal::node_id{0}, 0, util::watts_t{1.7e308});
        lane.set_validate_steps(validate);
        for (int i = 0; i < 4; ++i) {
            lane.step(util::seconds_t{1.0});
        }
    };
    EXPECT_THROW(blow_up(true), util::numeric_error);
    EXPECT_NO_THROW(blow_up(false));
}

TEST(ThermalEquivalence, EmptyNetworkKeepsSeedContract) {
    // The seed threw when asked for an empty network's conductance
    // matrix; a batch over an empty topology is rejected the same way.
    rc_network net(util::celsius_t{25.0});
    util::matrix m;
    EXPECT_THROW(net.lane_conductance_matrix_into(1, 0, nullptr, m), util::precondition_error);
    EXPECT_THROW(rc_batch(net, 1), util::precondition_error);
}

}  // namespace
