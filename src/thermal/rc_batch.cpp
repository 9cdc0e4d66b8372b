#include "thermal/rc_batch.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ltsc::thermal {

namespace {

// The server network's size and edge list (see the header comment).
constexpr std::size_t k_nodes = 5;
constexpr std::size_t k_edges = 5;

bool is_server_network(const rc_network& net) {
    if (net.node_count() != k_nodes || net.edge_count() != k_edges) {
        return false;
    }
    const rc_network::edge_ends want[k_edges] = {
        {0, 1, false}, {1, 0, true}, {2, 3, false}, {3, 0, true}, {4, 0, true}};
    for (std::size_t e = 0; e < k_edges; ++e) {
        const rc_network::edge_ends got = net.ends(edge_id{e});
        if (got.a != want[e].a || got.to_ambient != want[e].to_ambient ||
            (!got.to_ambient && got.b != want[e].b)) {
            return false;
        }
    }
    return true;
}

/// One lane's step inputs, node and edge order.
struct lane_inputs {
    double g[k_edges] = {};
    double p[k_nodes] = {};
    double c[k_nodes] = {};
    double ambient = 0.0;
};

/// dT/dt of one lane at `x`: flows accumulate from zero in edge
/// insertion order (`-= q` on an internal edge's b side), then
/// (flow + power) / capacity per node.
inline void derivatives(const lane_inputs& in, const double (&x)[k_nodes], double (&k)[k_nodes]) {
    double f[k_nodes] = {0.0, 0.0, 0.0, 0.0, 0.0};
    const double q0 = in.g[0] * (x[1] - x[0]);
    f[0] += q0;
    f[1] -= q0;
    f[1] += in.g[1] * (in.ambient - x[1]);
    const double q2 = in.g[2] * (x[3] - x[2]);
    f[2] += q2;
    f[3] -= q2;
    f[3] += in.g[3] * (in.ambient - x[3]);
    f[4] += in.g[4] * (in.ambient - x[4]);
    for (std::size_t i = 0; i < k_nodes; ++i) {
        k[i] = (f[i] + in.p[i]) / in.c[i];
    }
}

}  // namespace

rc_batch::rc_batch(const rc_network& topology, std::size_t lanes)
    : topo_(topology), lanes_(lanes), nodes_(topology.node_count()) {
    util::ensure(lanes_ > 0, "rc_batch: need at least one lane");
    util::ensure(is_server_network(topology), "rc_batch: topology is not the server network");
    const std::size_t total = nodes_ * lanes_;
    temps_.resize(total);
    powers_.assign(total, 0.0);
    capacities_.resize(total);
    ambient_.assign(lanes_, topology.ambient().value());
    for (std::size_t i = 0; i < nodes_; ++i) {
        const double c = topology.heat_capacity(node_id{i});
        for (std::size_t l = 0; l < lanes_; ++l) {
            temps_[i * lanes_ + l] = ambient_[l];
            capacities_[i * lanes_ + l] = c;
        }
    }
    edge_g_.resize(topology.edge_count() * lanes_);
    for (std::size_t e = 0; e < topology.edge_count(); ++e) {
        const double g = topology.conductance(edge_id{e});
        for (std::size_t l = 0; l < lanes_; ++l) {
            edge_g_[e * lanes_ + l] = g;
        }
    }
    diag_.assign(total, 0.0);
    stable_dt_.assign(lanes_, 0.0);
    lane_dirty_.assign(lanes_, 1);
    lu_.resize(lanes_);
    scratch_.substeps.resize(lanes_);
    scratch_.h.resize(lanes_);
    scratch_.rhs.resize(nodes_);
    scratch_.x.resize(nodes_);
}

void rc_batch::set_temperature(node_id n, std::size_t lane, util::celsius_t t) {
    util::ensure(n.index < nodes_ && lane < lanes_, "rc_batch::set_temperature: out of range");
    util::ensure(std::isfinite(t.value()), "rc_batch::set_temperature: non-finite temperature");
    temps_[n.index * lanes_ + lane] = t.value();
}

void rc_batch::set_heat_capacity(node_id n, std::size_t lane, double c) {
    util::ensure(n.index < nodes_ && lane < lanes_, "rc_batch::set_heat_capacity: out of range");
    util::ensure(c > 0.0, "rc_batch::set_heat_capacity: non-positive heat capacity");
    if (capacities_[n.index * lanes_ + lane] != c) {
        capacities_[n.index * lanes_ + lane] = c;
        lane_dirty_[lane] = 1;
    }
}

void rc_batch::set_ambient(std::size_t lane, util::celsius_t t) {
    util::ensure(lane < lanes_, "rc_batch::set_ambient: lane out of range");
    util::ensure(std::isfinite(t.value()), "rc_batch::set_ambient: non-finite ambient");
    ambient_[lane] = t.value();
}

void rc_batch::set_conductance(edge_id e, std::size_t lane, double conductance_w_per_k) {
    util::ensure(e.index < topo_.edge_count() && lane < lanes_,
                 "rc_batch::set_conductance: out of range");
    util::ensure(conductance_w_per_k >= 0.0, "rc_batch::set_conductance: negative conductance");
    if (edge_g_[e.index * lanes_ + lane] != conductance_w_per_k) {
        edge_g_[e.index * lanes_ + lane] = conductance_w_per_k;
        lane_dirty_[lane] = 1;
        lu_[lane].reset();
    }
}

double rc_batch::conductance(edge_id e, std::size_t lane) const {
    util::ensure(e.index < topo_.edge_count() && lane < lanes_,
                 "rc_batch::conductance: out of range");
    return edge_g_[e.index * lanes_ + lane];
}

void rc_batch::save_lane_state(std::size_t lane, rc_state& out) const {
    util::ensure(lane < lanes_, "rc_batch::save_lane_state: lane out of range");
    out.temps.resize(nodes_);
    out.powers.resize(nodes_);
    for (std::size_t i = 0; i < nodes_; ++i) {
        out.temps[i] = temps_[i * lanes_ + lane];
        out.powers[i] = powers_[i * lanes_ + lane];
    }
    const std::size_t edges = topo_.edge_count();
    out.edge_g.resize(edges);
    for (std::size_t e = 0; e < edges; ++e) {
        out.edge_g[e] = edge_g_[e * lanes_ + lane];
    }
    out.ambient_c = ambient_[lane];
}

void rc_batch::check_lane_state(const rc_state& state) const {
    util::ensure(state.temps.size() == nodes_ && state.powers.size() == nodes_ &&
                     state.edge_g.size() == topo_.edge_count(),
                 "rc_batch::load_lane_state: state does not match topology");
    for (std::size_t i = 0; i < nodes_; ++i) {
        util::ensure(std::isfinite(state.temps[i]), "rc_batch: non-finite state temperature");
        util::ensure(std::isfinite(state.powers[i]), "rc_batch: non-finite state power");
    }
    for (const double g : state.edge_g) {
        util::ensure(g >= 0.0, "rc_batch: negative state conductance");
    }
    util::ensure(std::isfinite(state.ambient_c), "rc_batch: non-finite state ambient");
}

void rc_batch::load_lane_state(std::size_t lane, const rc_state& state) {
    util::ensure(lane < lanes_, "rc_batch::load_lane_state: lane out of range");
    check_lane_state(state);
    for (std::size_t i = 0; i < nodes_; ++i) {
        set_temperature(node_id{i}, lane, util::celsius_t{state.temps[i]});
        set_power(node_id{i}, lane, util::watts_t{state.powers[i]});
    }
    for (std::size_t e = 0; e < state.edge_g.size(); ++e) {
        set_conductance(edge_id{e}, lane, state.edge_g[e]);
    }
    set_ambient(lane, util::celsius_t{state.ambient_c});
}

void rc_batch::refresh_lane_cache(std::size_t lane) const {
    if (!lane_dirty_[lane]) {
        return;
    }
    // Each node's conductance-matrix diagonal, accumulated from zero in
    // edge insertion order.
    const auto g = [&](std::size_t e) { return edge_g_[e * lanes_ + lane]; };
    const double diag[k_nodes] = {0.0 + g(0), 0.0 + g(0) + g(1), 0.0 + g(2), 0.0 + g(2) + g(3),
                                  0.0 + g(4)};
    // Forward Euler on dT/dt = -T/tau is stable for dt < 2*tau; keep a
    // 10 % safety margin (tau_i = C_i / L_ii).
    double min_ratio = 1e30;
    for (std::size_t i = 0; i < k_nodes; ++i) {
        diag_[i * lanes_ + lane] = diag[i];
        if (diag[i] > 0.0) {
            min_ratio = std::min(min_ratio, capacities_[i * lanes_ + lane] / diag[i]);
        }
    }
    stable_dt_[lane] = 0.9 * 2.0 * min_ratio;
    lane_dirty_[lane] = 0;
}

double rc_batch::diagonal(node_id n, std::size_t lane) const {
    util::ensure(n.index < nodes_ && lane < lanes_, "rc_batch::diagonal: out of range");
    refresh_lane_cache(lane);
    return diag_[n.index * lanes_ + lane];
}

double rc_batch::stable_dt(std::size_t lane) const {
    util::ensure(lane < lanes_, "rc_batch::stable_dt: lane out of range");
    refresh_lane_cache(lane);
    return stable_dt_[lane];
}

void rc_batch::step_prefix(std::size_t count, util::seconds_t dt, const unsigned char* active) {
    util::ensure(dt.value() > 0.0, "rc_batch::step: non-positive dt");
    util::ensure(count <= lanes_, "rc_batch::step_prefix: more lanes than the batch holds");
    // Each lane sub-steps against its own stability bound; masked-out
    // lanes take zero substeps.
    int* const sub = scratch_.substeps.data();
    double* const hs = scratch_.h.data();
    int max_sub = 0;
    for (std::size_t l = 0; l < count; ++l) {
        sub[l] = 0;
        hs[l] = 0.0;
        if (active == nullptr || active[l] != 0) {
            refresh_lane_cache(l);
            sub[l] = std::max(1, static_cast<int>(std::ceil(dt.value() / stable_dt_[l])));
            hs[l] = dt.value() / sub[l];
        }
        max_sub = std::max(max_sub, sub[l]);
    }
    const std::size_t n = lanes_;
    double* const t = temps_.data();
    const double* const p = powers_.data();
    const double* const c = capacities_.data();
    const double* const g = edge_g_.data();
    for (int s = 0; s < max_sub; ++s) {
        for (std::size_t l = 0; l < count; ++l) {
            if (s >= sub[l]) {
                continue;  // masked out, or its own substeps are done
            }
            lane_inputs in{};
            double x0[k_nodes] = {};
            for (std::size_t e = 0; e < k_edges; ++e) {
                in.g[e] = g[e * n + l];
            }
            for (std::size_t i = 0; i < k_nodes; ++i) {
                in.p[i] = p[i * n + l];
                in.c[i] = c[i * n + l];
                x0[i] = t[i * n + l];
            }
            in.ambient = ambient_[l];
            const double h = hs[l];
            double k1[k_nodes] = {};
            double k2[k_nodes] = {};
            double k3[k_nodes] = {};
            double k4[k_nodes] = {};
            double x[k_nodes] = {};
            const auto stage = [&](const double (&k)[k_nodes], double factor) {
                for (std::size_t i = 0; i < k_nodes; ++i) {
                    x[i] = x0[i] + factor * h * k[i];
                }
            };
            derivatives(in, x0, k1);
            stage(k1, 0.5);
            derivatives(in, x, k2);
            stage(k2, 0.5);
            derivatives(in, x, k3);
            stage(k3, 1.0);
            derivatives(in, x, k4);
            for (std::size_t i = 0; i < k_nodes; ++i) {
                t[i * n + l] = x0[i] + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
            }
        }
    }
    if (validate_) {
        for (double v : temps_) {
            util::ensure_numeric(std::isfinite(v), "rc_batch::step: non-finite temperature");
        }
    }
}

void rc_batch::settle_lane(std::size_t lane) {
    util::ensure(lane < lanes_, "rc_batch::settle_lane: lane out of range");
    std::optional<util::lu_decomposition>& lu = lu_[lane];
    if (!lu) {
        topo_.lane_conductance_matrix_into(lanes_, lane, edge_g_.data(), scratch_.cond);
        lu.emplace(scratch_.cond);
    }
    topo_.lane_source_vector_into(lanes_, lane, powers_.data(), ambient_[lane], edge_g_.data(),
                                  scratch_.rhs);
    lu->solve_into(scratch_.rhs, scratch_.x);
    for (std::size_t i = 0; i < nodes_; ++i) {
        util::ensure(std::isfinite(scratch_.x[i]), "rc_batch::settle_lane: non-finite temperature");
        temps_[i * lanes_ + lane] = scratch_.x[i];
    }
}

}  // namespace ltsc::thermal
