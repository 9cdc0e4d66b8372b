#include "thermal/rc_batch.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ltsc::thermal {

rc_batch::rc_batch(const rc_network& topology, std::size_t lanes)
    : topo_(topology), lanes_(lanes), nodes_(topology.node_count()) {
    util::ensure(lanes_ > 0, "rc_batch: need at least one lane");
    util::ensure(nodes_ > 0, "rc_batch: empty topology");
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
    scratch_.t0.resize(total);
    scratch_.tmp.resize(total);
    scratch_.k1.resize(total);
    scratch_.k2.resize(total);
    scratch_.k3.resize(total);
    scratch_.k4.resize(total);
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
    double* diag = scratch_.rhs.data();
    topo_.lane_diagonal_into(lanes_, lane, edge_g_.data(), diag);
    // Forward Euler on dT/dt = -T/tau is stable for dt < 2*tau; keep a
    // 10 % safety margin (tau_i = C_i / L_ii).
    double min_ratio = 1e30;
    for (std::size_t i = 0; i < nodes_; ++i) {
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
    if (count == 0) {
        return;
    }
    // Each lane sub-steps against its own stability bound; masked-out
    // lanes take zero substeps.  When every lane is active with the same
    // count (the common case) the loop runs unmasked.
    int max_sub = 0;
    bool uniform = true;
    for (std::size_t l = 0; l < count; ++l) {
        int sub = 0;
        double h = 0.0;
        if (active == nullptr || active[l] != 0) {
            refresh_lane_cache(l);
            sub = std::max(1, static_cast<int>(std::ceil(dt.value() / stable_dt_[l])));
            h = dt.value() / sub;
        }
        scratch_.substeps[l] = sub;
        scratch_.h[l] = h;
        max_sub = std::max(max_sub, sub);
        uniform = uniform && sub == scratch_.substeps[0];
    }
    if (uniform) {
        step_uniform(count, max_sub, scratch_.h[0]);
    } else {
        step_ragged(count, max_sub);
    }
    if (validate_) {
        for (double t : temps_) {
            util::ensure_numeric(std::isfinite(t), "rc_batch::step: non-finite temperature");
        }
    }
}

void rc_batch::step_uniform(std::size_t count, int substeps, double h) {
    std::copy(temps_.begin(), temps_.end(), scratch_.t0.begin());
    double* t0 = scratch_.t0.data();
    double* tmp = scratch_.tmp.data();
    double* k1 = scratch_.k1.data();
    double* k2 = scratch_.k2.data();
    double* k3 = scratch_.k3.data();
    double* k4 = scratch_.k4.data();
    const auto derivs = [&](const double* at, double* out) {
        topo_.batch_derivatives_into(lanes_, count, at, powers_.data(), capacities_.data(),
                                     ambient_.data(), edge_g_.data(), out);
    };
    // Visits every (node, stepped lane) cell; one flat sweep when the
    // whole batch steps.
    const auto cells = [&](const auto& update) {
        if (count == lanes_) {
            for (std::size_t i = 0; i < nodes_ * lanes_; ++i) {
                update(i);
            }
            return;
        }
        for (std::size_t n = 0; n < nodes_; ++n) {
            for (std::size_t i = n * lanes_; i < n * lanes_ + count; ++i) {
                update(i);
            }
        }
    };
    for (int s = 0; s < substeps; ++s) {
        derivs(t0, k1);
        cells([&](std::size_t i) { tmp[i] = t0[i] + 0.5 * h * k1[i]; });
        derivs(tmp, k2);
        cells([&](std::size_t i) { tmp[i] = t0[i] + 0.5 * h * k2[i]; });
        derivs(tmp, k3);
        cells([&](std::size_t i) { tmp[i] = t0[i] + h * k3[i]; });
        derivs(tmp, k4);
        cells([&](std::size_t i) {
            t0[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        });
    }
    temps_.swap(scratch_.t0);
}

void rc_batch::step_ragged(std::size_t count, int max_sub) {
    std::copy(temps_.begin(), temps_.end(), scratch_.t0.begin());
    double* t0 = scratch_.t0.data();
    double* tmp = scratch_.tmp.data();
    double* k1 = scratch_.k1.data();
    double* k2 = scratch_.k2.data();
    double* k3 = scratch_.k3.data();
    double* k4 = scratch_.k4.data();
    const double* h = scratch_.h.data();
    const int* sub = scratch_.substeps.data();
    const auto derivs = [&](const double* at, double* out) {
        topo_.batch_derivatives_into(lanes_, count, at, powers_.data(), capacities_.data(),
                                     ambient_.data(), edge_g_.data(), out);
    };
    // The same per-lane update sequence as step_uniform; a lane whose own
    // substeps are done is skipped for the rest of the shared loop.
    for (int s = 0; s < max_sub; ++s) {
        const auto stage = [&](const double* k, double factor) {
            for (std::size_t i = 0; i < nodes_; ++i) {
                const std::size_t base = i * lanes_;
                for (std::size_t l = 0; l < count; ++l) {
                    if (s < sub[l]) {
                        tmp[base + l] = t0[base + l] + factor * h[l] * k[base + l];
                    }
                }
            }
        };
        derivs(t0, k1);
        stage(k1, 0.5);
        derivs(tmp, k2);
        stage(k2, 0.5);
        derivs(tmp, k3);
        stage(k3, 1.0);
        derivs(tmp, k4);
        for (std::size_t i = 0; i < nodes_; ++i) {
            const std::size_t base = i * lanes_;
            for (std::size_t l = 0; l < count; ++l) {
                if (s < sub[l]) {
                    t0[base + l] += h[l] / 6.0 *
                                    (k1[base + l] + 2.0 * k2[base + l] + 2.0 * k3[base + l] +
                                     k4[base + l]);
                }
            }
        }
    }
    temps_.swap(scratch_.t0);
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
