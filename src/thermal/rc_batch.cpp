#include "thermal/rc_batch.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ltsc::thermal {

rc_batch::rc_batch(const rc_network& topology, std::size_t lanes, integration_scheme scheme)
    : topo_(topology), lanes_(lanes), nodes_(topology.node_count()), scheme_(scheme) {
    util::ensure(lanes_ > 0, "rc_batch: need at least one lane");
    util::ensure(nodes_ > 0, "rc_batch: empty topology");
    util::ensure(scheme_ != integration_scheme::implicit_euler,
                 "rc_batch: implicit scheme not supported (per-lane factorizations)");
    temps_.resize(nodes_ * lanes_);
    powers_.assign(nodes_ * lanes_, 0.0);
    capacities_.resize(nodes_ * lanes_);
    ambient_.assign(lanes_, topology.ambient().value());
    for (std::size_t i = 0; i < nodes_; ++i) {
        const double t = topology.temperature(node_id{i}).value();
        const double c = topology.heat_capacity(node_id{i});
        for (std::size_t l = 0; l < lanes_; ++l) {
            temps_[i * lanes_ + l] = t;
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
    diag_.assign(nodes_ * lanes_, 0.0);
    stable_dt_.assign(lanes_, 0.0);
    lane_dirty_.assign(lanes_, 1);
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

double rc_batch::heat_capacity(node_id n, std::size_t lane) const {
    util::ensure(n.index < nodes_ && lane < lanes_, "rc_batch::heat_capacity: out of range");
    return capacities_[n.index * lanes_ + lane];
}

void rc_batch::set_ambient(std::size_t lane, util::celsius_t t) {
    util::ensure(lane < lanes_, "rc_batch::set_ambient: lane out of range");
    util::ensure(std::isfinite(t.value()), "rc_batch::set_ambient: non-finite ambient");
    ambient_[lane] = t.value();
}

util::celsius_t rc_batch::ambient(std::size_t lane) const {
    util::ensure(lane < lanes_, "rc_batch::ambient: lane out of range");
    return util::celsius_t{ambient_[lane]};
}

void rc_batch::set_conductance(edge_id e, std::size_t lane, double conductance_w_per_k) {
    util::ensure(e.index < topo_.edge_count() && lane < lanes_,
                 "rc_batch::set_conductance: out of range");
    util::ensure(conductance_w_per_k >= 0.0, "rc_batch::set_conductance: negative conductance");
    if (edge_g_[e.index * lanes_ + lane] != conductance_w_per_k) {
        edge_g_[e.index * lanes_ + lane] = conductance_w_per_k;
        lane_dirty_[lane] = 1;
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

void rc_batch::load_lane_state(std::size_t lane, const rc_state& state) {
    util::ensure(lane < lanes_, "rc_batch::load_lane_state: lane out of range");
    util::ensure(state.temps.size() == nodes_ && state.powers.size() == nodes_ &&
                     state.edge_g.size() == topo_.edge_count(),
                 "rc_batch::load_lane_state: state does not match topology");
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
    scratch_.rhs.resize(nodes_);
    topo_.lane_diagonal_into(lanes_, lane, edge_g_.data(), scratch_.rhs.data());
    for (std::size_t i = 0; i < nodes_; ++i) {
        diag_[i * lanes_ + lane] = scratch_.rhs[i];
    }
    // Same stability bound as rc_network::assembled(): 0.9 * 2 * min C/L_ii.
    double min_ratio = 1e30;
    for (std::size_t i = 0; i < nodes_; ++i) {
        const double g = scratch_.rhs[i];
        if (g > 0.0) {
            min_ratio = std::min(min_ratio, capacities_[i * lanes_ + lane] / g);
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

void rc_batch::step(util::seconds_t dt, const unsigned char* active) {
    util::ensure(dt.value() > 0.0, "rc_batch::step: non-positive dt");
    switch (scheme_) {
        case integration_scheme::explicit_euler:
            step_explicit(dt.value(), active);
            break;
        case integration_scheme::rk4:
            step_rk4(dt.value(), active);
            break;
        case integration_scheme::implicit_euler:
            util::ensure(false, "rc_batch::step: implicit scheme not supported");
            break;
    }
    if (validate_) {
        for (double t : temps_) {
            util::ensure_numeric(std::isfinite(t), "rc_batch::step: non-finite temperature");
        }
    }
}

rc_batch::substep_plan rc_batch::plan_substeps(double dt, const unsigned char* active) {
    // Per-lane substep counts replicate transient_solver::step_rk4: each
    // lane sub-steps against its own stability bound, so a lane's update
    // sequence is bitwise-identical to its scalar twin.  Lanes with fewer
    // substeps — and masked-out lanes, which take zero — are skipped in
    // the tail of the shared loop.
    scratch_.substeps.resize(lanes_);
    scratch_.h.resize(lanes_);
    substep_plan plan;
    int ref_sub = -1;
    for (std::size_t l = 0; l < lanes_; ++l) {
        if (active != nullptr && active[l] == 0) {
            scratch_.substeps[l] = 0;
            scratch_.h[l] = 0.0;
            plan.uniform = false;
            continue;
        }
        refresh_lane_cache(l);
        const int sub = std::max(1, static_cast<int>(std::ceil(dt / stable_dt_[l])));
        scratch_.substeps[l] = sub;
        scratch_.h[l] = dt / sub;
        plan.max_sub = std::max(plan.max_sub, sub);
        if (ref_sub < 0) {
            ref_sub = sub;
        }
        plan.uniform = plan.uniform && sub == ref_sub;
    }
    return plan;
}

void rc_batch::step_rk4(double dt, const unsigned char* active) {
    const substep_plan plan = plan_substeps(dt, active);
    const int max_sub = plan.max_sub;
    const bool uniform = plan.uniform;
    const std::size_t total = nodes_ * lanes_;
    std::vector<double>& t0 = scratch_.t0;
    t0 = temps_;
    scratch_.tmp.resize(total);
    scratch_.k1.resize(total);
    scratch_.k2.resize(total);
    scratch_.k3.resize(total);
    scratch_.k4.resize(total);
    double* tmp = scratch_.tmp.data();
    double* k1 = scratch_.k1.data();
    double* k2 = scratch_.k2.data();
    double* k3 = scratch_.k3.data();
    double* k4 = scratch_.k4.data();
    const double* h = scratch_.h.data();
    const int* sub = scratch_.substeps.data();

    const auto derivs = [&](const double* at, double* out) {
        topo_.batch_derivatives_into(lanes_, at, powers_.data(), capacities_.data(),
                                     ambient_.data(), edge_g_.data(), out);
    };
    // In the common case every lane takes the same substep count and the
    // mask is compiled away; heterogeneous lanes branch per element, which
    // only skips lanes whose own substeps are already done.
    for (int s = 0; s < max_sub; ++s) {
        const auto stage = [&](const double* k, double factor) {
            for (std::size_t i = 0; i < nodes_; ++i) {
                const std::size_t base = i * lanes_;
                for (std::size_t l = 0; l < lanes_; ++l) {
                    if (uniform || s < sub[l]) {
                        tmp[base + l] = t0[base + l] + factor * h[l] * k[base + l];
                    }
                }
            }
        };
        derivs(t0.data(), k1);
        stage(k1, 0.5);
        derivs(tmp, k2);
        stage(k2, 0.5);
        derivs(tmp, k3);
        stage(k3, 1.0);
        derivs(tmp, k4);
        for (std::size_t i = 0; i < nodes_; ++i) {
            const std::size_t base = i * lanes_;
            for (std::size_t l = 0; l < lanes_; ++l) {
                if (uniform || s < sub[l]) {
                    t0[base + l] += h[l] / 6.0 *
                                    (k1[base + l] + 2.0 * k2[base + l] + 2.0 * k3[base + l] +
                                     k4[base + l]);
                }
            }
        }
    }
    temps_.swap(t0);
}

void rc_batch::step_explicit(double dt, const unsigned char* active) {
    const substep_plan plan = plan_substeps(dt, active);
    const int max_sub = plan.max_sub;
    const bool uniform = plan.uniform;
    const std::size_t total = nodes_ * lanes_;
    std::vector<double>& t = scratch_.t0;
    t = temps_;
    scratch_.k1.resize(total);
    double* dTdt = scratch_.k1.data();
    const double* h = scratch_.h.data();
    const int* sub = scratch_.substeps.data();
    for (int s = 0; s < max_sub; ++s) {
        topo_.batch_derivatives_into(lanes_, t.data(), powers_.data(), capacities_.data(),
                                     ambient_.data(), edge_g_.data(), dTdt);
        if (uniform) {
            for (std::size_t i = 0; i < nodes_; ++i) {
                const std::size_t base = i * lanes_;
                for (std::size_t l = 0; l < lanes_; ++l) {
                    t[base + l] += h[l] * dTdt[base + l];
                }
            }
        } else {
            for (std::size_t i = 0; i < nodes_; ++i) {
                const std::size_t base = i * lanes_;
                for (std::size_t l = 0; l < lanes_; ++l) {
                    if (s < sub[l]) {
                        t[base + l] += h[l] * dTdt[base + l];
                    }
                }
            }
        }
    }
    temps_.swap(t);
}

void rc_batch::settle_lane(std::size_t lane) {
    util::ensure(lane < lanes_, "rc_batch::settle_lane: lane out of range");
    topo_.lane_conductance_matrix_into(lanes_, lane, edge_g_.data(), scratch_.cond);
    const util::lu_decomposition lu(scratch_.cond);
    topo_.lane_source_vector_into(lanes_, lane, powers_.data(), ambient_[lane], edge_g_.data(),
                                  scratch_.rhs);
    const std::vector<double> x = lu.solve(scratch_.rhs);
    for (std::size_t i = 0; i < nodes_; ++i) {
        util::ensure(std::isfinite(x[i]), "rc_batch::settle_lane: non-finite temperature");
        temps_[i * lanes_ + lane] = x[i];
    }
}

}  // namespace ltsc::thermal
