#include "thermal/rc_network.hpp"

#include <cmath>

#include "util/error.hpp"

namespace ltsc::thermal {

rc_network::rc_network(util::celsius_t ambient) : ambient_(ambient.value()) {
    util::ensure(std::isfinite(ambient_), "rc_network: non-finite ambient");
}

rc_network::rc_network(const rc_network& other)
    : ambient_(other.ambient_),
      capacities_(other.capacities_),
      temps_(other.temps_),
      powers_(other.powers_),
      names_(other.names_),
      edges_(other.edges_),
      revision_(other.revision_) {}

rc_network& rc_network::operator=(const rc_network& other) {
    if (this != &other) {
        ambient_ = other.ambient_;
        capacities_ = other.capacities_;
        temps_ = other.temps_;
        powers_ = other.powers_;
        names_ = other.names_;
        edges_ = other.edges_;
        revision_ = other.revision_;
        cache_ = assembly{};
    }
    return *this;
}

node_id rc_network::add_node(std::string name, double heat_capacity_j_per_k) {
    util::ensure(heat_capacity_j_per_k > 0.0, "rc_network::add_node: non-positive heat capacity");
    capacities_.push_back(heat_capacity_j_per_k);
    temps_.push_back(ambient_);
    powers_.push_back(0.0);
    names_.push_back(std::move(name));
    ++revision_;
    return node_id{capacities_.size() - 1};
}

edge_id rc_network::add_edge(node_id a, node_id b, double conductance_w_per_k) {
    util::ensure(a.index < capacities_.size() && b.index < capacities_.size(),
                 "rc_network::add_edge: node out of range");
    util::ensure(a.index != b.index, "rc_network::add_edge: self edge");
    util::ensure(conductance_w_per_k >= 0.0, "rc_network::add_edge: negative conductance");
    edges_.push_back(edge{a.index, b.index, false, conductance_w_per_k});
    ++revision_;
    return edge_id{edges_.size() - 1};
}

edge_id rc_network::add_ambient_edge(node_id n, double conductance_w_per_k) {
    util::ensure(n.index < capacities_.size(), "rc_network::add_ambient_edge: node out of range");
    util::ensure(conductance_w_per_k >= 0.0, "rc_network::add_ambient_edge: negative conductance");
    edges_.push_back(edge{n.index, 0, true, conductance_w_per_k});
    ++revision_;
    return edge_id{edges_.size() - 1};
}

void rc_network::set_conductance(edge_id e, double conductance_w_per_k) {
    util::ensure(e.index < edges_.size(), "rc_network::set_conductance: edge out of range");
    util::ensure(conductance_w_per_k >= 0.0, "rc_network::set_conductance: negative conductance");
    if (edges_[e.index].conductance != conductance_w_per_k) {
        edges_[e.index].conductance = conductance_w_per_k;
        ++revision_;
    }
}

double rc_network::conductance(edge_id e) const {
    util::ensure(e.index < edges_.size(), "rc_network::conductance: edge out of range");
    return edges_[e.index].conductance;
}

void rc_network::set_ambient(util::celsius_t ambient) {
    util::ensure(std::isfinite(ambient.value()), "rc_network::set_ambient: non-finite ambient");
    ambient_ = ambient.value();
}

void rc_network::set_temperature(node_id n, util::celsius_t t) {
    util::ensure(n.index < temps_.size(), "rc_network::set_temperature: node out of range");
    util::ensure(std::isfinite(t.value()), "rc_network::set_temperature: non-finite temperature");
    temps_[n.index] = t.value();
}

void rc_network::reset_temperatures() { reset_temperatures(util::celsius_t{ambient_}); }

void rc_network::reset_temperatures(util::celsius_t t) {
    for (double& temp : temps_) {
        temp = t.value();
    }
}

const std::string& rc_network::name(node_id n) const {
    util::ensure(n.index < names_.size(), "rc_network::name: node out of range");
    return names_[n.index];
}

void rc_network::set_temperatures(const std::vector<double>& temps) {
    util::ensure(temps.size() == temps_.size(), "rc_network::set_temperatures: size mismatch");
    for (double t : temps) {
        util::ensure(std::isfinite(t), "rc_network::set_temperatures: non-finite temperature");
    }
    temps_ = temps;
}

void rc_network::save_state(rc_state& out) const {
    out.temps.assign(temps_.begin(), temps_.end());
    out.powers.assign(powers_.begin(), powers_.end());
    out.edge_g.resize(edges_.size());
    for (std::size_t e = 0; e < edges_.size(); ++e) {
        out.edge_g[e] = edges_[e].conductance;
    }
    out.ambient_c = ambient_;
}

void rc_network::restore_state(const rc_state& state) {
    util::ensure(state.temps.size() == temps_.size() && state.powers.size() == powers_.size() &&
                     state.edge_g.size() == edges_.size(),
                 "rc_network::restore_state: state does not match topology");
    set_temperatures(state.temps);
    for (std::size_t i = 0; i < powers_.size(); ++i) {
        set_power(node_id{i}, util::watts_t{state.powers[i]});
    }
    for (std::size_t e = 0; e < edges_.size(); ++e) {
        set_conductance(edge_id{e}, state.edge_g[e]);
    }
    set_ambient(util::celsius_t{state.ambient_c});
}

void rc_network::adopt_temperatures(std::vector<double>& temps) {
    util::ensure(temps.size() == temps_.size(), "rc_network::adopt_temperatures: size mismatch");
    temps_.swap(temps);
}

const rc_network::assembly& rc_network::assembled() const {
    util::ensure(!capacities_.empty(), "rc_network: empty network");
    if (cache_.valid && cache_.revision == revision_) {
        return cache_;
    }
    const std::size_t n = capacities_.size();
    cache_.valid = false;
    cache_.lu.reset();
    cache_.internal.clear();
    cache_.ambient.clear();
    cache_.cond = util::matrix(n, n);
    for (std::size_t i = 0; i < edges_.size(); ++i) {
        const edge& e = edges_[i];
        if (e.to_ambient) {
            cache_.ambient.push_back(flat_ambient_edge{e.a, e.conductance, i});
            cache_.cond(e.a, e.a) += e.conductance;
        } else {
            cache_.internal.push_back(flat_internal_edge{e.a, e.b, e.conductance, i});
            cache_.cond(e.a, e.a) += e.conductance;
            cache_.cond(e.b, e.b) += e.conductance;
            cache_.cond(e.a, e.b) -= e.conductance;
            cache_.cond(e.b, e.a) -= e.conductance;
        }
    }
    // Forward Euler on dT/dt = -T/tau is stable for dt < 2*tau; keep a
    // 10 % safety margin (tau_i = C_i / L_ii).
    double min_ratio = 1e30;
    for (std::size_t i = 0; i < n; ++i) {
        const double g = cache_.cond(i, i);
        if (g > 0.0) {
            min_ratio = std::min(min_ratio, capacities_[i] / g);
        }
    }
    cache_.stable_dt = 0.9 * 2.0 * min_ratio;
    cache_.revision = revision_;
    cache_.valid = true;
    return cache_;
}

std::vector<double> rc_network::derivatives(const std::vector<double>& temps) const {
    std::vector<double> flow;
    derivatives_into(temps, flow);
    return flow;
}

void rc_network::derivatives_into(const std::vector<double>& temps,
                                  std::vector<double>& out) const {
    util::ensure(temps.size() == capacities_.size(), "rc_network::derivatives: size mismatch");
    util::ensure(&temps != &out, "rc_network::derivatives_into: aliased vectors");
    if (capacities_.empty()) {
        out.clear();
        return;
    }
    const assembly& a = assembled();
    const std::size_t n = capacities_.size();
    out.assign(n, 0.0);
    for (const flat_internal_edge& e : a.internal) {
        const double q = e.g * (temps[e.b] - temps[e.a]);
        out[e.a] += q;
        out[e.b] -= q;
    }
    for (const flat_ambient_edge& e : a.ambient) {
        out[e.n] += e.g * (ambient_ - temps[e.n]);
    }
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = (out[i] + powers_[i]) / capacities_[i];
    }
}

void rc_network::batch_derivatives_into(std::size_t lanes, const double* temps,
                                        const double* powers, const double* capacities,
                                        const double* ambient, const double* edge_g,
                                        double* out) const {
    util::ensure(lanes > 0, "rc_network::batch_derivatives_into: zero lanes");
    const assembly& a = assembled();
    const std::size_t n = capacities_.size();
    for (std::size_t i = 0; i < n * lanes; ++i) {
        out[i] = 0.0;
    }
    for (const flat_internal_edge& e : a.internal) {
        const double* g = edge_g + e.src * lanes;
        const double* ta = temps + e.a * lanes;
        const double* tb = temps + e.b * lanes;
        double* oa = out + e.a * lanes;
        double* ob = out + e.b * lanes;
        for (std::size_t l = 0; l < lanes; ++l) {
            const double q = g[l] * (tb[l] - ta[l]);
            oa[l] += q;
            ob[l] -= q;
        }
    }
    for (const flat_ambient_edge& e : a.ambient) {
        const double* g = edge_g + e.src * lanes;
        const double* tn = temps + e.n * lanes;
        double* on = out + e.n * lanes;
        for (std::size_t l = 0; l < lanes; ++l) {
            on[l] += g[l] * (ambient[l] - tn[l]);
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double* p = powers + i * lanes;
        const double* c = capacities + i * lanes;
        double* o = out + i * lanes;
        for (std::size_t l = 0; l < lanes; ++l) {
            o[l] = (o[l] + p[l]) / c[l];
        }
    }
}

void rc_network::lane_diagonal_into(std::size_t lanes, std::size_t lane, const double* edge_g,
                                    double* diag) const {
    util::ensure(lane < lanes, "rc_network::lane_diagonal_into: lane out of range");
    const std::size_t n = capacities_.size();
    for (std::size_t i = 0; i < n; ++i) {
        diag[i] = 0.0;
    }
    for (std::size_t i = 0; i < edges_.size(); ++i) {
        const edge& e = edges_[i];
        const double g = edge_g[i * lanes + lane];
        diag[e.a] += g;
        if (!e.to_ambient) {
            diag[e.b] += g;
        }
    }
}

void rc_network::lane_conductance_matrix_into(std::size_t lanes, std::size_t lane,
                                              const double* edge_g, util::matrix& out) const {
    util::ensure(lane < lanes, "rc_network::lane_conductance_matrix_into: lane out of range");
    util::ensure(!capacities_.empty(), "rc_network: empty network");
    const std::size_t n = capacities_.size();
    out = util::matrix(n, n);
    for (std::size_t i = 0; i < edges_.size(); ++i) {
        const edge& e = edges_[i];
        const double g = edge_g[i * lanes + lane];
        if (e.to_ambient) {
            out(e.a, e.a) += g;
        } else {
            out(e.a, e.a) += g;
            out(e.b, e.b) += g;
            out(e.a, e.b) -= g;
            out(e.b, e.a) -= g;
        }
    }
}

void rc_network::lane_source_vector_into(std::size_t lanes, std::size_t lane,
                                         const double* powers, double ambient_c,
                                         const double* edge_g, std::vector<double>& out) const {
    util::ensure(lane < lanes, "rc_network::lane_source_vector_into: lane out of range");
    const assembly& a = assembled();
    const std::size_t n = capacities_.size();
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = powers[i * lanes + lane];
    }
    for (const flat_ambient_edge& e : a.ambient) {
        out[e.n] += edge_g[e.src * lanes + lane] * ambient_c;
    }
}

util::matrix rc_network::conductance_matrix() const { return assembled().cond; }

const util::matrix& rc_network::cached_conductance_matrix() const { return assembled().cond; }

double rc_network::stable_explicit_dt() const { return assembled().stable_dt; }

const util::lu_decomposition& rc_network::steady_factorization() const {
    const assembly& a = assembled();
    if (!a.lu) {
        cache_.lu = std::make_unique<util::lu_decomposition>(a.cond);
    }
    return *cache_.lu;
}

std::vector<double> rc_network::source_vector() const {
    std::vector<double> rhs;
    source_vector_into(rhs);
    return rhs;
}

void rc_network::source_vector_into(std::vector<double>& out) const {
    if (capacities_.empty()) {
        out.clear();
        return;
    }
    const assembly& a = assembled();
    out = powers_;
    for (const flat_ambient_edge& e : a.ambient) {
        out[e.n] += e.g * ambient_;
    }
}

}  // namespace ltsc::thermal
