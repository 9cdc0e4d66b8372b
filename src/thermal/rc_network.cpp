#include "thermal/rc_network.hpp"

#include <cmath>

#include "util/error.hpp"

namespace ltsc::thermal {

rc_network::rc_network(util::celsius_t ambient) : ambient_(ambient.value()) {
    util::ensure(std::isfinite(ambient_), "rc_network: non-finite ambient");
}

node_id rc_network::add_node(double heat_capacity_j_per_k) {
    util::ensure(heat_capacity_j_per_k > 0.0, "rc_network::add_node: non-positive heat capacity");
    capacities_.push_back(heat_capacity_j_per_k);
    return node_id{capacities_.size() - 1};
}

edge_id rc_network::add_edge(node_id a, node_id b, double conductance_w_per_k) {
    util::ensure(a.index < capacities_.size() && b.index < capacities_.size(),
                 "rc_network::add_edge: node out of range");
    util::ensure(a.index != b.index, "rc_network::add_edge: self edge");
    util::ensure(conductance_w_per_k >= 0.0, "rc_network::add_edge: negative conductance");
    edges_.push_back(edge{a.index, b.index, false, conductance_w_per_k});
    return edge_id{edges_.size() - 1};
}

edge_id rc_network::add_ambient_edge(node_id n, double conductance_w_per_k) {
    util::ensure(n.index < capacities_.size(), "rc_network::add_ambient_edge: node out of range");
    util::ensure(conductance_w_per_k >= 0.0, "rc_network::add_ambient_edge: negative conductance");
    edges_.push_back(edge{n.index, 0, true, conductance_w_per_k});
    return edge_id{edges_.size() - 1};
}

double rc_network::heat_capacity(node_id n) const {
    util::ensure(n.index < capacities_.size(), "rc_network::heat_capacity: node out of range");
    return capacities_[n.index];
}

double rc_network::conductance(edge_id e) const {
    util::ensure(e.index < edges_.size(), "rc_network::conductance: edge out of range");
    return edges_[e.index].conductance;
}

void rc_network::batch_derivatives_into(std::size_t lanes, std::size_t count,
                                        const double* temps, const double* powers,
                                        const double* capacities, const double* ambient,
                                        const double* edge_g, double* out) const {
    const std::size_t n = capacities_.size();
    if (count == 1) {
        // Lane 0 alone, strided: the lane loops' operation sequence without
        // their per-edge loop overhead (a one-lane plant steps here).
        for (std::size_t i = 0; i < n; ++i) {
            out[i * lanes] = 0.0;
        }
        for (std::size_t k = 0; k < edges_.size(); ++k) {
            const edge& e = edges_[k];
            if (e.to_ambient) {
                out[e.a * lanes] += edge_g[k * lanes] * (ambient[0] - temps[e.a * lanes]);
            } else {
                const double q = edge_g[k * lanes] * (temps[e.b * lanes] - temps[e.a * lanes]);
                out[e.a * lanes] += q;
                out[e.b * lanes] -= q;
            }
        }
        for (std::size_t i = 0; i < n; ++i) {
            out[i * lanes] = (out[i * lanes] + powers[i * lanes]) / capacities[i * lanes];
        }
        return;
    }
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t l = 0; l < count; ++l) {
            out[i * lanes + l] = 0.0;
        }
    }
    for (std::size_t k = 0; k < edges_.size(); ++k) {
        const edge& e = edges_[k];
        const double* g = edge_g + k * lanes;
        const double* ta = temps + e.a * lanes;
        double* oa = out + e.a * lanes;
        if (e.to_ambient) {
            for (std::size_t l = 0; l < count; ++l) {
                oa[l] += g[l] * (ambient[l] - ta[l]);
            }
        } else {
            const double* tb = temps + e.b * lanes;
            double* ob = out + e.b * lanes;
            for (std::size_t l = 0; l < count; ++l) {
                const double q = g[l] * (tb[l] - ta[l]);
                oa[l] += q;
                ob[l] -= q;
            }
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double* p = powers + i * lanes;
        const double* c = capacities + i * lanes;
        double* o = out + i * lanes;
        for (std::size_t l = 0; l < count; ++l) {
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
        out(e.a, e.a) += g;
        if (!e.to_ambient) {
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
    const std::size_t n = capacities_.size();
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = powers[i * lanes + lane];
    }
    for (std::size_t k = 0; k < edges_.size(); ++k) {
        if (edges_[k].to_ambient) {
            out[edges_[k].a] += edge_g[k * lanes + lane] * ambient_c;
        }
    }
}

}  // namespace ltsc::thermal
