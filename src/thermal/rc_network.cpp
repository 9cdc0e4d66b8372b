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

rc_network::edge_ends rc_network::ends(edge_id e) const {
    util::ensure(e.index < edges_.size(), "rc_network::ends: edge out of range");
    const edge& ed = edges_[e.index];
    return edge_ends{ed.a, ed.b, ed.to_ambient};
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
