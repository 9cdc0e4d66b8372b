// Lumped RC thermal network topology (HotSpot-style compact model).
//
// Nodes carry a heat capacity; edges carry thermal conductance between
// nodes or from a node to the fixed-temperature ambient.  Power sources
// inject heat at nodes.  A network state evolves by
//
//   C_i dT_i/dt = sum_j G_ij (T_j - T_i) + G_amb_i (T_amb - T_i) + P_i
//
// This class holds only the structure plus the initial capacities,
// conductances and ambient; the dynamic state (temperatures, powers,
// per-lane conductances) lives in thermal::rc_batch lanes.  The builder
// is general, but rc_batch integrates one network only, the server's as
// thermal::server_thermal_model lays it out, and rejects any other.  The
// steady-solve helpers below walk the edge list and serve any network.  Conductances may
// vary at run time per lane (fan-speed-dependent convection), which is
// the mechanism behind the paper's fan-speed-dependent time constants.
#pragma once

#include <cstddef>
#include <vector>

#include "util/matrix.hpp"
#include "util/units.hpp"

namespace ltsc::thermal {

/// Opaque node handle.
struct node_id {
    std::size_t index = 0;
    friend bool operator==(node_id a, node_id b) { return a.index == b.index; }
    friend bool operator!=(node_id a, node_id b) { return !(a == b); }
};

/// Opaque edge handle (also used for node-to-ambient couplings).
struct edge_id {
    std::size_t index = 0;
    friend bool operator==(edge_id a, edge_id b) { return a.index == b.index; }
    friend bool operator!=(edge_id a, edge_id b) { return !(a == b); }
};

/// Thermal network topology with initial capacities and conductances.
class rc_network {
public:
    /// Creates an empty network with the given initial ambient temperature.
    explicit rc_network(util::celsius_t ambient);

    /// Adds a node with the given heat capacity [J/K] (> 0).  Returns its
    /// handle.
    node_id add_node(double heat_capacity_j_per_k);

    /// Adds a conductive edge between two distinct nodes [W/K] (>= 0).
    edge_id add_edge(node_id a, node_id b, double conductance_w_per_k);

    /// Adds a coupling from a node to the ambient [W/K] (>= 0).
    edge_id add_ambient_edge(node_id n, double conductance_w_per_k);

    [[nodiscard]] std::size_t node_count() const { return capacities_.size(); }
    /// Number of edges (internal + ambient) in insertion order.
    [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }
    [[nodiscard]] util::celsius_t ambient() const { return util::celsius_t{ambient_}; }
    [[nodiscard]] double heat_capacity(node_id n) const;
    /// Initial conductance of an edge (internal or ambient).
    [[nodiscard]] double conductance(edge_id e) const;

    /// Ends of edge `e` (insertion-order id): node `a`, and node `b` for
    /// an internal edge (`b` is 0 for an ambient coupling).
    struct edge_ends {
        std::size_t a = 0;
        std::size_t b = 0;
        bool to_ambient = false;
    };
    [[nodiscard]] edge_ends ends(edge_id e) const;

    // --- one lane of caller-owned lane state --------------------------------
    //
    // The steady-solve helpers read one lane of state laid out as
    // rc_batch keeps it: conductance g of edge e, lane l at
    // edge_g[e.index * lanes + l], node quantity q of node i, lane l at
    // q[i * lanes + l].  Each accumulates in edge insertion order.

    /// Full conductance (Laplacian + ambient) matrix L of one lane, such
    /// that L * T = P + G_amb * T_amb at steady state; accumulated in edge
    /// insertion order.
    void lane_conductance_matrix_into(std::size_t lanes, std::size_t lane, const double* edge_g,
                                      util::matrix& out) const;

    /// Steady-state right-hand side P + G_amb * T_amb of one lane.
    void lane_source_vector_into(std::size_t lanes, std::size_t lane, const double* powers,
                                 double ambient_c, const double* edge_g,
                                 std::vector<double>& out) const;

private:
    struct edge {
        std::size_t a = 0;
        std::size_t b = 0;  ///< Ignored for ambient edges.
        bool to_ambient = false;
        double conductance = 0.0;
    };

    double ambient_;
    std::vector<double> capacities_;
    std::vector<edge> edges_;
};

}  // namespace ltsc::thermal
