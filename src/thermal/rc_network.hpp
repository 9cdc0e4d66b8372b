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
// per-lane conductances) lives in thermal::rc_batch lanes, which run the
// lane kernels below.  Conductances may vary at run time per lane
// (fan-speed-dependent convection), which is the mechanism behind the
// paper's fan-speed-dependent time constants.
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

    // --- lane kernels (structure-of-arrays lanes) ---------------------------
    //
    // These run N independent "lanes" (servers) through this topology with
    // one instruction stream.  The lane state lives in caller-owned flat
    // arrays:
    //   node quantity  q of node i, lane l  ->  q[i * lanes + l]
    //   conductance    g of edge e, lane l  ->  edge_g[e.index * lanes + l]
    // (edge indices are the insertion-order edge_id indices, covering
    // internal and ambient edges alike).  Every lane follows the same
    // floating-point operation sequence, so a lane's result does not
    // depend on the lane count or on its neighbours.

    /// Writes dT/dt of lanes [0, count) into `out` (size node_count() *
    /// lanes); the other lanes' entries are left alone.  Edge flows
    /// accumulate in insertion order, then the (flow + power) / capacity
    /// division runs per node; count == 1 runs it as one strided lane.
    void batch_derivatives_into(std::size_t lanes, std::size_t count, const double* temps,
                                const double* powers, const double* capacities,
                                const double* ambient, const double* edge_g,
                                double* out) const;

    /// Conductance-matrix diagonal of one lane, accumulated in edge
    /// insertion order.  `diag` receives node_count() values.
    void lane_diagonal_into(std::size_t lanes, std::size_t lane, const double* edge_g,
                            double* diag) const;

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
