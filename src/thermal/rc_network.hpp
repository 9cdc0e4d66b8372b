// Lumped RC thermal network (HotSpot-style compact model).
//
// Nodes carry a heat capacity and a temperature state; edges carry thermal
// conductance between nodes or from a node to the fixed-temperature ambient.
// Power sources inject heat at nodes.  The network evolves by
//
//   C_i dT_i/dt = sum_j G_ij (T_j - T_i) + G_amb_i (T_amb - T_i) + P_i
//
// Conductances may vary at run time (fan-speed-dependent convection), which
// is the mechanism behind the paper's fan-speed-dependent time constants.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/error.hpp"
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

/// Complete dynamic state of one thermal plant over a fixed topology:
/// node temperatures and power injections (node order), edge
/// conductances (insertion order), and the ambient temperature.  The
/// unit of the save/restore API shared by rc_network (scalar) and
/// rc_batch (one lane) — a state saved from either side restores into
/// the other bitwise, which is what lets a rollout engine clone a live
/// plant across candidate lanes.  Reusable: save_state overwrites in
/// place, so a scratch rc_state amortizes to zero allocations.
struct rc_state {
    std::vector<double> temps;   ///< Node temperatures [degC], node order.
    std::vector<double> powers;  ///< Node power injections [W], node order.
    std::vector<double> edge_g;  ///< Edge conductances [W/K], insertion order.
    double ambient_c = 0.0;      ///< Ambient temperature [degC].
};

/// Lumped thermal network with mutable conductances and power injections.
class rc_network {
public:
    /// Creates an empty network with the given ambient temperature.
    explicit rc_network(util::celsius_t ambient);

    // Copies carry the physical state but not the assembly cache (it is
    // rebuilt lazily on first use).
    rc_network(const rc_network& other);
    rc_network& operator=(const rc_network& other);
    rc_network(rc_network&&) = default;
    rc_network& operator=(rc_network&&) = default;
    ~rc_network() = default;

    /// Adds a node with the given heat capacity [J/K] (> 0), initialized to
    /// ambient temperature.  Returns its handle.
    node_id add_node(std::string name, double heat_capacity_j_per_k);

    /// Adds a conductive edge between two distinct nodes [W/K] (>= 0).
    edge_id add_edge(node_id a, node_id b, double conductance_w_per_k);

    /// Adds a coupling from a node to the ambient [W/K] (>= 0).
    edge_id add_ambient_edge(node_id n, double conductance_w_per_k);

    /// Updates an edge conductance (e.g. convection at a new fan speed).
    void set_conductance(edge_id e, double conductance_w_per_k);

    /// Current conductance of an edge (internal or ambient).
    [[nodiscard]] double conductance(edge_id e) const;

    /// Sets the heat injected at a node [W]; may be negative (a sink).
    /// Inline: called for every heat source every simulation step.
    void set_power(node_id n, util::watts_t power) {
        util::ensure(n.index < powers_.size(), "rc_network::set_power: node out of range");
        util::ensure(std::isfinite(power.value()), "rc_network::set_power: non-finite power");
        powers_[n.index] = power.value();
    }

    /// Changes the ambient temperature.
    void set_ambient(util::celsius_t ambient);

    /// Overwrites one node's temperature state.
    void set_temperature(node_id n, util::celsius_t t);

    /// Resets every node to the given temperature (defaults to ambient).
    void reset_temperatures();
    void reset_temperatures(util::celsius_t t);

    [[nodiscard]] std::size_t node_count() const { return capacities_.size(); }
    [[nodiscard]] util::celsius_t ambient() const { return util::celsius_t{ambient_}; }
    [[nodiscard]] const std::string& name(node_id n) const;

    // Hot accessors, inline: the simulator and telemetry layers read node
    // temperatures a dozen-plus times per step.
    [[nodiscard]] util::celsius_t temperature(node_id n) const {
        util::ensure(n.index < temps_.size(), "rc_network::temperature: node out of range");
        return util::celsius_t{temps_[n.index]};
    }
    [[nodiscard]] util::watts_t power(node_id n) const {
        util::ensure(n.index < powers_.size(), "rc_network::power: node out of range");
        return util::watts_t{powers_[n.index]};
    }
    [[nodiscard]] double heat_capacity(node_id n) const {
        util::ensure(n.index < capacities_.size(), "rc_network::heat_capacity: node out of range");
        return capacities_[n.index];
    }

    /// All node temperatures in node order [degC].
    [[nodiscard]] const std::vector<double>& temperatures() const { return temps_; }

    /// Overwrites all node temperatures (size must match node_count()).
    void set_temperatures(const std::vector<double>& temps);

    /// Swaps `temps` into the network state without per-element validation
    /// (sizes must match).  Fast path for the transient solvers, which own
    /// the buffer and validate via their own step check; `temps` receives
    /// the previous state vector.
    void adopt_temperatures(std::vector<double>& temps);

    /// Time derivatives dT/dt [K/s] at the given state vector.
    [[nodiscard]] std::vector<double> derivatives(const std::vector<double>& temps) const;

    /// In-place variant of derivatives(): writes dT/dt into `out` (resized
    /// to node_count()) without allocating once `out` has capacity.
    /// `temps` and `out` must be distinct vectors.
    ///
    /// Summation order: internal edges accumulate before ambient edges
    /// (each group in insertion order).  This matches the seed's
    /// declaration-order walk bitwise whenever every node's internal
    /// edges were added before its ambient edges — true for all builders
    /// in this repo and enforced for the paper server by the equivalence
    /// suite.  A topology that adds an ambient edge before an internal
    /// edge on the same node may differ from the seed at ULP level.
    void derivatives_into(const std::vector<double>& temps, std::vector<double>& out) const;

    /// Conductance (Laplacian + ambient) matrix L such that the heat-flow
    /// balance is L * T = P + G_amb * T_amb at steady state.
    [[nodiscard]] util::matrix conductance_matrix() const;

    /// Reference to the cached assembled conductance matrix; rebuilt only
    /// when the structure revision changes.  Invalidated by any topology
    /// or conductance mutation (not by power/temperature/ambient updates).
    [[nodiscard]] const util::matrix& cached_conductance_matrix() const;

    /// Largest forward-Euler step that stays stable for the current
    /// conductances: 0.9 * 2 * min_i(C_i / L_ii).  Cached with the matrix.
    [[nodiscard]] double stable_explicit_dt() const;

    /// Cached LU factorization of the conductance matrix, shared by the
    /// steady-state solver and characterization sweeps; built lazily and
    /// invalidated with the structure revision.  Throws numeric_error for
    /// singular systems (a node isolated from ambient).
    [[nodiscard]] const util::lu_decomposition& steady_factorization() const;

    /// Right-hand side P + G_amb * T_amb of the steady-state system.
    [[nodiscard]] std::vector<double> source_vector() const;

    /// In-place variant of source_vector().
    void source_vector_into(std::vector<double>& out) const;

    /// Monotonically increasing revision counter bumped whenever topology
    /// or a conductance changes; solvers use it to invalidate caches.
    [[nodiscard]] std::uint64_t structure_revision() const { return revision_; }

    // --- state save/restore ------------------------------------------------
    /// Writes the complete dynamic state (temperatures, powers, edge
    /// conductances, ambient) into `out`, overwriting its contents.
    void save_state(rc_state& out) const;

    /// Restores a state previously saved from this network (or from an
    /// rc_batch lane over the same topology).  Vector sizes must match
    /// the topology.  Only conductances that actually change bump the
    /// structure revision, so restoring a state captured at the current
    /// conductances leaves the assembly cache intact.
    void restore_state(const rc_state& state);

    // --- batch entry points (structure-of-arrays lanes) --------------------
    //
    // These step N independent "lanes" (servers) through this network's
    // *topology* with one instruction stream.  The lane state lives in
    // caller-owned flat arrays:
    //   node quantity  q of node i, lane l  ->  q[i * lanes + l]
    //   conductance    g of edge e, lane l  ->  edge_g[e.index * lanes + l]
    // (edge indices are the insertion-order edge_id indices, covering
    // internal and ambient edges alike).  Per lane, every kernel performs
    // the exact floating-point operation sequence of its scalar
    // counterpart, so a lane stepped here is bitwise-identical to the same
    // schedule applied to a scalar rc_network (the batch-equivalence suite
    // pins this).  This network's own conductances/temperatures/powers are
    // ignored; only the topology (and flattened edge order) is shared.

    /// Number of edges (internal + ambient) in insertion order.
    [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

    /// Batched derivatives_into: writes dT/dt for every lane into `out`
    /// (size node_count() * lanes).  Matches derivatives_into() per lane:
    /// internal edges accumulate before ambient edges, then the
    /// (flow + power) / capacity division runs per node.
    void batch_derivatives_into(std::size_t lanes, const double* temps, const double* powers,
                                const double* capacities, const double* ambient,
                                const double* edge_g, double* out) const;

    /// Conductance-matrix diagonal of one lane, accumulated in edge
    /// insertion order (bitwise-matching the cached assembly's diagonal).
    /// `diag` receives node_count() values.
    void lane_diagonal_into(std::size_t lanes, std::size_t lane, const double* edge_g,
                            double* diag) const;

    /// Full conductance (Laplacian + ambient) matrix of one lane,
    /// accumulated in edge insertion order like conductance_matrix().
    void lane_conductance_matrix_into(std::size_t lanes, std::size_t lane, const double* edge_g,
                                      util::matrix& out) const;

    /// Steady-state right-hand side P + G_amb * T_amb of one lane,
    /// matching source_vector_into() per lane.
    void lane_source_vector_into(std::size_t lanes, std::size_t lane, const double* powers,
                                 double ambient_c, const double* edge_g,
                                 std::vector<double>& out) const;

private:
    struct edge {
        std::size_t a = 0;
        std::size_t b = 0;       ///< Ignored for ambient edges.
        bool to_ambient = false;
        double conductance = 0.0;
    };

    // Flattened, pre-resolved edge layout (assembly-cache order: the
    // order batch_derivatives_into accumulates in).  `g` is this
    // network's own conductance — batch kernels ignore it and read the
    // per-lane value at `edge_g[src * lanes + lane]` instead.
    struct flat_internal_edge {
        std::size_t a = 0;
        std::size_t b = 0;
        double g = 0.0;
        std::size_t src = 0;  ///< Insertion-order edge index (batch g lookup).
    };
    struct flat_ambient_edge {
        std::size_t n = 0;
        double g = 0.0;
        std::size_t src = 0;  ///< Insertion-order edge index (batch g lookup).
    };

    // Derived quantities that depend only on topology/conductances,
    // plus the flattened edges above.  Rebuilt lazily whenever
    // `revision_` moves; power, temperature, and ambient updates leave it
    // untouched, so the per-substep hot path never re-assembles anything.
    struct assembly {
        std::uint64_t revision = 0;
        bool valid = false;
        std::vector<flat_internal_edge> internal;
        std::vector<flat_ambient_edge> ambient;
        util::matrix cond;
        double stable_dt = 0.0;
        std::unique_ptr<util::lu_decomposition> lu;  ///< Lazy; may stay null.
    };
    const assembly& assembled() const;

    double ambient_;
    std::vector<double> capacities_;
    std::vector<double> temps_;
    std::vector<double> powers_;
    std::vector<std::string> names_;
    std::vector<edge> edges_;
    std::uint64_t revision_ = 0;
    mutable assembly cache_;
};

}  // namespace ltsc::thermal
