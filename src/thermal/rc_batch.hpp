// Lane state over the server's thermal network: the one RC integrator
// and steady solver of the library.
//
// An rc_batch holds N independent thermal "lanes" (servers) over the
// network thermal::server_thermal_model lays out: nodes die 0, sink 0,
// die 1, sink 1, DIMM; edges die 0-sink 0, sink 0-ambient, die 1-sink 1,
// sink 1-ambient, DIMM-ambient, in that insertion order.  The
// constructor rejects any other topology.  Temperatures, powers,
// capacities and conductances are stored lane-contiguous per node/edge,
// and lanes may differ in all of them and in ambient temperature.
//
// The RK4 step is one fused kernel for that network: each substep of
// each lane runs all four stages in locals, with the loop over lanes
// innermost, and one path serves every lane count, active mask and mixed
// substep count.  Every cell keeps the operation sequence of the
// original edge-list integrator (flows accumulated from zero in edge
// insertion order, `(flow + power) / capacity`, the classic stage sums),
// so a lane of an N-lane batch is bitwise-equal to a one-lane batch
// driven through the same schedule, and both to a port of the seed
// numerics (pinned by the thermal-equivalence suite).
#pragma once

#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

#include "thermal/rc_network.hpp"
#include "util/error.hpp"
#include "util/matrix.hpp"
#include "util/units.hpp"

namespace ltsc::thermal {

/// Complete dynamic state of one thermal lane over a fixed topology:
/// node temperatures and power injections (node order), edge
/// conductances (insertion order), and the ambient temperature.  The unit
/// of rc_batch's save/restore API — a state saved from any lane restores
/// into any lane of a same-topology batch bitwise, which is what lets a
/// rollout engine clone a live plant across candidate lanes.  Reusable:
/// save_lane_state overwrites in place, so a scratch rc_state amortizes
/// to zero allocations.
struct rc_state {
    std::vector<double> temps;   ///< Node temperatures [degC], node order.
    std::vector<double> powers;  ///< Node power injections [W], node order.
    std::vector<double> edge_g;  ///< Edge conductances [W/K], insertion order.
    double ambient_c = 0.0;      ///< Ambient temperature [degC].
};

/// N thermal lanes over one topology, stepped together.
class rc_batch {
public:
    /// Copies `topology`'s structure and seeds every lane with its initial
    /// capacities, conductances and ambient, all nodes at ambient and
    /// zero power.  Throws precondition_error unless `topology` is the
    /// server network (see the file comment).
    rc_batch(const rc_network& topology, std::size_t lanes);

    [[nodiscard]] std::size_t lane_count() const { return lanes_; }
    [[nodiscard]] std::size_t node_count() const { return nodes_; }
    [[nodiscard]] const rc_network& topology() const { return topo_; }

    // --- per-lane state ----------------------------------------------------
    void set_power(node_id n, std::size_t lane, util::watts_t power) {
        util::ensure(n.index < nodes_ && lane < lanes_, "rc_batch::set_power: out of range");
        util::ensure(std::isfinite(power.value()), "rc_batch::set_power: non-finite power");
        powers_[n.index * lanes_ + lane] = power.value();
    }
    [[nodiscard]] util::watts_t power(node_id n, std::size_t lane) const {
        util::ensure(n.index < nodes_ && lane < lanes_, "rc_batch::power: out of range");
        return util::watts_t{powers_[n.index * lanes_ + lane]};
    }

    void set_temperature(node_id n, std::size_t lane, util::celsius_t t);
    [[nodiscard]] util::celsius_t temperature(node_id n, std::size_t lane) const {
        util::ensure(n.index < nodes_ && lane < lanes_, "rc_batch::temperature: out of range");
        return util::celsius_t{temps_[n.index * lanes_ + lane]};
    }

    void set_heat_capacity(node_id n, std::size_t lane, double c);

    void set_ambient(std::size_t lane, util::celsius_t t);
    [[nodiscard]] util::celsius_t ambient(std::size_t lane) const {
        util::ensure(lane < lanes_, "rc_batch::ambient: lane out of range");
        return util::celsius_t{ambient_[lane]};
    }

    /// Updates one lane's conductance of edge `e` (insertion-order id).
    /// Invalidates the lane's cached diagonal, stable substep and steady
    /// factorization only when the value actually changes.
    void set_conductance(edge_id e, std::size_t lane, double conductance_w_per_k);
    [[nodiscard]] double conductance(edge_id e, std::size_t lane) const;

    /// Conductance-matrix diagonal entry of node `n` in lane `lane`.
    [[nodiscard]] double diagonal(node_id n, std::size_t lane) const;

    /// Largest stable forward-Euler substep of one lane for its current
    /// conductances and capacities: 0.9 * 2 * min_i C_i / L_ii.  RK4 sub-
    /// steps against this bound (its real-axis stability limit is ~2.78
    /// times Euler's, so reusing the Euler bound is conservative).
    [[nodiscard]] double stable_dt(std::size_t lane) const;

    // --- stepping ----------------------------------------------------------
    /// Advances every lane by `dt` with classic fourth-order Runge-Kutta,
    /// each lane sub-stepping against its own stable_dt(); a lane with
    /// fewer substeps is skipped in the shared substep loop once its own
    /// are done.
    ///
    /// `active` optionally masks whole lanes (ragged fleets): a lane with
    /// `active[l] == 0` takes zero substeps, so its state is left
    /// bitwise-untouched while the remaining lanes integrate exactly as
    /// they would without it.  `nullptr` (the default) steps every lane.
    void step(util::seconds_t dt, const unsigned char* active = nullptr) {
        step_prefix(lanes_, dt, active);
    }

    /// step() over lanes [0, count) only: the remaining lanes are left
    /// bitwise-untouched and cost no kernel work, and each stepped lane
    /// integrates exactly as under step().  A caller whose live lanes
    /// form a prefix (the rollout engine's candidates) steps just those.
    void step_prefix(std::size_t count, util::seconds_t dt,
                     const unsigned char* active = nullptr);

    /// Solves one lane's steady state L T = P + G_amb T_amb and adopts it.
    /// The lane's LU factorization is cached until its conductances
    /// change, so fixed-point loops that only move powers factor once.
    /// Throws numeric_error for singular systems (a node isolated from
    /// ambient).
    void settle_lane(std::size_t lane);

    /// Per-step finite-state scan.  On by default in Debug builds and off
    /// in Release (it visits every node every step); tests that integrate
    /// hostile inputs turn it on explicitly.
    void set_validate_steps(bool on) { validate_ = on; }

    // --- lane state save/restore -------------------------------------------
    /// Writes one lane's complete dynamic state into `out`, overwriting
    /// its contents.
    void save_lane_state(std::size_t lane, rc_state& out) const;

    /// Restores a state (saved from any lane of a same-topology batch)
    /// into one lane.  Only conductances that actually change dirty the
    /// lane's caches, so reloading a lane at its current operating point
    /// is cache-neutral.  A state check_lane_state rejects changes nothing.
    void load_lane_state(std::size_t lane, const rc_state& state);

    /// Throws unless `state` matches the topology and holds only values
    /// the setters accept (finite temperatures, powers and ambient,
    /// non-negative conductances).
    void check_lane_state(const rc_state& state) const;

private:
    static constexpr bool default_validate() {
#ifdef NDEBUG
        return false;
#else
        return true;
#endif
    }

    void refresh_lane_cache(std::size_t lane) const;

    rc_network topo_;
    std::size_t lanes_ = 0;
    std::size_t nodes_ = 0;
    bool validate_ = default_validate();

    // Lane-contiguous state: value(node i, lane l) = buf[i * lanes_ + l],
    // conductance(edge e, lane l) = edge_g_[e * lanes_ + l].
    std::vector<double> temps_;
    std::vector<double> powers_;
    std::vector<double> capacities_;
    std::vector<double> ambient_;  ///< [lane]
    std::vector<double> edge_g_;

    // Per-lane derived quantities (conductance diagonal, stable substep),
    // refreshed lazily when a lane's conductances or capacities change,
    // and the lane's steady factorization, dropped when its conductances
    // change and rebuilt by the next settle_lane.
    mutable std::vector<double> diag_;       ///< [node][lane] layout.
    mutable std::vector<double> stable_dt_;  ///< [lane]
    mutable std::vector<char> lane_dirty_;   ///< [lane]
    std::vector<std::optional<util::lu_decomposition>> lu_;  ///< [lane]

    // Stepping and solve scratch, sized at construction so neither
    // step() nor settle_lane() allocates.  A step keeps its stage values
    // in locals; only each lane's substep count and size live here.
    struct scratch {
        std::vector<int> substeps;  ///< [lane]
        std::vector<double> h;      ///< [lane]
        std::vector<double> rhs;    ///< Per-lane node vector.
        std::vector<double> x;      ///< settle_lane solution.
        util::matrix cond;          ///< settle_lane lane matrix.
    };
    mutable scratch scratch_;
};

}  // namespace ltsc::thermal
