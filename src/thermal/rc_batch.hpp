// Structure-of-arrays lane state over a shared rc_network topology.
//
// An rc_batch steps N independent thermal "lanes" (servers) through one
// instruction stream: temperatures, powers, capacities, ambients, and
// edge conductances are stored lane-contiguous per node/edge, and the
// RK4 / forward-Euler substep loops run the rc_network batch kernels
// across all lanes at once.  Every lane follows the exact floating-point
// operation sequence of a scalar rc_network + transient_solver driven
// through the same schedule, so lanes are bitwise-identical to their
// scalar twins (the batch-equivalence suite pins this contract).
//
// Lanes may differ in conductances (per-server fan speeds), powers,
// capacities, and ambient temperature — only the topology (node/edge
// structure and flattened edge order) is shared.
#pragma once

#include <cstddef>
#include <vector>

#include "thermal/rc_network.hpp"
#include "thermal/transient_solver.hpp"
#include "util/matrix.hpp"
#include "util/units.hpp"

namespace ltsc::thermal {

/// N thermal lanes over one topology, stepped together.
class rc_batch {
public:
    /// Copies `topology`'s structure and seeds every lane with its
    /// current conductances, ambient, and all-ambient temperatures.
    /// Powers start at zero; capacities at the topology's values.
    rc_batch(const rc_network& topology, std::size_t lanes,
             integration_scheme scheme = integration_scheme::rk4);

    [[nodiscard]] std::size_t lane_count() const { return lanes_; }
    [[nodiscard]] std::size_t node_count() const { return nodes_; }
    [[nodiscard]] const rc_network& topology() const { return topo_; }
    [[nodiscard]] integration_scheme scheme() const { return scheme_; }

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
    [[nodiscard]] double heat_capacity(node_id n, std::size_t lane) const;

    void set_ambient(std::size_t lane, util::celsius_t t);
    [[nodiscard]] util::celsius_t ambient(std::size_t lane) const;

    /// Updates one lane's conductance of edge `e` (insertion-order id).
    /// Invalidates the lane's cached diagonal/stable-dt only when the
    /// value actually changes, mirroring rc_network::set_conductance.
    void set_conductance(edge_id e, std::size_t lane, double conductance_w_per_k);
    [[nodiscard]] double conductance(edge_id e, std::size_t lane) const;

    /// Conductance-matrix diagonal entry of node `n` in lane `lane`
    /// (bitwise-identical to cached_conductance_matrix()(n, n) of the
    /// lane's scalar twin).
    [[nodiscard]] double diagonal(node_id n, std::size_t lane) const;

    /// Largest stable forward-Euler substep of one lane (matches
    /// rc_network::stable_explicit_dt of the scalar twin).
    [[nodiscard]] double stable_dt(std::size_t lane) const;

    // --- stepping ----------------------------------------------------------
    /// Advances every lane by `dt` with the configured scheme.  Per lane
    /// this is bitwise-identical to transient_solver::step on the scalar
    /// twin; lanes with different stable substeps are masked out of the
    /// shared substep loop once their own substeps are done.
    ///
    /// `active` optionally masks whole lanes (ragged fleets): a lane with
    /// `active[l] == 0` takes zero substeps, so its state is left
    /// bitwise-untouched while the remaining lanes integrate exactly as
    /// they would without it.  `nullptr` (the default) steps every lane.
    void step(util::seconds_t dt, const unsigned char* active = nullptr);

    /// Solves one lane's steady state L T = P + G_amb T_amb and adopts it
    /// (bitwise-identical to thermal::settle on the scalar twin).  Throws
    /// numeric_error for singular systems.
    void settle_lane(std::size_t lane);

    /// Per-step finite-state scan (on by default in Debug builds, like
    /// transient_solver).
    void set_validate_steps(bool on) { validate_ = on; }
    [[nodiscard]] bool validate_steps() const { return validate_; }

    // --- lane state save/restore -------------------------------------------
    /// Writes one lane's complete dynamic state into `out` (same layout
    /// as rc_network::save_state over the shared topology), overwriting
    /// its contents.
    void save_lane_state(std::size_t lane, rc_state& out) const;

    /// Restores a state (saved from any lane of a same-topology batch,
    /// or from a scalar rc_network) into one lane.  Only conductances
    /// and capacities that actually change dirty the lane's cached
    /// diagonal/stable-dt, so reloading a lane at its current operating
    /// point is cache-neutral.
    void load_lane_state(std::size_t lane, const rc_state& state);

private:
    static constexpr bool default_validate() {
#ifdef NDEBUG
        return false;
#else
        return true;
#endif
    }

    void refresh_lane_cache(std::size_t lane) const;
    /// Fills the per-lane substep plan (count + substep size) for one
    /// macro step; masked lanes get zero substeps.  Returns the largest
    /// substep count and whether every stepped lane shares it.
    struct substep_plan {
        int max_sub = 0;
        bool uniform = true;
    };
    substep_plan plan_substeps(double dt, const unsigned char* active);
    void step_rk4(double dt, const unsigned char* active);
    void step_explicit(double dt, const unsigned char* active);

    rc_network topo_;
    std::size_t lanes_ = 0;
    std::size_t nodes_ = 0;
    integration_scheme scheme_;
    bool validate_ = default_validate();

    // Lane-contiguous state: value(node i, lane l) = buf[i * lanes_ + l],
    // conductance(edge e, lane l) = edge_g_[e * lanes_ + l].
    std::vector<double> temps_;
    std::vector<double> powers_;
    std::vector<double> capacities_;
    std::vector<double> ambient_;  ///< [lane]
    std::vector<double> edge_g_;

    // Per-lane derived quantities (conductance diagonal, stable substep),
    // refreshed lazily when a lane's conductances or capacities change.
    mutable std::vector<double> diag_;       ///< [node][lane] layout.
    mutable std::vector<double> stable_dt_;  ///< [lane]
    mutable std::vector<char> lane_dirty_;   ///< [lane]

    // Persistent stepping scratch (node*lane each) so step() never
    // allocates after the first call.
    struct scratch {
        std::vector<double> t0;
        std::vector<double> tmp;
        std::vector<double> k1;
        std::vector<double> k2;
        std::vector<double> k3;
        std::vector<double> k4;
        std::vector<int> substeps;  ///< [lane]
        std::vector<double> h;      ///< [lane]
        std::vector<double> rhs;  ///< settle_lane right-hand side.
        util::matrix cond;        ///< settle_lane lane matrix.
    };
    mutable scratch scratch_;
};

}  // namespace ltsc::thermal
