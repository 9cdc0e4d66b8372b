// Whole-server power model (Eqn. 1 of the paper):
//
//   P_total = P_base + P_active(U) + P_leak(T) + P_fan(RPM)
//
// P_base collects everything the fan controller cannot influence (idle
// logic power of CPUs/DIMMs/disks, service processor, PSU overhead).  Part
// of it, together with the active and leakage terms, is heat dissipated in
// the thermal nodes: each CPU die takes its idle share, its share of the
// CPU active power and the leakage of its own temperature; the DIMM field
// takes its idle share and the memory active power.
//
// The plant lanes, the fault monitor's twin lanes and the steady idle-power
// probe run this one model, so their heat and power arithmetic agrees
// bitwise by construction.
#pragma once

#include <array>
#include <cstddef>

#include "power/active_model.hpp"
#include "power/leakage_model.hpp"
#include "util/units.hpp"

namespace ltsc::thermal {
class server_thermal_model;
}

namespace ltsc::power {

/// Instantaneous power breakdown of the server.
struct power_breakdown {
    util::watts_t base{0.0};     ///< Utilization/temperature-independent floor.
    util::watts_t active{0.0};   ///< Dynamic power, linear in utilization.
    util::watts_t leakage{0.0};  ///< Temperature-dependent leakage.
    util::watts_t fan{0.0};      ///< Fan electrical power.

    /// Sum of all components (the system power sensor reading).
    [[nodiscard]] util::watts_t total() const { return base + active + leakage + fan; }
};

/// Die temperatures of both sockets [degC], socket order.
using die_temps = std::array<double, 2>;
/// A per-die power of both sockets [W], socket order.
using die_watts = std::array<double, 2>;

/// Heat one step injects into the thermal network [W].
struct server_heat {
    double cpu_w[2] = {0.0, 0.0};  ///< Per-socket die heat.
    double dimm_w = 0.0;           ///< Whole DIMM field.
    double other_w = 0.0;          ///< Downstream heat (I/O, VRs); no node takes it.
};

/// The utilization-only terms of heat_at() and breakdown_at(): what
/// every lane stepping at one utilization and imbalance shares.  Adding
/// each die's leakage share (server_power_model::leakage_at) gives the
/// lane's heat and wall power with the same operations, in the same
/// order, as heat_at() and breakdown_at().total().
struct load_terms {
    double cpu_w[2] = {0.0, 0.0};  ///< Each die's idle plus active heat.
    double dimm_w = 0.0;           ///< DIMM field heat.
    double other_w = 0.0;          ///< Downstream heat.
    double base_active_w = 0.0;    ///< base + active.

    /// heat_at() with the dies' leakage shares `leak`.
    [[nodiscard]] server_heat heat(const die_watts& leak) const;
    /// breakdown_at().total() with the dies' leakage shares `leak`.
    [[nodiscard]] double wall_w(const die_watts& leak, util::watts_t fan) const;
};

/// Eqn. 1 of one two-socket server and the heat it drives into the
/// thermal network.
class server_power_model {
public:
    /// `cpu_idle_each` and `dimm_idle_total` are the shares of `base`
    /// dissipated in each CPU die and across the DIMM field.
    server_power_model(util::watts_t base, util::watts_t cpu_idle_each,
                       util::watts_t dimm_idle_total, const active_model& active,
                       const leakage_model& leakage);

    /// Heat at utilization `u_pct` with the dies at `die`; socket 0
    /// carries `imbalance` of the CPU active heat.
    [[nodiscard]] server_heat heat_at(double u_pct, double imbalance, const die_temps& die) const {
        return load_at(u_pct, imbalance).heat(leakage_at(die));
    }

    /// The utilization-only terms at `u_pct` and `imbalance`.
    [[nodiscard]] load_terms load_at(double u_pct, double imbalance) const;
    /// Each die's leakage share at its own temperature.
    [[nodiscard]] die_watts leakage_at(const die_temps& die) const;

    /// Eqn. 1 at utilization `u_pct` with the dies at `die` and the fan
    /// bank drawing `fan`.
    [[nodiscard]] power_breakdown breakdown_at(double u_pct, const die_temps& die,
                                               util::watts_t fan) const;

    /// Sets heat_at() at lane `lane`'s current die temperatures as that
    /// lane's heat inputs.  The one heat-application path of every plant.
    void apply_heat(thermal::server_thermal_model& plant, std::size_t lane, double u_pct,
                    double imbalance) const;
    /// Sets `heat` as lane `lane`'s die and DIMM heat inputs.
    static void set_heat(thermal::server_thermal_model& plant, std::size_t lane,
                         const server_heat& heat);

    /// Jumps lane `lane` of `plant` to the self-consistent steady state at
    /// utilization `u_pct`: leakage depends on the die temperature, which
    /// depends on leakage, so apply_heat() and a steady solve alternate
    /// for settle_rounds.
    void settle(thermal::server_thermal_model& plant, std::size_t lane, double u_pct,
                double imbalance) const;

    /// Rounds of the leakage fixed point.
    static constexpr int settle_rounds = 12;

private:
    util::watts_t base_;
    util::watts_t cpu_idle_each_;
    util::watts_t dimm_idle_total_;
    active_model active_;
    leakage_model leakage_;
};

}  // namespace ltsc::power
