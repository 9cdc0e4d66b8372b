// Compact thermal model of the paper's target server.
//
// Topology (airflow left to right; 3 fan pairs drive the stream):
//
//   ambient -> [DIMM field, 32 modules] -> [CPU0 sink]  -> exhaust
//                                       -> [CPU1 sink]  ->
//
// Five thermal nodes: two CPU dies, two CPU heatsinks, one aggregated DIMM
// bank.  Convective conductances scale linearly with airflow (and hence
// with RPM, via the fan affinity laws), which reproduces both the steady
// temperatures and the fan-speed-dependent time constants of Fig. 1(a):
// ~15 min to settle at 1800 RPM vs. ~5 min at 4200 RPM.
//
// Calibration anchors (100 % utilization, 24 degC ambient):
//   1800 RPM -> ~85 degC, 2400 -> ~70, 3000 -> ~63, 3600 -> ~57, 4200 -> ~54.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "thermal/rc_batch.hpp"
#include "thermal/rc_network.hpp"
#include "util/units.hpp"

namespace ltsc::thermal {

/// Calibrated physical parameters of the server thermal model.  Defaults
/// reproduce the paper's SPARC T3 server (see file comment).
struct server_thermal_config {
    double ambient_c = 24.0;            ///< Room temperature [degC].
    std::size_t fan_zones = 3;          ///< Independently driven fan pairs.
    double r_junction_sink = 0.13;      ///< Die -> heatsink conduction [K/W].
    double c_die = 60.0;                ///< Die + spreader capacity [J/K].
    double c_sink = 600.0;              ///< Heatsink capacity [J/K].
    double c_dimm = 800.0;              ///< DIMM bank capacity [J/K].
    double g_sink_ref = 2.857;          ///< Sink convection at ref airflow [W/K].
    double g_dimm_ref = 5.26;           ///< DIMM convection at ref airflow [W/K].
    double ref_airflow_cfm = 65.57;     ///< All pairs at 1800 RPM [CFM].
    double airflow_exponent = 1.0;      ///< G ~ (Q/Q_ref)^exponent.
    double zone_mixing = 0.3;           ///< Plenum mixing between fan zones.
};

/// Airflow coupling of one server: maps per-zone fan airflow to the
/// sink/DIMM convective conductances and the airstream capacity, and
/// turns the heat the DIMM field gives the stream into CPU-inlet preheat.
/// Construction validates the thermal configuration's invariants and
/// starts from the reference airflow split evenly across the zones.
/// Every server_thermal_model lane runs one.
class server_airflow {
public:
    explicit server_airflow(const server_thermal_config& config);

    /// Adopts per-zone airflow (one non-negative entry per fan zone, with
    /// a positive total) and recomputes the airflow-derived quantities.
    /// Zone 0 predominantly cools CPU0, zone 1 CPU1, zone 2 the shared
    /// plenum; the zone_mixing fraction models cross-flow in the plenum.
    void set_zone_airflow(const std::vector<util::cfm_t>& per_zone);
    /// Whether the zones run under exactly `per_zone`, entry by entry.
    [[nodiscard]] bool runs_under(const std::vector<util::cfm_t>& per_zone) const;

    /// Sink-to-ambient convection of socket `s` [W/K].
    [[nodiscard]] double sink_conductance(std::size_t s) const { return sink_g_w_per_k_[s]; }
    /// DIMM-to-ambient convection [W/K].
    [[nodiscard]] double dimm_conductance() const { return dimm_g_w_per_k_; }

    /// Per-socket sink power injections that model the DIMM preheat of
    /// the CPU inlet air [W].  The inlet rise is the heat the DIMM node
    /// convects into the stream (its conductance-matrix diagonal times
    /// its rise over ambient, floored at zero) over the stream capacity.
    /// An ambient edge of conductance G with inlet offset dT equals the
    /// plain edge plus a G * dT injection at the node.
    [[nodiscard]] std::array<double, 2> sink_preheat_w(double dimm_diagonal_w_per_k,
                                                       util::celsius_t dimm,
                                                       util::celsius_t ambient) const;

    /// Rounds of the preheat fixed point a steady solve runs: preheat
    /// depends on the DIMM temperature, which the solve changes.
    static constexpr int preheat_rounds = 8;

private:
    [[nodiscard]] double total_airflow_cfm() const;
    [[nodiscard]] double effective_airflow_cfm(std::size_t component_zone) const;
    void update();

    server_thermal_config config_;
    std::vector<double> zone_airflow_cfm_;
    // Cached on every airflow change so the per-step preheat update does
    // not re-evaluate pow() or the airstream capacity.
    double sink_g_w_per_k_[2] = {0.0, 0.0};
    double dimm_g_w_per_k_ = 0.0;
    double stream_capacity_w_per_k_ = 0.0;
};

/// Server thermal plant: N lanes (servers) over one rc_batch, each with
/// its own server_thermal_config and server_airflow.  It builds the
/// five-node topology, maps fan-zone airflow to convective conductances,
/// injects the DIMM-to-CPU preheat when it steps, and runs the preheat
/// fixed point of a steady solve.  Heat inputs are set by the caller
/// each step (power::server_power_model couples this model with Eqn. 1).
/// The idle-power probe owns one lane; sim::server_batch owns one lane
/// per server plus one twin lane per monitored server (the fault
/// monitor's healthy twin), and sim::rollout_engine one lane per
/// candidate slot.
class server_thermal_model {
public:
    /// One lane per configuration (at least one; each validated).  Lanes
    /// may differ in every calibration field.  Every lane starts with its
    /// nodes at its ambient and the reference airflow split evenly.
    explicit server_thermal_model(const std::vector<server_thermal_config>& configs);

    /// A one-lane model.
    explicit server_thermal_model(const server_thermal_config& config = {});

    /// Number of CPU sockets (fixed at 2 for the target server).
    [[nodiscard]] static constexpr std::size_t socket_count() { return 2; }

    [[nodiscard]] std::size_t lane_count() const { return airflow_.size(); }

    /// Sets one lane's per-zone airflow (see server_airflow::set_zone_airflow).
    void set_zone_airflow(std::size_t lane, const std::vector<util::cfm_t>& per_zone);
    /// Whether lane `lane` runs under exactly this per-zone airflow.
    [[nodiscard]] bool runs_under(std::size_t lane, const std::vector<util::cfm_t>& airflow) const {
        return airflow_[lane].runs_under(airflow);
    }

    /// Total heat dissipated in socket `s`'s die (idle + active + leakage
    /// share), applied until the next call.
    void set_cpu_heat(std::size_t lane, std::size_t s, util::watts_t w);

    /// Total heat dissipated across the DIMM field.
    void set_dimm_heat(std::size_t lane, util::watts_t w);

    /// Changes one lane's room temperature.
    void set_ambient(std::size_t lane, util::celsius_t t) { net_.set_ambient(lane, t); }

    /// Advances every lane by `dt`: injects each stepped lane's preheat at
    /// its current DIMM temperature, then takes one RK4 step.  `active`
    /// masks lanes as in rc_batch::step (a masked lane is untouched).
    void step(util::seconds_t dt, const unsigned char* active = nullptr) {
        step_prefix(lane_count(), dt, active);
    }
    /// step() over lanes [0, count) only (see rc_batch::step_prefix).
    void step_prefix(std::size_t count, util::seconds_t dt,
                     const unsigned char* active = nullptr);

    /// Solves one lane's steady state for its current inputs and adopts
    /// it: preheat depends on the DIMM temperature, which the solve moves,
    /// so preheat injection and a steady solve alternate for
    /// server_airflow::preheat_rounds.
    void settle(std::size_t lane);

    /// Resets one lane's node temperatures to its ambient (cold start).
    void reset(std::size_t lane);

    /// Saves / restores one lane's dynamic state (node temperatures and
    /// powers, edge conductances, ambient).  The heat inputs and zone
    /// airflow remain the caller's per-step responsibility, exactly as in
    /// normal stepping — the plants reapply both before the first step
    /// after a restore.
    void save_state(std::size_t lane, rc_state& out) const { net_.save_lane_state(lane, out); }
    void restore_state(std::size_t lane, const rc_state& state) {
        net_.load_lane_state(lane, state);
    }
    /// Throws unless restore_state would accept `state` (see
    /// rc_batch::check_lane_state).
    void check_state(const rc_state& state) const { net_.check_lane_state(state); }

    // Inline: the telemetry channels, leakage model, and trace recorder
    // read these every simulation step.
    [[nodiscard]] util::celsius_t cpu_die_temp(std::size_t lane, std::size_t s) const {
        util::ensure(s < socket_count(), "server_thermal_model::cpu_die_temp: bad socket");
        return net_.temperature(die_[s], lane);
    }
    /// Both die temperatures [degC], socket order.
    [[nodiscard]] std::array<double, 2> die_temps(std::size_t lane) const {
        return {net_.temperature(die_[0], lane).value(), net_.temperature(die_[1], lane).value()};
    }
    [[nodiscard]] util::celsius_t dimm_temp(std::size_t lane) const {
        return net_.temperature(dimm_, lane);
    }
    /// Average of the two die temperatures (the quantity the paper's
    /// leakage model is expressed in).
    [[nodiscard]] util::celsius_t average_cpu_temp(std::size_t lane) const {
        const std::array<double, 2> die = die_temps(lane);
        return util::celsius_t{0.5 * (die[0] + die[1])};
    }
    [[nodiscard]] util::celsius_t ambient(std::size_t lane) const { return net_.ambient(lane); }

private:
    /// Pushes the lane's airflow-derived conductances into its edges.
    void apply_airflow(std::size_t lane);
    /// Injects the lane's DIMM preheat at its current DIMM temperature.
    void apply_preheat(std::size_t lane);

    // Fixed topology handles, shared by every lane.
    node_id die_[2];
    node_id sink_[2];
    node_id dimm_;
    edge_id die_sink_edge_[2];
    edge_id sink_amb_edge_[2];
    edge_id dimm_amb_edge_;

    std::vector<server_airflow> airflow_;  ///< [lane]; validates each config.
    rc_batch net_;
};

}  // namespace ltsc::thermal
