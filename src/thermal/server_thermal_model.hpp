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

#include "thermal/rc_network.hpp"
#include "thermal/transient_solver.hpp"
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
/// server_thermal_model and every sim::server_batch lane run this one
/// implementation, so their airflow arithmetic agrees bitwise.
class server_airflow {
public:
    explicit server_airflow(const server_thermal_config& config);

    /// Adopts per-zone airflow (one non-negative entry per fan zone, with
    /// a positive total) and recomputes the airflow-derived quantities.
    /// Zone 0 predominantly cools CPU0, zone 1 CPU1, zone 2 the shared
    /// plenum; the zone_mixing fraction models cross-flow in the plenum.
    void set_zone_airflow(const std::vector<util::cfm_t>& per_zone);

    /// Sink-to-ambient convection of socket `s` [W/K].
    [[nodiscard]] double sink_conductance(std::size_t s) const { return sink_g_w_per_k_[s]; }
    /// DIMM-to-ambient convection [W/K].
    [[nodiscard]] double dimm_conductance() const { return dimm_g_w_per_k_; }
    /// Thermal capacity rate of the whole air stream [W/K].
    [[nodiscard]] double stream_capacity() const { return stream_capacity_w_per_k_; }

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

/// Server thermal plant: owns the RC network, maps fan-zone airflow to
/// convective conductances, and applies DIMM-to-CPU preheat.  Heat inputs
/// are set by the caller each step (the sim module couples this model with
/// the power models).
class server_thermal_model {
public:
    explicit server_thermal_model(const server_thermal_config& config = {},
                                  integration_scheme scheme = integration_scheme::rk4);

    /// Number of CPU sockets (fixed at 2 for the target server).
    [[nodiscard]] static constexpr std::size_t socket_count() { return 2; }

    /// Sets per-zone airflow (see server_airflow::set_zone_airflow).
    void set_zone_airflow(const std::vector<util::cfm_t>& per_zone);

    /// Total heat dissipated in socket `s`'s die (idle + active + leakage
    /// share), applied until the next call.
    void set_cpu_heat(std::size_t s, util::watts_t w);

    /// Total heat dissipated across the DIMM field.
    void set_dimm_heat(util::watts_t w);

    /// Heat dissipated downstream of the CPUs (I/O, VRs); only affects the
    /// exhaust temperature.
    void set_other_heat(util::watts_t w);

    /// Changes the room temperature.
    void set_ambient(util::celsius_t t);

    /// Advances the plant by `dt`.
    void step(util::seconds_t dt);

    /// Solves for the steady state of the current inputs and adopts it.
    void settle_to_steady_state();

    /// Resets all node temperatures to ambient (cold start).
    void reset();

    /// Saves / restores the underlying network's dynamic state (node
    /// temperatures and powers, edge conductances, ambient).  The heat
    /// inputs (set_cpu_heat / set_dimm_heat / set_other_heat) and zone
    /// airflow remain the caller's per-step responsibility, exactly as
    /// in normal stepping — the simulator reapplies both before the
    /// first step after a restore.
    void save_state(rc_state& out) const { net_.save_state(out); }
    void restore_state(const rc_state& state) { net_.restore_state(state); }

    // Inline: the telemetry channels, leakage model, and trace recorder
    // read these every simulation step.
    [[nodiscard]] util::celsius_t cpu_die_temp(std::size_t s) const {
        util::ensure(s < socket_count(), "server_thermal_model::cpu_die_temp: bad socket");
        return net_.temperature(die_[s]);
    }
    [[nodiscard]] util::celsius_t cpu_sink_temp(std::size_t s) const {
        util::ensure(s < socket_count(), "server_thermal_model::cpu_sink_temp: bad socket");
        return net_.temperature(sink_[s]);
    }
    [[nodiscard]] util::celsius_t dimm_temp() const { return net_.temperature(dimm_); }
    /// Average of the two die temperatures (the quantity the paper's
    /// leakage model is expressed in).
    [[nodiscard]] util::celsius_t average_cpu_temp() const {
        return util::celsius_t{0.5 * (cpu_die_temp(0).value() + cpu_die_temp(1).value())};
    }
    /// Effective air temperature at the CPU heatsink inlet (ambient plus
    /// DIMM preheat).
    [[nodiscard]] util::celsius_t cpu_inlet_temp() const;
    /// Chassis exhaust air temperature.
    [[nodiscard]] util::celsius_t exhaust_temp() const;
    [[nodiscard]] util::celsius_t ambient() const { return net_.ambient(); }

    [[nodiscard]] const server_thermal_config& config() const { return config_; }

    /// Read-only access to the underlying network (tests, visualization).
    [[nodiscard]] const rc_network& network() const { return net_; }

    // Node/edge handles of the fixed topology, exposed so batched plants
    // (thermal::rc_batch lanes built over network()) and tests can address
    // the same nodes and mutable convective edges the scalar model drives.
    [[nodiscard]] node_id die_node(std::size_t s) const {
        util::ensure(s < socket_count(), "server_thermal_model::die_node: bad socket");
        return die_[s];
    }
    [[nodiscard]] node_id sink_node(std::size_t s) const {
        util::ensure(s < socket_count(), "server_thermal_model::sink_node: bad socket");
        return sink_[s];
    }
    [[nodiscard]] node_id dimm_node() const { return dimm_; }
    [[nodiscard]] edge_id die_sink_edge(std::size_t s) const {
        util::ensure(s < socket_count(), "server_thermal_model::die_sink_edge: bad socket");
        return die_sink_edge_[s];
    }
    [[nodiscard]] edge_id sink_ambient_edge(std::size_t s) const {
        util::ensure(s < socket_count(), "server_thermal_model::sink_ambient_edge: bad socket");
        return sink_amb_edge_[s];
    }
    [[nodiscard]] edge_id dimm_ambient_edge() const { return dimm_amb_edge_; }

private:
    void update_conductances();
    void update_preheat();

    server_thermal_config config_;
    server_airflow air_;  ///< Before net_: validates the config before nodes are added.
    rc_network net_;
    transient_solver solver_;

    node_id die_[2];
    node_id sink_[2];
    node_id dimm_;
    edge_id die_sink_edge_[2];
    edge_id sink_amb_edge_[2];
    edge_id dimm_amb_edge_;

    double cpu_heat_w_[2] = {0.0, 0.0};
    double dimm_heat_w_ = 0.0;
    double other_heat_w_ = 0.0;
};

}  // namespace ltsc::thermal
