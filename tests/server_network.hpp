// The one thermal network rc_batch integrates, server_thermal_model's
// layout, built from chosen values: for the tests that drive rc_batch
// directly against closed forms, conservation laws and snapshots.
#pragma once

#include "thermal/rc_network.hpp"
#include "util/units.hpp"

namespace ltsc::test {

/// Node handles in insertion order.
inline constexpr thermal::node_id die0{0};
inline constexpr thermal::node_id sink0{1};
inline constexpr thermal::node_id die1{2};
inline constexpr thermal::node_id sink1{3};
inline constexpr thermal::node_id dimm{4};

/// Edge handles in insertion order.
inline constexpr thermal::edge_id die0_sink0{0};
inline constexpr thermal::edge_id sink0_ambient{1};
inline constexpr thermal::edge_id die1_sink1{2};
inline constexpr thermal::edge_id sink1_ambient{3};
inline constexpr thermal::edge_id dimm_ambient{4};

/// Capacities [J/K], conductances [W/K] and ambient [degC] of one
/// network; the defaults are the paper server's calibration.
struct server_network_values {
    double ambient_c = 24.0;
    double c_die = 60.0;
    double c_sink = 600.0;
    double c_dimm = 800.0;
    double g_die_sink = 1.0 / 0.13;
    double g_sink = 2.857;
    double g_dimm = 5.26;
};

/// Both sockets share the die, sink and edge values.
inline thermal::rc_network server_network(const server_network_values& v = {}) {
    thermal::rc_network net(util::celsius_t{v.ambient_c});
    for (int s = 0; s < 2; ++s) {
        const thermal::node_id die = net.add_node(v.c_die);
        const thermal::node_id sink = net.add_node(v.c_sink);
        net.add_edge(die, sink, v.g_die_sink);
        net.add_ambient_edge(sink, v.g_sink);
    }
    net.add_ambient_edge(net.add_node(v.c_dimm), v.g_dimm);
    return net;
}

}  // namespace ltsc::test
