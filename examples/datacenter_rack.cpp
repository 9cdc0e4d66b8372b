// Scale-out scenario: a rack of simulated servers under heterogeneous
// workloads, comparing cooling policies fleet-wide.
//
//   $ ./datacenter_rack [server_count]
//
// Each server gets its own workload mix (web-like diurnal ramps, batch
// plateaus, bursty shells).  The whole rack is one sim::server_batch:
// every server is a lane of the structure-of-arrays plant, all lanes
// step through one batched thermal kernel, and each lane's controller
// runs against its own telemetry.  The example reports per-policy fleet
// energy, the PSU conversion losses (power::psu_model evaluated over the
// fleet's DC draws as one flat array), and the aggregate heat the rack
// dumps into the hot aisle — the quantity a facility-level study would
// feed into a CRAC model.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/bang_bang_controller.hpp"
#include "core/characterization.hpp"
#include "core/controller_runtime.hpp"
#include "core/default_controller.hpp"
#include "core/lut_controller.hpp"
#include "rack/psu_model.hpp"
#include "rack/room_model.hpp"
#include "sim/metrics.hpp"
#include "sim/server_batch.hpp"
#include "sim/server_simulator.hpp"
#include "workload/profile.hpp"
#include "workload/queueing.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

/// Builds the i-th server's workload: one of three archetypes.
workload::utilization_profile rack_workload(std::size_t i) {
    switch (i % 3) {
        case 0: {  // web front-end: diurnal ramp up and down
            workload::utilization_profile p("web");
            p.idle(4.0_min)
                .ramp(10.0, 85.0, 24.0_min)
                .constant(85.0, 8.0_min)
                .ramp(85.0, 10.0, 20.0_min)
                .idle(4.0_min);
            return p;
        }
        case 1: {  // batch: long plateaus
            workload::utilization_profile p("batch");
            p.idle(4.0_min)
                .constant(95.0, 22.0_min)
                .constant(35.0, 12.0_min)
                .constant(95.0, 18.0_min)
                .idle(4.0_min);
            return p;
        }
        default: {  // interactive shells: bursty M/M/c
            workload::mmc_config cfg;
            cfg.servers = 64;
            cfg.service_rate_hz = 1.0 / 20.0;
            cfg.arrival_rate_hz = 0.2 * 64.0 * cfg.service_rate_hz;
            cfg.modulation.enabled = true;
            cfg.modulation.burst_arrival_rate_hz = 0.9 * 64.0 * cfg.service_rate_hz;
            cfg.seed = 0xACE0 + i;
            return workload::mmc_profile("shell", cfg, 60.0_min);
        }
    }
}

std::unique_ptr<core::fan_controller> make_policy(const std::string& policy,
                                                  const core::fan_lut& lut_table) {
    if (policy == "Bang") {
        return std::make_unique<core::bang_bang_controller>();
    }
    if (policy == "LUT") {
        return std::make_unique<core::lut_controller>(lut_table);
    }
    return std::make_unique<core::default_controller>();
}

struct fleet_result {
    double energy_kwh = 0.0;
    double peak_w = 0.0;
    double max_temp_c = 0.0;
    double exhaust_heat_kwh = 0.0;  // heat into the hot aisle (= DC energy)
    double psu_loss_kwh = 0.0;      // conversion losses at the rack PDU
    double duration_s = 0.0;        // trace span of the runs
};

/// Runs one policy across the whole rack as a single batched plant and
/// folds the per-lane rows into fleet totals.
fleet_result run_fleet(const sim::server_config& cfg, std::size_t servers,
                       const std::string& policy, const core::fan_lut& lut_table,
                       const power::psu_model& psu) {
    sim::server_batch rack(cfg, servers);
    std::vector<workload::utilization_profile> profiles;
    std::vector<std::unique_ptr<core::fan_controller>> owned;
    std::vector<core::fan_controller*> controllers;
    for (std::size_t i = 0; i < servers; ++i) {
        profiles.push_back(rack_workload(i));
        owned.push_back(make_policy(policy, lut_table));
        controllers.push_back(owned.back().get());
    }
    const std::vector<sim::run_metrics> rows =
        core::run_controlled_batch(rack, controllers, profiles);

    fleet_result fleet;
    std::vector<double> dc_w(servers);
    for (std::size_t i = 0; i < servers; ++i) {
        const sim::run_metrics& m = rows[i];
        fleet.energy_kwh += m.energy_kwh;
        fleet.peak_w += m.peak_power_w;
        fleet.max_temp_c = std::max(fleet.max_temp_c, m.max_temp_c);
        fleet.exhaust_heat_kwh += m.energy_kwh;
        fleet.duration_s = m.duration_s;
        dc_w[i] = m.energy_kwh * 3.6e6 / m.duration_s;
    }
    // Everything a server draws ends up as heat in the aisle; the PSUs
    // add their conversion losses on top of the fleet's DC draws, which
    // are evaluated through the curve as one flat array.
    std::vector<double> ac_w;
    psu.ac_input_into(dc_w, ac_w);
    for (std::size_t i = 0; i < servers; ++i) {
        fleet.psu_loss_kwh += (ac_w[i] - dc_w[i]) * rows[i].duration_s / 3.6e6;
    }
    return fleet;
}

}  // namespace

int main(int argc, char** argv) {
    const std::size_t servers = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 6;
    std::printf("rack of %zu servers (one server_batch lane each), 60-minute "
                "heterogeneous workloads\n\n",
                servers);

    // Characterize once (all servers share the hardware model).
    sim::server_simulator reference;
    const core::fan_lut lut_table = core::characterize(reference).lut;
    const power::psu_model psu;  // 2 kW 80+ Gold supply per server

    const char* policies[] = {"Default", "Bang", "LUT"};
    std::printf("%-8s %14s %11s %12s %14s %14s\n", "policy", "energy[kWh]", "peak[W]",
                "maxT[degC]", "PSU loss[kWh]", "aisle heat[kWh]");
    for (const char* policy : policies) {
        const fleet_result fleet =
            run_fleet(sim::paper_server(), servers, policy, lut_table, psu);
        std::printf("%-8s %14.3f %11.0f %12.1f %14.3f %14.3f\n", policy, fleet.energy_kwh,
                    fleet.peak_w, fleet.max_temp_c, fleet.psu_loss_kwh,
                    fleet.exhaust_heat_kwh + fleet.psu_loss_kwh);
    }

    // --- facility view: server control x room setpoint -------------------
    // The CRAC's COP improves with warmer supply air, but warmer rooms
    // raise server leakage and fan effort.  Sweep the setpoint with the
    // LUT policy (recharacterized per ambient) to find the facility knee.
    std::printf("\nfacility view (LUT policy, rack IT power + CRAC compressor):\n");
    std::printf("%14s %10s %14s %16s %8s\n", "setpoint[degC]", "COP", "IT avg [W]",
                "facility avg [W]", "PUE");
    const thermal::crac_model crac;
    for (double setpoint : {16.0, 20.0, 24.0, 28.0}) {
        auto cfg = sim::paper_server();
        cfg.thermal.ambient_c = setpoint;
        sim::server_simulator probe(cfg);
        const core::fan_lut warm_lut = core::characterize(probe).lut;
        const fleet_result fleet = run_fleet(cfg, servers, "LUT", warm_lut, psu);
        const double it_avg_w = fleet.energy_kwh * 3.6e6 / fleet.duration_s;
        const auto facility =
            crac.facility(util::watts_t{it_avg_w}, util::celsius_t{setpoint});
        std::printf("%14.0f %10.2f %14.0f %16.0f %8.3f\n", setpoint,
                    crac.cop(util::celsius_t{setpoint}), facility.it.value(),
                    facility.total.value(), facility.pue);
    }

    std::printf("\nFleet-level takeaway: per-server savings compound linearly across the\n"
                "rack, lower peak power relaxes the rack's provisioned power budget, and\n"
                "leakage-aware server control shifts the facility-optimal setpoint.\n");
    return 0;
}
