#include "power/server_power_model.hpp"

#include "thermal/server_thermal_model.hpp"
#include "util/error.hpp"

namespace ltsc::power {

server_power_model::server_power_model(util::watts_t base, util::watts_t cpu_idle_each,
                                       util::watts_t dimm_idle_total, const active_model& active,
                                       const leakage_model& leakage)
    : base_(base),
      cpu_idle_each_(cpu_idle_each),
      dimm_idle_total_(dimm_idle_total),
      active_(active),
      leakage_(leakage) {
    util::ensure(base.value() >= 0.0 && cpu_idle_each.value() >= 0.0 &&
                     dimm_idle_total.value() >= 0.0,
                 "server_power_model: negative idle power");
}

server_heat server_power_model::heat_at(double u_pct, double imbalance,
                                        const die_temps& die) const {
    const double shares[2] = {imbalance, 1.0 - imbalance};
    server_heat heat;
    for (std::size_t s = 0; s < 2; ++s) {
        const util::watts_t die_heat = cpu_idle_each_ + active_.cpu(u_pct) * shares[s] +
                                       leakage_.share_at(util::celsius_t{die[s]}, 2);
        heat.cpu_w[s] = die_heat.value();
    }
    heat.dimm_w = (dimm_idle_total_ + active_.memory(u_pct)).value();
    heat.other_w = active_.other(u_pct).value();
    util::ensure(heat.cpu_w[0] >= 0.0 && heat.cpu_w[1] >= 0.0 && heat.dimm_w >= 0.0 &&
                     heat.other_w >= 0.0,
                 "server_power_model::heat_at: negative heat");
    return heat;
}

power_breakdown server_power_model::breakdown_at(double u_pct, const die_temps& die,
                                                 util::watts_t fan) const {
    util::ensure(fan.value() >= 0.0, "server_power_model: negative fan power");
    power_breakdown out;
    out.base = base_;
    out.active = active_.total(u_pct);
    util::watts_t leak{0.0};
    for (std::size_t s = 0; s < 2; ++s) {
        leak += leakage_.share_at(util::celsius_t{die[s]}, 2);
    }
    out.leakage = leak;
    out.fan = fan;
    return out;
}

void server_power_model::apply_heat(thermal::server_thermal_model& plant, std::size_t lane,
                                    double u_pct, double imbalance) const {
    const server_heat h = heat_at(u_pct, imbalance, plant.die_temps(lane));
    for (std::size_t s = 0; s < 2; ++s) {
        plant.set_cpu_heat(lane, s, util::watts_t{h.cpu_w[s]});
    }
    plant.set_dimm_heat(lane, util::watts_t{h.dimm_w});
}

void server_power_model::settle(thermal::server_thermal_model& plant, std::size_t lane,
                                double u_pct, double imbalance) const {
    for (int i = 0; i < settle_rounds; ++i) {
        apply_heat(plant, lane, u_pct, imbalance);
        plant.settle(lane);
    }
}

}  // namespace ltsc::power
