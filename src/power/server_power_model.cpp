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

load_terms server_power_model::load_at(double u_pct, double imbalance) const {
    const double shares[2] = {imbalance, 1.0 - imbalance};
    load_terms out;
    for (std::size_t s = 0; s < 2; ++s) {
        out.cpu_w[s] = (cpu_idle_each_ + active_.cpu(u_pct) * shares[s]).value();
    }
    out.dimm_w = (dimm_idle_total_ + active_.memory(u_pct)).value();
    out.other_w = active_.other(u_pct).value();
    out.base_active_w = (base_ + active_.total(u_pct)).value();
    return out;
}

die_watts server_power_model::leakage_at(const die_temps& die) const {
    return {leakage_.share_at(util::celsius_t{die[0]}, 2).value(),
            leakage_.share_at(util::celsius_t{die[1]}, 2).value()};
}

server_heat load_terms::heat(const die_watts& leak) const {
    server_heat out;
    out.cpu_w[0] = cpu_w[0] + leak[0];
    out.cpu_w[1] = cpu_w[1] + leak[1];
    out.dimm_w = dimm_w;
    out.other_w = other_w;
    util::ensure(out.cpu_w[0] >= 0.0 && out.cpu_w[1] >= 0.0 && out.dimm_w >= 0.0 &&
                     out.other_w >= 0.0,
                 "server_power_model::heat_at: negative heat");
    return out;
}

double load_terms::wall_w(const die_watts& leak, util::watts_t fan) const {
    util::ensure(fan.value() >= 0.0, "server_power_model: negative fan power");
    return base_active_w + (0.0 + leak[0] + leak[1]) + fan.value();
}

power_breakdown server_power_model::breakdown_at(double u_pct, const die_temps& die,
                                                 util::watts_t fan) const {
    util::ensure(fan.value() >= 0.0, "server_power_model: negative fan power");
    power_breakdown out;
    out.base = base_;
    out.active = active_.total(u_pct);
    const die_watts leak = leakage_at(die);
    out.leakage = util::watts_t{0.0 + leak[0] + leak[1]};
    out.fan = fan;
    return out;
}

void server_power_model::apply_heat(thermal::server_thermal_model& plant, std::size_t lane,
                                    double u_pct, double imbalance) const {
    set_heat(plant, lane, heat_at(u_pct, imbalance, plant.die_temps(lane)));
}

void server_power_model::set_heat(thermal::server_thermal_model& plant, std::size_t lane,
                                  const server_heat& heat) {
    for (std::size_t s = 0; s < 2; ++s) {
        plant.set_cpu_heat(lane, s, util::watts_t{heat.cpu_w[s]});
    }
    plant.set_dimm_heat(lane, util::watts_t{heat.dimm_w});
}

void server_power_model::settle(thermal::server_thermal_model& plant, std::size_t lane,
                                double u_pct, double imbalance) const {
    for (int i = 0; i < settle_rounds; ++i) {
        apply_heat(plant, lane, u_pct, imbalance);
        plant.settle(lane);
    }
}

}  // namespace ltsc::power
