#include "thermal/server_thermal_model.hpp"

#include <algorithm>
#include <cmath>

#include "thermal/airflow.hpp"
#include "thermal/steady_state.hpp"
#include "util/error.hpp"

namespace ltsc::thermal {

server_airflow::server_airflow(const server_thermal_config& config) : config_(config) {
    util::ensure(config.fan_zones >= 1, "server_airflow: need at least one fan zone");
    util::ensure(config.r_junction_sink > 0.0, "server_airflow: bad junction resistance");
    util::ensure(config.zone_mixing >= 0.0 && config.zone_mixing <= 1.0,
                 "server_airflow: zone_mixing out of [0, 1]");
    util::ensure(config.ref_airflow_cfm > 0.0, "server_airflow: bad reference airflow");
    // Until told otherwise, assume the reference airflow split evenly.
    zone_airflow_cfm_.assign(config.fan_zones, config.ref_airflow_cfm / config.fan_zones);
    update();
}

double server_airflow::total_airflow_cfm() const {
    double acc = 0.0;
    for (double q : zone_airflow_cfm_) {
        acc += q;
    }
    return acc;
}

double server_airflow::effective_airflow_cfm(std::size_t component_zone) const {
    // A component in zone z sees mostly its own zone's flow plus a mixed
    // share of the whole plenum.  With equal zone flows this reduces to the
    // total airflow, which is what the calibration anchors use.
    const double total = total_airflow_cfm();
    const double zones = static_cast<double>(zone_airflow_cfm_.size());
    if (component_zone >= zone_airflow_cfm_.size()) {
        return total;
    }
    const double own = zone_airflow_cfm_[component_zone] * zones;
    return (1.0 - config_.zone_mixing) * own + config_.zone_mixing * total;
}

void server_airflow::set_zone_airflow(const std::vector<util::cfm_t>& per_zone) {
    util::ensure(per_zone.size() == zone_airflow_cfm_.size(),
                 "server_airflow::set_zone_airflow: zone count mismatch");
    for (std::size_t i = 0; i < per_zone.size(); ++i) {
        util::ensure(per_zone[i].value() >= 0.0,
                     "server_airflow::set_zone_airflow: negative airflow");
        zone_airflow_cfm_[i] = per_zone[i].value();
    }
    util::ensure(total_airflow_cfm() > 0.0,
                 "server_airflow::set_zone_airflow: zero total airflow");
    update();
}

void server_airflow::update() {
    const double q_ref = config_.ref_airflow_cfm;
    for (std::size_t s = 0; s < 2; ++s) {
        const double q = effective_airflow_cfm(s);
        sink_g_w_per_k_[s] = config_.g_sink_ref * std::pow(q / q_ref, config_.airflow_exponent);
    }
    const double q_dimm = total_airflow_cfm();
    dimm_g_w_per_k_ = config_.g_dimm_ref * std::pow(q_dimm / q_ref, config_.airflow_exponent);
    stream_capacity_w_per_k_ = stream_capacity_w_per_k(util::cfm_t{q_dimm});
}

std::array<double, 2> server_airflow::sink_preheat_w(double dimm_diagonal_w_per_k,
                                                     util::celsius_t dimm,
                                                     util::celsius_t ambient) const {
    // The total airflow is positive by construction, so the stream
    // capacity is too.
    const double dimm_to_air = dimm_diagonal_w_per_k * (dimm.value() - ambient.value());
    const double preheat_c = std::max(0.0, dimm_to_air) / stream_capacity_w_per_k_;
    return {sink_g_w_per_k_[0] * preheat_c, sink_g_w_per_k_[1] * preheat_c};
}

server_thermal_model::server_thermal_model(const server_thermal_config& config,
                                           integration_scheme scheme)
    : config_(config), air_(config), net_(util::celsius_t{config.ambient_c}), solver_(scheme) {
    for (std::size_t s = 0; s < socket_count(); ++s) {
        die_[s] = net_.add_node("cpu" + std::to_string(s) + "_die", config.c_die);
        sink_[s] = net_.add_node("cpu" + std::to_string(s) + "_sink", config.c_sink);
        die_sink_edge_[s] = net_.add_edge(die_[s], sink_[s], 1.0 / config.r_junction_sink);
        sink_amb_edge_[s] = net_.add_ambient_edge(sink_[s], config.g_sink_ref);
    }
    dimm_ = net_.add_node("dimm_bank", config.c_dimm);
    dimm_amb_edge_ = net_.add_ambient_edge(dimm_, config.g_dimm_ref);

    update_conductances();
    update_preheat();
}

void server_thermal_model::update_conductances() {
    for (std::size_t s = 0; s < socket_count(); ++s) {
        net_.set_conductance(sink_amb_edge_[s], air_.sink_conductance(s));
    }
    net_.set_conductance(dimm_amb_edge_, air_.dimm_conductance());
}

void server_thermal_model::update_preheat() {
    const std::array<double, 2> preheat_w =
        air_.sink_preheat_w(net_.cached_conductance_matrix()(dimm_.index, dimm_.index),
                            net_.temperature(dimm_), net_.ambient());
    for (std::size_t s = 0; s < socket_count(); ++s) {
        net_.set_power(sink_[s], util::watts_t{preheat_w[s]});
        net_.set_power(die_[s], util::watts_t{cpu_heat_w_[s]});
    }
    net_.set_power(dimm_, util::watts_t{dimm_heat_w_});
}

void server_thermal_model::set_zone_airflow(const std::vector<util::cfm_t>& per_zone) {
    air_.set_zone_airflow(per_zone);
    update_conductances();
}

void server_thermal_model::set_cpu_heat(std::size_t s, util::watts_t w) {
    util::ensure(s < socket_count(), "server_thermal_model::set_cpu_heat: bad socket");
    util::ensure(w.value() >= 0.0, "server_thermal_model::set_cpu_heat: negative heat");
    cpu_heat_w_[s] = w.value();
}

void server_thermal_model::set_dimm_heat(util::watts_t w) {
    util::ensure(w.value() >= 0.0, "server_thermal_model::set_dimm_heat: negative heat");
    dimm_heat_w_ = w.value();
}

void server_thermal_model::set_other_heat(util::watts_t w) {
    util::ensure(w.value() >= 0.0, "server_thermal_model::set_other_heat: negative heat");
    other_heat_w_ = w.value();
}

void server_thermal_model::set_ambient(util::celsius_t t) { net_.set_ambient(t); }

void server_thermal_model::step(util::seconds_t dt) {
    update_preheat();
    solver_.step(net_, dt);
}

void server_thermal_model::settle_to_steady_state() {
    for (int i = 0; i < server_airflow::preheat_rounds; ++i) {
        update_preheat();
        settle(net_);
    }
}

void server_thermal_model::reset() {
    net_.reset_temperatures();
    update_preheat();
}

util::celsius_t server_thermal_model::cpu_inlet_temp() const {
    const double dimm_to_air =
        air_.dimm_conductance() * std::max(0.0, dimm_temp().value() - net_.ambient().value());
    return util::celsius_t{net_.ambient().value() + dimm_to_air / air_.stream_capacity()};
}

util::celsius_t server_thermal_model::exhaust_temp() const {
    // All heat convected off the monitored components plus the downstream
    // "other" dissipation ends up in the exhaust stream.
    double into_air = other_heat_w_;
    into_air +=
        air_.dimm_conductance() * std::max(0.0, dimm_temp().value() - net_.ambient().value());
    for (std::size_t s = 0; s < socket_count(); ++s) {
        into_air += air_.sink_conductance(s) *
                    std::max(0.0, cpu_sink_temp(s).value() - cpu_inlet_temp().value());
    }
    return util::celsius_t{net_.ambient().value() + into_air / air_.stream_capacity()};
}

}  // namespace ltsc::thermal
