#include "thermal/server_thermal_model.hpp"

#include <algorithm>
#include <cmath>

#include "thermal/airflow.hpp"
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

bool server_airflow::runs_under(const std::vector<util::cfm_t>& per_zone) const {
    return std::equal(per_zone.begin(), per_zone.end(), zone_airflow_cfm_.begin(),
                      zone_airflow_cfm_.end(),
                      [](util::cfm_t q, double cfm) { return q.value() == cfm; });
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

namespace {

const server_thermal_config& front_checked(const std::vector<server_thermal_config>& configs) {
    util::ensure(!configs.empty(), "server_thermal_model: need at least one lane");
    return configs.front();
}

}  // namespace

server_thermal_model::server_thermal_model(const server_thermal_config& config)
    : server_thermal_model(std::vector<server_thermal_config>{config}) {}

server_thermal_model::server_thermal_model(const std::vector<server_thermal_config>& configs)
    : airflow_(configs.begin(), configs.end()),
      net_(
          [&] {
              // The topology, with the first lane's calibration as the
              // initial values every lane starts from.
              const server_thermal_config& c = front_checked(configs);
              rc_network topo(util::celsius_t{c.ambient_c});
              for (std::size_t s = 0; s < socket_count(); ++s) {
                  die_[s] = topo.add_node(c.c_die);
                  sink_[s] = topo.add_node(c.c_sink);
                  die_sink_edge_[s] = topo.add_edge(die_[s], sink_[s], 1.0 / c.r_junction_sink);
                  sink_amb_edge_[s] = topo.add_ambient_edge(sink_[s], c.g_sink_ref);
              }
              dimm_ = topo.add_node(c.c_dimm);
              dimm_amb_edge_ = topo.add_ambient_edge(dimm_, c.g_dimm_ref);
              return topo;
          }(),
          configs.size()) {
    for (std::size_t l = 0; l < configs.size(); ++l) {
        const server_thermal_config& c = configs[l];
        net_.set_ambient(l, util::celsius_t{c.ambient_c});
        for (std::size_t s = 0; s < socket_count(); ++s) {
            net_.set_heat_capacity(die_[s], l, c.c_die);
            net_.set_heat_capacity(sink_[s], l, c.c_sink);
            net_.set_conductance(die_sink_edge_[s], l, 1.0 / c.r_junction_sink);
        }
        net_.set_heat_capacity(dimm_, l, c.c_dimm);
        reset(l);
        apply_airflow(l);
    }
}

void server_thermal_model::set_zone_airflow(std::size_t lane,
                                            const std::vector<util::cfm_t>& per_zone) {
    util::ensure(lane < lane_count(), "server_thermal_model: lane out of range");
    airflow_[lane].set_zone_airflow(per_zone);
    apply_airflow(lane);
}

void server_thermal_model::apply_airflow(std::size_t lane) {
    const server_airflow& air = airflow_[lane];
    for (std::size_t s = 0; s < socket_count(); ++s) {
        net_.set_conductance(sink_amb_edge_[s], lane, air.sink_conductance(s));
    }
    net_.set_conductance(dimm_amb_edge_, lane, air.dimm_conductance());
}

void server_thermal_model::set_cpu_heat(std::size_t lane, std::size_t s, util::watts_t w) {
    util::ensure(s < socket_count(), "server_thermal_model::set_cpu_heat: bad socket");
    util::ensure(w.value() >= 0.0, "server_thermal_model::set_cpu_heat: negative heat");
    net_.set_power(die_[s], lane, w);
}

void server_thermal_model::set_dimm_heat(std::size_t lane, util::watts_t w) {
    util::ensure(w.value() >= 0.0, "server_thermal_model::set_dimm_heat: negative heat");
    net_.set_power(dimm_, lane, w);
}

void server_thermal_model::apply_preheat(std::size_t lane) {
    const std::array<double, 2> preheat_w = airflow_[lane].sink_preheat_w(
        net_.diagonal(dimm_, lane), net_.temperature(dimm_, lane), net_.ambient(lane));
    for (std::size_t s = 0; s < socket_count(); ++s) {
        net_.set_power(sink_[s], lane, util::watts_t{preheat_w[s]});
    }
}

void server_thermal_model::step_prefix(std::size_t count, util::seconds_t dt,
                                       const unsigned char* active) {
    util::ensure(count <= lane_count(), "server_thermal_model::step_prefix: lane out of range");
    for (std::size_t l = 0; l < count; ++l) {
        if (active == nullptr || active[l] != 0) {
            apply_preheat(l);
        }
    }
    net_.step_prefix(count, dt, active);
}

void server_thermal_model::settle(std::size_t lane) {
    for (int i = 0; i < server_airflow::preheat_rounds; ++i) {
        apply_preheat(lane);
        net_.settle_lane(lane);
    }
}

void server_thermal_model::reset(std::size_t lane) {
    const util::celsius_t ambient = net_.ambient(lane);
    for (std::size_t i = 0; i < net_.node_count(); ++i) {
        net_.set_temperature(node_id{i}, lane, ambient);
    }
    apply_preheat(lane);
}

}  // namespace ltsc::thermal
