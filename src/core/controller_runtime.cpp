#include "core/controller_runtime.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"

namespace ltsc::core {

namespace {

/// One controller decision on one batch lane: gathers the
/// controller_inputs, asks the policy, and actuates the returned fan
/// commands.
void poll_and_actuate(sim::server_batch& batch, std::size_t lane, fan_controller& controller,
                      const runtime_config& config) {
    controller_inputs in;
    in.now = batch.now(lane);
    in.utilization_pct = batch.measured_utilization(lane, config.util_window);
    in.max_cpu_temp = batch.max_cpu_sensor_temp(lane);
    in.current_rpm = batch.average_fan_rpm(lane);
    in.system_power = batch.system_power_reading(lane);
    in.sensor_age_s = batch.telemetry_age_s(lane);
    const std::vector<double>& sensors = batch.cpu_sensor_temps(lane);
    for (std::size_t s = 0; s < 2; ++s) {
        in.socket_util_pct[s] = batch.measured_socket_utilization(lane, s, config.util_window);
        // Sensors 2s and 2s+1 sit on die s; the policy sees the max.
        in.socket_temp_c[s] = std::max(sensors[2 * s], sensors[2 * s + 1]);
    }
    for (std::size_t s = 0; s < sensors.size() && s < in.cpu_sensor_c.size(); ++s) {
        in.cpu_sensor_c[s] = sensors[s];
    }
    const std::size_t pairs = batch.config(lane).fan_pairs;
    for (std::size_t z = 0; z < pairs; ++z) {
        in.zone_rpm.push_back(batch.fan_speed(lane, z));
    }
    if (const core::fault_monitor* mon = batch.monitor(lane)) {
        in.monitor_valid = true;
        for (std::size_t s = 0; s < mon->sensor_count() && s < in.sensor_health.size(); ++s) {
            in.sensor_health[s] = static_cast<std::uint8_t>(mon->sensor_health(s));
        }
        in.fan_health.reserve(mon->fan_pair_count());
        for (std::size_t p = 0; p < mon->fan_pair_count(); ++p) {
            in.fan_health.push_back(static_cast<std::uint8_t>(mon->fan_health(p)));
        }
        for (std::size_t d = 0; d < in.model_die_c.size(); ++d) {
            in.model_die_c[d] = mon->die_estimate_c(d);
        }
    }
    if (const auto cmds = controller.decide_zones(in)) {
        util::ensure(cmds->size() == pairs,
                     "run_controlled_batch: controller returned wrong zone count");
        bool uniform = true;
        for (const util::rpm_t r : *cmds) {
            uniform = uniform && r.value() == cmds->front().value();
        }
        if (uniform) {
            batch.set_all_fans(lane, cmds->front());  // one counted change
        } else {
            for (std::size_t z = 0; z < cmds->size(); ++z) {
                batch.set_fan_speed(lane, z, (*cmds)[z]);
            }
        }
    }
}

/// Detaches controllers' plant windows on every exit path (including
/// exception unwind), so a predictive controller can never be left
/// dangling into a destroyed stack-allocated plant view.
class plant_attachments {
public:
    explicit plant_attachments(std::vector<fan_controller*> controllers)
        : controllers_(std::move(controllers)) {}
    plant_attachments(const plant_attachments&) = delete;
    plant_attachments& operator=(const plant_attachments&) = delete;
    ~plant_attachments() {
        for (fan_controller* c : controllers_) {
            c->attach_plant(nullptr);
        }
    }

private:
    std::vector<fan_controller*> controllers_;
};

}  // namespace

sim::run_metrics run_controlled(sim::server_simulator& sim, fan_controller& controller,
                                const workload::utilization_profile& profile,
                                const runtime_config& config) {
    return run_controlled_batch(sim.batch(), {&controller}, {profile}, config).front();
}

std::vector<sim::run_metrics> run_controlled_batch(
    sim::server_batch& batch, const std::vector<fan_controller*>& controllers,
    const std::vector<workload::utilization_profile>& profiles, const runtime_config& config) {
    util::ensure(config.sim_dt.value() > 0.0, "run_controlled_batch: non-positive step");
    util::ensure(config.util_window.value() > 0.0, "run_controlled_batch: non-positive window");
    const std::size_t n = batch.lane_count();
    util::ensure(controllers.size() == n,
                 "run_controlled_batch: controller count != lane count");
    util::ensure(profiles.size() == n, "run_controlled_batch: profile count != lane count");
    util::ensure(n > 0, "run_controlled_batch: empty batch");
    // Number of plant steps a lane takes for a duration: step while the
    // lane clock is short of it (durations may differ by segment-
    // accumulation rounding; what matters is where that loop stops).
    const auto steps_for = [&](double dur) {
        double now = 0.0;
        long k = 0;
        while (now < dur - 1e-9) {
            now += config.sim_dt.value();
            ++k;
        }
        return k;
    };
    // Lanes share one time base but may stop at different step counts: a
    // finished lane goes inert and the rest of the fleet keeps stepping.
    std::vector<long> steps(n);
    long max_steps = 0;
    for (std::size_t l = 0; l < n; ++l) {
        util::ensure(controllers[l] != nullptr, "run_controlled_batch: null controller");
        steps[l] = steps_for(profiles[l].duration().value());
        max_steps = std::max(max_steps, steps[l]);
    }

    std::vector<double> period(n);
    std::vector<double> next_decision(n, 0.0);
    for (std::size_t l = 0; l < n; ++l) {
        batch.bind_workload(l, profiles[l]);
    }
    batch.force_cold_start();
    // One plant window per lane (stable addresses for the whole run), so
    // fleets of predictive controllers each see their own lane; the
    // guard detaches every controller on any exit path.
    std::vector<batch_lane_plant_view> plant_views;
    plant_views.reserve(n);
    for (std::size_t l = 0; l < n; ++l) {
        plant_views.emplace_back(batch, l);
    }
    const plant_attachments attached(controllers);
    for (std::size_t l = 0; l < n; ++l) {
        batch.set_all_fans(l, config.initial_rpm);
        batch.reset_fan_change_counter(l);
        // Attach before reset() so a predictive controller starts the run
        // with a fresh view of the fresh binding.
        controllers[l]->attach_plant(&plant_views[l]);
        controllers[l]->reset();
        period[l] = controllers[l]->polling_period().value();
    }

    for (long k = 0; k < max_steps; ++k) {
        for (std::size_t l = 0; l < n; ++l) {
            if (k >= steps[l]) {
                batch.set_lane_active(l, false);
                continue;
            }
            if (batch.now(l).value() + 1e-9 < next_decision[l]) {
                continue;
            }
            poll_and_actuate(batch, l, *controllers[l], config);
            next_decision[l] += period[l];
        }
        batch.step(config.sim_dt);
    }

    std::vector<sim::run_metrics> out;
    out.reserve(n);
    for (std::size_t l = 0; l < n; ++l) {
        out.push_back(sim::compute_metrics(batch, l, profiles[l].name(), controllers[l]->name()));
        // The run borrows the batch: hand it back with every lane live
        // again, so follow-up stepping does not silently skip the lanes
        // whose profiles finished first.
        batch.set_lane_active(l, true);
    }
    return out;
}

std::vector<sim::run_metrics> run_controlled_fleet(
    sim::fleet& fleet, const std::vector<fan_controller*>& controllers,
    const std::vector<workload::utilization_profile>& profiles, const runtime_config& config) {
    const std::size_t n = fleet.lane_count();
    util::ensure(controllers.size() == n, "run_controlled_fleet: controller count != lane count");
    util::ensure(profiles.size() == n, "run_controlled_fleet: profile count != lane count");

    std::vector<sim::run_metrics> out(n);
    fleet.for_each_shard([&](std::size_t s) {
        const std::size_t lo = fleet.shard_offset(s);
        const std::size_t hi = fleet.shard_offset(s + 1);
        const std::vector<fan_controller*> shard_controllers(
            controllers.begin() + static_cast<std::ptrdiff_t>(lo),
            controllers.begin() + static_cast<std::ptrdiff_t>(hi));
        const std::vector<workload::utilization_profile> shard_profiles(
            profiles.begin() + static_cast<std::ptrdiff_t>(lo),
            profiles.begin() + static_cast<std::ptrdiff_t>(hi));
        std::vector<sim::run_metrics> metrics =
            run_controlled_batch(fleet.shard(s), shard_controllers, shard_profiles, config);
        std::move(metrics.begin(), metrics.end(), out.begin() + static_cast<std::ptrdiff_t>(lo));
    });
    return out;
}

}  // namespace ltsc::core
