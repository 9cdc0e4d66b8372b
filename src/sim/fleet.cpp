#include "sim/fleet.hpp"

#include <algorithm>
#include <utility>

#include "sim/parallel_runner.hpp"
#include "util/error.hpp"

namespace ltsc::sim {

namespace {

std::size_t resolve_threads(std::size_t threads) {
    return threads != 0 ? threads : parallel_runner::threads_from_env();
}

std::size_t resolve_shards(std::size_t shards, std::size_t lanes, std::size_t pool_threads) {
    const std::size_t want = shards != 0 ? shards : pool_threads;
    return std::clamp<std::size_t>(want, 1, lanes);
}

}  // namespace

fleet::fleet(const server_config& config, std::size_t lanes, fleet_config cfg)
    : fleet(std::vector<server_config>(lanes, config), cfg) {}

fleet::fleet(std::vector<server_config> configs, fleet_config cfg)
    : lanes_(configs.size()), pool_(resolve_threads(cfg.threads)) {
    util::ensure(lanes_ > 0, "fleet: need at least one lane");
    const std::size_t shards = resolve_shards(cfg.shards, lanes_, pool_.thread_count());
    const std::size_t base = lanes_ / shards;
    const std::size_t rem = lanes_ % shards;
    offsets_.resize(shards + 1);
    offsets_[0] = 0;
    for (std::size_t s = 0; s < shards; ++s) {
        offsets_[s + 1] = offsets_[s] + base + (s < rem ? 1 : 0);
    }
    // Each shard is built on the pool into its own slot; a failing
    // configuration rethrows here, and the shards already built are
    // freed with the half-constructed fleet.
    shards_.resize(shards);
    pool_.run_indexed(shards, [&](std::size_t s) {
        const auto first = configs.begin() + static_cast<std::ptrdiff_t>(offsets_[s]);
        const auto last = configs.begin() + static_cast<std::ptrdiff_t>(offsets_[s + 1]);
        shards_[s] = std::make_unique<server_batch>(std::vector<server_config>(first, last));
    });
}

server_batch& fleet::shard(std::size_t s) {
    util::ensure(s < shards_.size(), "fleet::shard: out of range");
    return *shards_[s];
}

const server_batch& fleet::shard(std::size_t s) const {
    util::ensure(s < shards_.size(), "fleet::shard: out of range");
    return *shards_[s];
}

std::size_t fleet::shard_of(std::size_t lane) const {
    util::ensure(lane < lanes_, "fleet: lane out of range");
    // Shards are balanced blocks, so the owner is found directly: the
    // first `rem` shards hold base+1 lanes each.
    const std::size_t shards = shards_.size();
    const std::size_t base = lanes_ / shards;
    const std::size_t rem = lanes_ % shards;
    const std::size_t big = rem * (base + 1);
    if (lane < big) {
        return lane / (base + 1);
    }
    return rem + (lane - big) / base;
}

std::size_t fleet::local_lane(std::size_t lane) const { return lane - offsets_[shard_of(lane)]; }

std::size_t fleet::shard_offset(std::size_t s) const {
    util::ensure(s < offsets_.size(), "fleet::shard_offset: out of range");
    return offsets_[s];
}

void fleet::for_each_shard(const std::function<void(std::size_t)>& fn) {
    pool_.run_indexed(shards_.size(), fn);
}

void fleet::bind_workload(std::size_t lane, const workload::utilization_profile& profile) {
    shard(shard_of(lane)).bind_workload(local_lane(lane), profile);
}

void fleet::bind_workload(std::size_t lane, workload::loadgen generator) {
    shard(shard_of(lane)).bind_workload(local_lane(lane), std::move(generator));
}

void fleet::bind_fault_schedule(std::size_t lane, fault_schedule schedule) {
    shard(shard_of(lane)).bind_fault_schedule(local_lane(lane), std::move(schedule));
}

void fleet::set_fan_speed(std::size_t lane, std::size_t pair_index, util::rpm_t rpm) {
    shard(shard_of(lane)).set_fan_speed(local_lane(lane), pair_index, rpm);
}

void fleet::set_all_fans(std::size_t lane, util::rpm_t rpm) {
    shard(shard_of(lane)).set_all_fans(local_lane(lane), rpm);
}

util::rpm_t fleet::average_fan_rpm(std::size_t lane) const {
    return shard(shard_of(lane)).average_fan_rpm(local_lane(lane));
}

double fleet::measured_utilization(std::size_t lane, util::seconds_t window) const {
    return shard(shard_of(lane)).measured_utilization(local_lane(lane), window);
}

util::celsius_t fleet::max_cpu_sensor_temp(std::size_t lane) const {
    return shard(shard_of(lane)).max_cpu_sensor_temp(local_lane(lane));
}

util::watts_t fleet::system_power_reading(std::size_t lane) const {
    return shard(shard_of(lane)).system_power_reading(local_lane(lane));
}

util::celsius_t fleet::true_avg_cpu_temp(std::size_t lane) const {
    return shard(shard_of(lane)).true_avg_cpu_temp(local_lane(lane));
}

power::power_breakdown fleet::current_power(std::size_t lane) const {
    return shard(shard_of(lane)).current_power(local_lane(lane));
}

void fleet::set_ambient(std::size_t lane, util::celsius_t t) {
    shard(shard_of(lane)).set_ambient(local_lane(lane), t);
}

util::celsius_t fleet::ambient(std::size_t lane) const {
    return shard(shard_of(lane)).ambient(local_lane(lane));
}

util::seconds_t fleet::now(std::size_t lane) const {
    return shard(shard_of(lane)).now(local_lane(lane));
}

void fleet::set_lane_active(std::size_t lane, bool active) {
    shard(shard_of(lane)).set_lane_active(local_lane(lane), active);
}

bool fleet::lane_active(std::size_t lane) const {
    return shard(shard_of(lane)).lane_active(local_lane(lane));
}

void fleet::force_cold_start(std::size_t lane) {
    shard(shard_of(lane)).force_cold_start(local_lane(lane));
}

void fleet::force_cold_start() {
    pool_.run_indexed(shards_.size(), [this](std::size_t s) { shards_[s]->force_cold_start(); });
}

void fleet::settle_at(std::size_t lane, double u_pct) {
    shard(shard_of(lane)).settle_at(local_lane(lane), u_pct);
}

trace_view fleet::trace(std::size_t lane) const {
    return shard(shard_of(lane)).trace(local_lane(lane));
}

void fleet::clear_trace(std::size_t lane) {
    shard(shard_of(lane)).clear_trace(local_lane(lane));
}

const server_config& fleet::config(std::size_t lane) const {
    return shard(shard_of(lane)).config(local_lane(lane));
}

void fleet::step(util::seconds_t dt) {
    // The epoch is stamped before the fan-out so every shard of this
    // step publishes the same value; the pool barrier then orders this
    // step's publications before the next step's for every shard.
    const std::uint64_t epoch = ++epoch_;
    fleet_sink* const sink = sink_;
    pool_.run_indexed(shards_.size(), [&](std::size_t s) {
        shards_[s]->step(dt);
        if (sink != nullptr) {
            sink->on_shard_step(s, epoch, *shards_[s]);
        }
    });
}

void fleet::advance(util::seconds_t duration, util::seconds_t dt) {
    // Fans each macro step out shard-wise rather than calling
    // server_batch::advance per shard, keeping shards in loose lockstep;
    // the step sequence matches server_batch::advance exactly.
    util::ensure(duration.value() >= 0.0, "fleet::advance: negative duration");
    double remaining = duration.value();
    while (remaining > 1e-9) {
        const double h = std::min(remaining, dt.value());
        step(util::seconds_t{h});
        remaining -= h;
    }
}

}  // namespace ltsc::sim
