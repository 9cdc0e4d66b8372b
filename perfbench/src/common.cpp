#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdarg>
#include <cstdio>
#include <thread>

#include "bench.hpp"

namespace perfbench {

const std::vector<metric_spec> kEndToEnd = {
    {"setup_s", "s"},
    {"sim_server_s_per_s", "server-s/s"},
    {"peak_rss_mb", "MB"},
    {"op_p50_ms", "ms"},
};

const std::vector<metric_spec> kPerLayer = {
    {"core.characterize.s", "s"},
    {"core.decide.count", "count"},
    {"core.decide.busy_s", "s"},
    {"core.decide.p99_us", "us"},
    {"core.rollout.decide.count", "count"},
    {"core.rollout.decide.busy_s", "s"},
    {"core.rollout.decide.p50_ms", "ms"},
    {"core.rollout.decide.p99_ms", "ms"},
    {"core.rollout.override_ratio", "ratio"},
    {"sim.rollout_engine.candidates_per_decision", "count"},
    {"sim.rollout_engine.lane_steps_per_decision", "count"},
    {"sim.rollout_engine.guarded_ratio", "ratio"},
    {"sim.run_controlled_batch.busy_s", "s"},
    {"sim.server_batch.self_s", "s"},
    {"sim.fleet.ctor_s", "s"},
    {"sim.fleet.bind_s", "s"},
    {"sim.fleet.cold_start_s", "s"},
    {"mem.setup_bytes_per_lane", "B"},
    {"sim.fleet.step.count", "count"},
    {"sim.fleet.step.busy_s", "s"},
    {"sim.fleet.step.p50_ms", "ms"},
    {"sim.fleet.step.p99_ms", "ms"},
    {"sim.fleet.step.max_ms", "ms"},
    {"sim.fleet.shard_done.mean_ms", "ms"},
    {"sim.fleet.shard_done.max_ms", "ms"},
    {"sim.fleet.barrier_wait_ms", "ms"},
    {"sim.fleet.shard_skew", "ratio"},
    {"sim.fleet.clear_trace_s", "s"},
    {"telemetry_service.start_s", "s"},
    {"telemetry_service.publish.count", "count"},
    {"telemetry_service.publish.busy_s", "s"},
    {"telemetry_service.publish.p99_us", "us"},
    {"telemetry_service.published_groups", "count"},
    {"telemetry_service.applied_groups", "count"},
    {"telemetry_service.dropped_groups", "count"},
    {"telemetry_service.drain_s", "s"},
    {"telemetry_service.query.metrics.p50_ms", "ms"},
    {"telemetry_service.query.metrics.p99_ms", "ms"},
    {"telemetry_service.query.health.p50_ms", "ms"},
    {"telemetry_service.query.health.p99_ms", "ms"},
    {"telemetry_service.query.lane_window.p50_ms", "ms"},
    {"telemetry_service.query.lane_window.p99_ms", "ms"},
    {"telemetry_service.staleness_p99_steps", "steps"},
    {"loadgen.sent", "count"},
    {"loadgen.completed", "count"},
    {"loadgen.late_p99_ms", "ms"},
    {"sim.fault_campaign.run.survivable.p50_ms", "ms"},
    {"sim.fault_campaign.run.survivable.p99_ms", "ms"},
    {"sim.fault_campaign.run.drifting_sensor.p50_ms", "ms"},
    {"sim.fault_campaign.run.drifting_sensor.p99_ms", "ms"},
    {"core.fault_monitor.overhead_ratio", "ratio"},
    {"core.fault_monitor.onsets", "count"},
    {"core.fault_monitor.detected", "count"},
    {"core.fault_monitor.detect_ratio", "ratio"},
    {"sim.parallel_runner.task_imbalance", "ratio"},
    {"sim.paper_energy_err_pct", "%"},
    {"sim.savings_gap_err_pp", "pp"},
    {"sim.detect_p50_s", "s"},
    {"trace.spans", "count"},
    {"trace.overhead_ratio", "ratio"},
};

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double current_rss_bytes() {
    long pages = 0;
    if (FILE* f = std::fopen("/proc/self/statm", "r")) {
        long size = 0;
        if (std::fscanf(f, "%ld %ld", &size, &pages) != 2) {
            pages = 0;
        }
        std::fclose(f);
    }
    return static_cast<double>(pages) * static_cast<double>(sysconf(_SC_PAGESIZE));
}

std::size_t host_threads() {
    // The affinity mask, as nproc reports it (hardware_concurrency would
    // count CPUs the process may not run on).
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
        return static_cast<std::size_t>(CPU_COUNT(&set));
    }
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

std::size_t worker_threads() { return host_threads() > 1 ? host_threads() - 1 : 1; }

std::string format(const char* fmt, ...) {
    char buf[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return buf;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

}  // namespace perfbench
