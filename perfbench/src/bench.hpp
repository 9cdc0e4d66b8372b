// Shared surface of the end-to-end benchmark: run options, the result a
// workload hands back, and the metric tables the final JSON line is
// printed from.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "metric_math.hpp"
#include "spans.hpp"

namespace perfbench {

struct run_options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;  ///< Host seconds of measurement.
    bool trace = false;     ///< Traced run: per-layer metrics instead of end-to-end.
    std::string spans_path; ///< Where the traced run writes its spans (CSV).
};

/// What a workload run reports.
struct workload_result {
    check_tally checks;
    /// End-to-end metrics by name (untraced run; see kEndToEnd).
    std::map<std::string, double> end_to_end;
    /// Per-layer metrics by name (traced run; see kPerLayer).  Layers a
    /// workload does not exercise are absent and print as 0.
    std::map<std::string, double> layer;
    /// Human-readable lines printed before the result (the workload's
    /// own figures: sample counts, simulated statistics, failed_ratio).
    std::vector<std::string> notes;
    std::size_t pool_threads = 0;
    std::size_t http_threads = 0;
};

struct metric_spec {
    const char* name;
    const char* unit;
};

/// Every end-to-end metric, reported by every workload's untraced run.
extern const std::vector<metric_spec> kEndToEnd;
/// Every per-layer metric, reported by every workload's traced run.
extern const std::vector<metric_spec> kPerLayer;

/// Process peak resident set size [MB].
[[nodiscard]] double peak_rss_mb();
/// Current resident set size [bytes].
[[nodiscard]] double current_rss_bytes();

/// Host threads available to the process.
[[nodiscard]] std::size_t host_threads();

/// Pool width of the batch workloads: all host threads but one, which
/// is left to the operating system so that it does not preempt a worker
/// the whole pool waits for.
[[nodiscard]] std::size_t worker_threads();

/// printf into a std::string (for result notes).
[[nodiscard]] std::string format(const char* fmt, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 1, 2)))
#endif
    ;

/// Derives a well-mixed 64-bit value from (seed, stream) (splitmix64), so
/// every input a workload generates is a function of --seed alone.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

workload_result run_paper_control(const run_options& options);
workload_result run_fleet_observed(const run_options& options);
workload_result run_chaos(const run_options& options);

}  // namespace perfbench
