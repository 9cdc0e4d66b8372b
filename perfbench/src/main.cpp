// ltsc end-to-end benchmark.
//
//   ltsc_perfbench --workload <paper_control|fleet_observed|chaos>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--git-sha <sha>] [--spans <csv path>]
//
// Runs one workload for --seconds host seconds from inputs generated by
// --seed, checks its outputs, prints its figures, and ends with one JSON
// line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
// the metrics are the end-to-end set; with --trace 1 they are the
// per-layer set from a run that records spans around every call into a
// layer (and writes them to --spans).  perfbench/run.py builds this
// program and is the command to use; see perfbench/README.md.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "ltsc_perfbench: %s\n"
                 "usage: ltsc_perfbench --workload <paper_control|fleet_observed|chaos> "
                 "--seed <n> --seconds <s> --trace <0|1> [--git-sha <sha>] [--spans <path>]\n",
                 why);
    std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t& out) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0' || errno != 0 || s[0] == '-') {
        return false;
    }
    out = v;
    return true;
}

/// The "metrics" object of the result line.  A missing end-to-end metric
/// or a non-finite value makes the run incorrect; a layer a workload
/// does not exercise reports 0.
std::string metrics_json(const std::vector<metric_spec>& specs,
                         const std::map<std::string, double>& values, bool missing_is_zero,
                         bool& correct) {
    std::string out = "{";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto it = values.find(specs[i].name);
        double v = 0.0;
        if (it != values.end()) {
            v = it->second;
        } else if (!missing_is_zero) {
            correct = false;
        }
        if (!std::isfinite(v)) {
            v = 0.0;
            correct = false;
        }
        out += format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                      specs[i].name, v, specs[i].unit);
    }
    return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
    run_options options;
    std::string git_sha = "unknown";
    bool have_workload = false;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc) {
            usage("missing value");
        }
        const std::string key = argv[i];
        const char* value = argv[i + 1];
        std::uint64_t n = 0;
        if (key == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (key == "--seed") {
            if (!parse_u64(value, n)) {
                usage("bad --seed");
            }
            options.seed = n;
            have_seed = true;
        } else if (key == "--seconds") {
            if (!parse_u64(value, n) || n < 1 || n > 600) {
                usage("bad --seconds (whole seconds, 1..600)");
            }
            options.seconds = static_cast<double>(n);
            have_seconds = true;
        } else if (key == "--trace") {
            if (!parse_u64(value, n) || n > 1) {
                usage("bad --trace (0 or 1)");
            }
            options.trace = n == 1;
            have_trace = true;
        } else if (key == "--git-sha") {
            git_sha = value;
        } else if (key == "--spans") {
            options.spans_path = value;
        } else {
            usage(("unknown option " + key).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace) {
        usage("--workload, --seed, --seconds and --trace are required");
    }
    // Timings from anything but an optimized build are not comparable.
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr, "ltsc_perfbench: built as '%s'; refusing to measure a non-Release "
                             "build\n", PERFBENCH_BUILD_TYPE);
        return 2;
    }

    workload_result res;
    try {
        if (options.workload == "paper_control") {
            res = run_paper_control(options);
        } else if (options.workload == "fleet_observed") {
            res = run_fleet_observed(options);
        } else if (options.workload == "chaos") {
            res = run_chaos(options);
        } else {
            usage("unknown workload (paper_control|fleet_observed|chaos)");
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ltsc_perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
        return 1;
    }

    std::printf("provenance: {\"git_sha\": \"%s\", \"build_type\": \"%s\", \"nproc\": %zu, "
                "\"pool_threads\": %zu, \"http_threads\": %zu, \"workload\": \"%s\", "
                "\"seed\": %llu, \"seconds\": %.0f, \"trace\": %d}\n",
                git_sha.c_str(), PERFBENCH_BUILD_TYPE, host_threads(), res.pool_threads,
                res.http_threads, options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), options.seconds,
                options.trace ? 1 : 0);
    for (const std::string& line : res.notes) {
        std::printf("%s\n", line.c_str());
    }
    std::printf("failed_ratio %.6g (%llu failed of %llu checks)\n", res.checks.failed_ratio(),
                static_cast<unsigned long long>(res.checks.failed),
                static_cast<unsigned long long>(res.checks.attempted));
    const std::map<std::string, double>& values = options.trace ? res.layer : res.end_to_end;
    for (const metric_spec& m : options.trace ? kPerLayer : kEndToEnd) {
        const auto it = values.find(m.name);
        std::printf("  %-48s %.6g %s\n", m.name, it == values.end() ? 0.0 : it->second, m.unit);
    }

    bool correct = res.checks.failed == 0 && res.checks.attempted > 0;
    const std::string metrics =
        metrics_json(options.trace ? kPerLayer : kEndToEnd, values, options.trace, correct);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(res.checks.attempted),
                static_cast<unsigned long long>(res.checks.failed), metrics.c_str());
    return 0;
}
