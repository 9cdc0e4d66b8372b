// In-memory span recorder for the traced run.
//
// A span is (name, start, end, id, parent, run): the benchmark records
// one around each call it makes into a layer's public functions, from
// the benchmark's own code.  Spans go into per-thread buffers (no lock
// on the recording path after a thread's first span) and are merged,
// summarized and written out once the workload is quiescent.  With
// tracing off, scoped_span does nothing beyond one branch.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "metric_math.hpp"

namespace perfbench {

/// Host seconds on the steady clock since the process's first call.
double now_s();

struct span_record {
    const char* name = "";  ///< Static string: the layer and operation.
    double start_s = 0.0;
    double end_s = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 for a root span.
    std::uint32_t run = 0;     ///< Workload round (seed index) the span belongs to.
};

/// Turns recording on or off (off by default).
void set_tracing(bool on);
[[nodiscard]] bool tracing();

/// Tags subsequently recorded spans with a workload round.
void set_run_id(std::uint32_t run);
[[nodiscard]] std::uint32_t run_id();

/// Allocates a span id (for spans whose parent lives on another thread).
[[nodiscard]] std::uint64_t next_span_id();

/// Records a finished span.  Thread-safe.
void record_span(const span_record& span);

/// Every span recorded so far, from all threads.  Call only while no
/// thread is recording.
[[nodiscard]] std::vector<span_record> collect_spans();

/// Writes the spans as CSV (name,start_s,end_s,id,parent,run).
/// Returns false when the file cannot be written.
bool write_spans_csv(const std::vector<span_record>& spans, const std::string& path);

/// RAII span on the current thread: children opened while it lives take
/// it as their parent.
class scoped_span {
public:
    explicit scoped_span(const char* name);
    /// A span whose parent is given explicitly (e.g. opened on a pool
    /// thread on behalf of a step driven from the main thread).
    scoped_span(const char* name, std::uint64_t parent);
    ~scoped_span();

    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

    [[nodiscard]] std::uint64_t id() const { return record_.id; }

private:
    span_record record_;
    std::uint64_t saved_current_ = 0;
    bool active_ = false;
};

/// Aggregates of the spans with one name.
struct span_summary {
    std::size_t count = 0;
    double busy_s = 0.0;              ///< Sum of durations.
    double self_s = 0.0;              ///< Sum of durations minus child coverage.
    std::vector<double> durations_s;  ///< One per span.
};

/// Recorded spans indexed by parent, for per-name summaries.
class span_set {
public:
    explicit span_set(std::vector<span_record> spans);

    [[nodiscard]] const std::vector<span_record>& spans() const { return spans_; }

    /// Summarizes the spans named `name`; self time subtracts the union
    /// of each span's direct children.
    [[nodiscard]] span_summary summarize(std::string_view name) const;

    /// Direct children of span `id`.
    [[nodiscard]] std::vector<const span_record*> children(std::uint64_t id) const;

private:
    std::vector<span_record> spans_;
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> children_;
};

}  // namespace perfbench
