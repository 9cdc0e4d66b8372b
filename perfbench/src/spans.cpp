#include "spans.hpp"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

using clock_type = std::chrono::steady_clock;

const clock_type::time_point g_epoch = clock_type::now();
std::atomic<bool> g_tracing{false};
std::atomic<std::uint32_t> g_run{0};
std::atomic<std::uint64_t> g_next_id{1};

// Per-thread buffers are owned here so they outlive the pool threads
// that filled them; a thread registers its buffer on its first span.
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<std::vector<span_record>>> g_buffers;

thread_local std::vector<span_record>* t_buffer = nullptr;
thread_local std::uint64_t t_current = 0;

}  // namespace

double now_s() { return std::chrono::duration<double>(clock_type::now() - g_epoch).count(); }

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

void set_run_id(std::uint32_t run) { g_run.store(run, std::memory_order_relaxed); }

std::uint32_t run_id() { return g_run.load(std::memory_order_relaxed); }

std::uint64_t next_span_id() { return g_next_id.fetch_add(1, std::memory_order_relaxed); }

void record_span(const span_record& span) {
    if (t_buffer == nullptr) {
        std::lock_guard<std::mutex> lock(g_buffers_mutex);
        g_buffers.push_back(std::make_unique<std::vector<span_record>>());
        g_buffers.back()->reserve(1 << 14);
        t_buffer = g_buffers.back().get();
    }
    t_buffer->push_back(span);
}

std::vector<span_record> collect_spans() {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    std::vector<span_record> all;
    for (const auto& b : g_buffers) {
        all.insert(all.end(), b->begin(), b->end());
    }
    return all;
}

bool write_spans_csv(const std::vector<span_record>& spans, const std::string& path) {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    std::fprintf(f, "name,start_s,end_s,id,parent,run\n");
    for (const span_record& s : spans) {
        std::fprintf(f, "%s,%.9f,%.9f,%llu,%llu,%u\n", s.name, s.start_s, s.end_s,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent), s.run);
    }
    return std::fclose(f) == 0;
}

scoped_span::scoped_span(const char* name) : scoped_span(name, t_current) {}

scoped_span::scoped_span(const char* name, std::uint64_t parent) {
    if (!tracing()) {
        return;
    }
    active_ = true;
    record_.name = name;
    record_.id = next_span_id();
    record_.parent = parent;
    record_.run = g_run.load(std::memory_order_relaxed);
    saved_current_ = t_current;
    t_current = record_.id;
    record_.start_s = now_s();
}

scoped_span::~scoped_span() {
    if (!active_) {
        return;
    }
    record_.end_s = now_s();
    t_current = saved_current_;
    record_span(record_);
}

span_set::span_set(std::vector<span_record> spans) : spans_(std::move(spans)) {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent != 0) {
            children_[spans_[i].parent].push_back(i);
        }
    }
}

std::vector<const span_record*> span_set::children(std::uint64_t id) const {
    std::vector<const span_record*> out;
    if (const auto it = children_.find(id); it != children_.end()) {
        for (const std::size_t i : it->second) {
            out.push_back(&spans_[i]);
        }
    }
    return out;
}

span_summary span_set::summarize(std::string_view name) const {
    span_summary out;
    std::vector<interval> kids;
    for (const span_record& s : spans_) {
        if (name != s.name) {
            continue;
        }
        const double d = s.end_s - s.start_s;
        ++out.count;
        out.busy_s += d;
        out.durations_s.push_back(d);
        kids.clear();
        if (const auto it = children_.find(s.id); it != children_.end()) {
            for (const std::size_t i : it->second) {
                kids.push_back({spans_[i].start_s, spans_[i].end_s});
            }
        }
        out.self_s += self_time({s.start_s, s.end_s}, kids);
    }
    return out;
}

}  // namespace perfbench
