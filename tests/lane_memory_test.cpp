// Per-lane memory regression: what one more batch lane costs on the heap.
//
// This executable replaces the global allocation functions with a
// counting pair, so the live byte count before and after constructing a
// `server_batch` is the heap that batch holds.  The marginal cost of a
// lane, (64-lane batch - 1-lane batch) / 63, must stay at kilobytes:
// fleet-scale runs hold tens of thousands of lanes.  The same counter
// pins that a warmed rollout engine holds no more heap however many
// decisions it evaluates.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim/rollout_engine.hpp"
#include "sim/server_batch.hpp"
#include "sim/server_config.hpp"
#include "sim/server_simulator.hpp"
#include "workload/profile.hpp"

namespace {

std::atomic<long long> live_bytes{0};

// Each block carries its size in a header so the unsized deletes can give
// it back; a max_align_t-sized header keeps the payload aligned.
// Over-aligned new/delete keep the library's own pair (the plant makes no
// over-aligned allocations).
constexpr std::size_t header = alignof(std::max_align_t);

void* counted_alloc(std::size_t size) {
    void* base = std::malloc(size + header);
    if (base == nullptr) {
        throw std::bad_alloc();
    }
    *static_cast<std::size_t*>(base) = size;
    live_bytes.fetch_add(static_cast<long long>(size), std::memory_order_relaxed);
    return static_cast<char*>(base) + header;
}

void counted_free(void* p) noexcept {
    if (p == nullptr) {
        return;
    }
    void* base = static_cast<char*>(p) - header;
    live_bytes.fetch_sub(static_cast<long long>(*static_cast<std::size_t*>(base)),
                         std::memory_order_relaxed);
    std::free(base);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

constexpr double max_bytes_per_lane = 8.0 * 1024.0;

/// Live heap held by a freshly constructed `lanes`-lane batch.
long long batch_bytes(const sim::server_config& config, std::size_t lanes) {
    const long long before = live_bytes.load();
    const sim::server_batch batch(config, lanes);
    return live_bytes.load() - before;
}

double marginal_bytes_per_lane(const sim::server_config& config) {
    static_cast<void>(batch_bytes(config, 1));  // absorb any first-use statics
    const long long one = batch_bytes(config, 1);
    const long long many = batch_bytes(config, 64);
    return static_cast<double>(many - one) / 63.0;
}

TEST(LaneMemory, LaneCostsKilobytes) {
    const double per_lane = marginal_bytes_per_lane(sim::paper_server());
    EXPECT_GT(per_lane, 1024.0);  // the counter sees the lanes at all
    EXPECT_LE(per_lane, max_bytes_per_lane) << per_lane / 1024.0 << " KB per lane";
}

TEST(LaneMemory, MonitoredLaneCostsKilobytes) {
    sim::server_config config = sim::paper_server();
    config.monitor.enabled = true;
    const double per_lane = marginal_bytes_per_lane(config);
    EXPECT_GT(per_lane, 1024.0);
    EXPECT_LE(per_lane, max_bytes_per_lane) << per_lane / 1024.0 << " KB per lane";
}

TEST(LaneMemory, RolloutEvaluationsHoldNoMoreHeap) {
    // Decisions change candidate count (the lattice collapses at the RPM
    // limits, often for many decisions in a row), so lanes past the
    // smaller count sit idle for whole stretches.  After a warm-up at
    // both counts, further evaluations must not grow the engine's heap by
    // a byte: here each K = 5 evaluation is followed by a run of 49 at
    // K = 3.
    workload::utilization_profile profile("steady");
    profile.constant(60.0, 3600_s);
    sim::server_simulator s;
    s.bind_workload(profile);
    s.force_cold_start();
    s.advance(300_s);
    const sim::server_state snap = s.snapshot_state();

    const std::vector<sim::fan_schedule> five = {
        {{2400_rpm}}, {{1800_rpm}}, {{3000_rpm}}, {{3600_rpm}}, {{4200_rpm}}};
    const std::vector<sim::fan_schedule> three(five.begin(), five.begin() + 3);
    sim::rollout_options opt;
    opt.horizon = 180_s;
    opt.epoch = 30_s;
    sim::rollout_engine engine(s.config(), 16);
    const workload::loadgen& load = *s.workload();
    static_cast<void>(engine.evaluate(snap, load, nullptr, five, opt));
    static_cast<void>(engine.evaluate(snap, load, nullptr, three, opt));

    const long long before = live_bytes.load();
    for (int i = 0; i < 200; ++i) {
        static_cast<void>(engine.evaluate(snap, load, nullptr, i % 50 == 0 ? five : three, opt));
    }
    EXPECT_EQ(live_bytes.load() - before, 0);
}

}  // namespace
