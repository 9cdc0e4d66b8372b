// Per-lane memory regression: what one more batch lane costs on the heap.
//
// This executable replaces the global allocation functions with a
// counting pair, so the live byte count before and after constructing a
// `server_batch` is the heap that batch holds.  The marginal cost of a
// lane, (64-lane batch - 1-lane batch) / 63, must stay at kilobytes:
// fleet-scale runs hold tens of thousands of lanes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "sim/server_batch.hpp"
#include "sim/server_config.hpp"

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

constexpr double max_bytes_per_lane = 20.0 * 1024.0;

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

}  // namespace
