// Telemetry-service suite: the SPSC ring is order-preserving under a
// concurrent producer/consumer (hammered under TSan in CI), closed
// online windows are bitwise-equal to post-hoc sim::compute_metrics
// over the same rows (healthy, faulted, and monitored fleets), and
// attaching the service leaves every fleet trace channel
// bitwise-identical to an unobserved twin.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "sim/batch_trace.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/fleet.hpp"
#include "sim/metrics.hpp"
#include "telemetry_service/online_metrics.hpp"
#include "telemetry_service/service.hpp"
#include "util/error.hpp"
#include "util/histogram.hpp"
#include "util/spsc_ring.hpp"
#include "workload/paper_tests.hpp"
#include "workload/profile.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

sim::fleet_config fleet_cfg(std::size_t shards, std::size_t threads) {
    sim::fleet_config c;
    c.shards = shards;
    c.threads = threads;
    return c;
}

std::vector<sim::server_config> make_configs(std::size_t n, bool monitored = false) {
    std::vector<sim::server_config> configs;
    configs.reserve(n);
    for (std::size_t l = 0; l < n; ++l) {
        sim::server_config cfg = sim::paper_server();
        cfg.seed = 0x7e1e + 17 * l;
        cfg.thermal.ambient_c = 19.0 + static_cast<double>(l % 4);
        cfg.monitor.enabled = monitored;
        configs.push_back(cfg);
    }
    return configs;
}

void bind_workloads(sim::fleet& f) {
    for (std::size_t l = 0; l < f.lane_count(); ++l) {
        workload::utilization_profile p("svc-" + std::to_string(l));
        const double u = 25.0 + 12.0 * static_cast<double>(l % 5);
        p.idle(10.0_s).constant(u, 3.0_min).ramp(u, 85.0 - u, 60.0_s);
        f.bind_workload(l, p);
    }
}

/// Rebuilds one lane's rows [first, first+count) as a one-lane trace so
/// the post-hoc pipeline can be run over exactly one window.
sim::batch_trace window_slice(const sim::trace_view& tv, std::size_t first, std::size_t count) {
    sim::batch_trace out(1);
    const util::column_view t = tv.channel(sim::trace_channel::target_util);
    for (std::size_t i = first; i < first + count; ++i) {
        sim::trace_row row;
        for (std::size_t c = 0; c < sim::trace_channel_count; ++c) {
            row.values[c] = tv.channel(static_cast<sim::trace_channel>(c)).v(i);
        }
        out.append(0, t.t(i), row);
    }
    return out;
}

/// Bitwise equality of an online window against the post-hoc metrics of
/// the same rows.
void expect_window_equals_posthoc(const telemetry_service::lane_window& w,
                                  const sim::run_metrics& ref) {
    EXPECT_EQ(w.metrics.duration_s, ref.duration_s);
    EXPECT_EQ(w.metrics.energy_kwh, ref.energy_kwh);
    EXPECT_EQ(w.metrics.peak_power_w, ref.peak_power_w);
    EXPECT_EQ(w.metrics.max_temp_c, ref.max_temp_c);
    EXPECT_EQ(w.metrics.avg_rpm, ref.avg_rpm);
    EXPECT_EQ(w.metrics.avg_cpu_temp_c, ref.avg_cpu_temp_c);
    EXPECT_EQ(w.metrics.fan_changes, 0u);
}

// --- SpscRing ---------------------------------------------------------------

TEST(SpscRing, PushPopPreservesOrderAndBounds) {
    util::spsc_ring<std::uint64_t> ring(4);
    EXPECT_TRUE(ring.empty());
    EXPECT_GE(ring.capacity(), 4u);
    std::size_t pushed = 0;
    while (ring.try_push([&](std::uint64_t& slot) { slot = pushed; })) {
        ++pushed;
    }
    EXPECT_EQ(pushed, ring.capacity());
    EXPECT_EQ(ring.size(), ring.capacity());
    std::uint64_t expect = 0;
    std::uint64_t got = 0;
    while (ring.try_pop([&](std::uint64_t& slot) { got = slot; })) {
        EXPECT_EQ(got, expect);
        ++expect;
    }
    EXPECT_EQ(expect, pushed);
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
    EXPECT_EQ(util::spsc_ring<int>(1).capacity(), 1u);
    EXPECT_EQ(util::spsc_ring<int>(3).capacity(), 4u);
    EXPECT_EQ(util::spsc_ring<int>(64).capacity(), 64u);
    EXPECT_EQ(util::spsc_ring<int>(65).capacity(), 128u);
}

TEST(SpscRing, ConcurrentHammerDeliversEverySlotInOrder) {
    constexpr std::uint64_t k_items = 50000;
    util::spsc_ring<std::uint64_t> ring(64);
    std::thread producer([&] {
        std::uint64_t next = 0;
        while (next < k_items) {
            if (ring.try_push([&](std::uint64_t& slot) { slot = next; })) {
                ++next;
            } else {
                std::this_thread::yield();  // Single-core CI: let the consumer run.
            }
        }
    });
    std::uint64_t expect = 0;
    std::uint64_t got = 0;
    while (expect < k_items) {
        if (ring.try_pop([&](std::uint64_t& slot) { got = slot; })) {
            ASSERT_EQ(got, expect);
            ++expect;
        } else {
            std::this_thread::yield();
        }
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}

// --- Histogram --------------------------------------------------------------

TEST(Histogram, QuantilesClampAndMerge) {
    util::fixed_histogram h(0.0, 10.0, 100);
    for (int i = 0; i < 1000; ++i) {
        h.add(static_cast<double>(i % 100) / 10.0);
    }
    EXPECT_EQ(h.total(), 1000u);
    EXPECT_NEAR(h.quantile(0.5), 5.0, 0.2);
    EXPECT_NEAR(h.quantile(0.99), 9.9, 0.2);

    util::fixed_histogram low(0.0, 10.0, 100);
    low.add(-5.0);   // Clamps into the bottom bin.
    low.add(25.0);   // Clamps into the top bin.
    EXPECT_EQ(low.clamped_low(), 1u);
    EXPECT_EQ(low.clamped_high(), 1u);
    h.merge(low);
    EXPECT_EQ(h.total(), 1002u);

    util::fixed_histogram other(0.0, 5.0, 100);
    EXPECT_THROW(h.merge(other), util::precondition_error);
}

// --- OnlineMetrics ----------------------------------------------------------

TEST(OnlineMetrics, DegenerateZeroSpanWindowReportsFirstValues) {
    telemetry_service::window_accumulator acc(101.0);
    double channels[sim::trace_channel_count] = {};
    channels[static_cast<std::size_t>(sim::trace_channel::total_power)] = 200.0;
    channels[static_cast<std::size_t>(sim::trace_channel::avg_fan_rpm)] = 1800.0;
    channels[static_cast<std::size_t>(sim::trace_channel::avg_cpu_temp)] = 55.0;
    channels[static_cast<std::size_t>(sim::trace_channel::max_sensor_temp)] = 60.0;
    acc.add(5.0, channels);
    channels[static_cast<std::size_t>(sim::trace_channel::avg_fan_rpm)] = 2400.0;
    channels[static_cast<std::size_t>(sim::trace_channel::avg_cpu_temp)] = 75.0;
    acc.add(5.0, channels);  // Same timestamp: zero-duration window.
    const sim::run_metrics m = acc.close("t", "c");
    EXPECT_EQ(m.duration_s, 0.0);
    EXPECT_EQ(m.avg_rpm, 1800.0);       // mean_over's degenerate branch.
    EXPECT_EQ(m.avg_cpu_temp_c, 55.0);
    EXPECT_EQ(m.energy_kwh, 0.0);
}

TEST(OnlineMetrics, ClosedWindowsBitwiseMatchComputeMetrics) {
    sim::fleet f(make_configs(6), fleet_cfg(3, 2));
    bind_workloads(f);
    f.force_cold_start();

    telemetry_service::service_config cfg;
    cfg.online.window_rows = 16;
    cfg.enable_http = false;
    // Room for every step's row-group: no group can drop however late
    // the aggregator thread is scheduled, and the checks need every row.
    cfg.ring_slots = 128;
    telemetry_service::service svc(f, cfg);

    f.advance(100.0_s, 1.0_s);
    svc.drain();

    for (std::size_t l = 0; l < f.lane_count(); ++l) {
        SCOPED_TRACE("lane " + std::to_string(l));
        const telemetry_service::lane_window w = svc.lane_window_snapshot(l);
        ASSERT_TRUE(w.valid);
        EXPECT_EQ(w.closed, 100u / 16u);
        EXPECT_EQ(w.rows, 100u);
        // Rebuild the rows of the last closed window post hoc.
        const std::size_t first = (static_cast<std::size_t>(w.closed) - 1) * 16;
        const sim::batch_trace slice = window_slice(f.trace(l), first, 16);
        const sim::run_metrics ref = sim::compute_metrics(slice.lane(0), 0, "window", "online");
        expect_window_equals_posthoc(w, ref);
    }
}

TEST(OnlineMetrics, FaultedMonitoredFleetWindowsStayBitwiseEqual) {
    sim::fleet f(make_configs(4, /*monitored=*/true), fleet_cfg(2, 2));
    bind_workloads(f);
    for (std::size_t l = 0; l < f.lane_count(); ++l) {
        f.bind_fault_schedule(l, sim::make_random_campaign(0xabc0 + l));
    }
    f.force_cold_start();

    telemetry_service::service_config cfg;
    cfg.online.window_rows = 25;
    cfg.enable_http = false;
    cfg.ring_slots = 128;  // every row-group fits, as above
    telemetry_service::service svc(f, cfg);

    f.advance(120.0_s, 1.0_s);
    svc.drain();

    std::uint64_t sensor_rows = 0;
    std::uint64_t fan_rows = 0;
    for (std::size_t l = 0; l < f.lane_count(); ++l) {
        SCOPED_TRACE("lane " + std::to_string(l));
        const telemetry_service::lane_window w = svc.lane_window_snapshot(l);
        ASSERT_TRUE(w.valid);
        const std::size_t first = (static_cast<std::size_t>(w.closed) - 1) * 25;
        const sim::batch_trace slice = window_slice(f.trace(l), first, 25);
        const sim::run_metrics ref = sim::compute_metrics(slice.lane(0), 0, "window", "online");
        expect_window_equals_posthoc(w, ref);

        const util::column_view sh = f.trace(l).monitor_sensor_health();
        const util::column_view fh = f.trace(l).monitor_fan_health();
        for (std::size_t i = 0; i < sh.size(); ++i) {
            sensor_rows += sh.v(i) >= 1.0 ? 1 : 0;
            fan_rows += fh.v(i) >= 1.0 ? 1 : 0;
        }
    }
    // The alarm-row rollups count exactly the rows the traces recorded.
    const telemetry_service::fleet_snapshot snap = svc.metrics();
    EXPECT_EQ(snap.sensor_alarm_rows, sensor_rows);
    EXPECT_EQ(snap.fan_alarm_rows, fan_rows);
    EXPECT_EQ(snap.rows, 120u * f.lane_count());
}

// --- TelemetryService -------------------------------------------------------

TEST(TelemetryService, AttachedFleetTracesBitwiseIdentical) {
    sim::fleet observed(make_configs(6), fleet_cfg(3, 2));
    sim::fleet unobserved(make_configs(6), fleet_cfg(3, 2));
    bind_workloads(observed);
    bind_workloads(unobserved);
    observed.force_cold_start();
    unobserved.force_cold_start();

    {
        telemetry_service::service_config cfg;
        cfg.enable_http = false;
        telemetry_service::service svc(observed, cfg);
        observed.advance(80.0_s, 1.0_s);
        unobserved.advance(80.0_s, 1.0_s);
        svc.drain();
    }

    for (std::size_t l = 0; l < observed.lane_count(); ++l) {
        SCOPED_TRACE("lane " + std::to_string(l));
        const sim::trace_view a = observed.trace(l);
        const sim::trace_view b = unobserved.trace(l);
        for (std::size_t c = 0; c < sim::trace_channel_count; ++c) {
            SCOPED_TRACE(sim::trace_channel_name(static_cast<sim::trace_channel>(c)));
            const util::column_view va = a.channel(static_cast<sim::trace_channel>(c));
            const util::column_view vb = b.channel(static_cast<sim::trace_channel>(c));
            ASSERT_EQ(va.size(), vb.size());
            for (std::size_t i = 0; i < va.size(); ++i) {
                ASSERT_EQ(va.t(i), vb.t(i));
                ASSERT_EQ(va.v(i), vb.v(i));
            }
        }
    }
}

TEST(TelemetryService, EpochsAndCountersAccountForEveryStep) {
    sim::fleet f(make_configs(5), fleet_cfg(2, 2));
    bind_workloads(f);
    f.force_cold_start();

    telemetry_service::service_config cfg;
    cfg.enable_http = false;
    cfg.ring_slots = 8;
    telemetry_service::service svc(f, cfg);

    f.advance(50.0_s, 1.0_s);
    svc.drain();

    const telemetry_service::ingest_stats st = svc.stats();
    EXPECT_EQ(st.published_groups + st.dropped_groups,
              50u * f.shard_count());
    EXPECT_EQ(st.applied_groups, st.published_groups);

    const telemetry_service::fleet_snapshot snap = svc.metrics();
    EXPECT_EQ(snap.shards, f.shard_count());
    EXPECT_EQ(snap.lanes, f.lane_count());
    if (st.dropped_groups == 0) {
        EXPECT_EQ(snap.complete_epoch, 50u);
        EXPECT_EQ(snap.rows, 50u * f.lane_count());
    }
    for (const std::uint64_t e : snap.shard_epochs) {
        EXPECT_LE(e, 50u);
    }
}

TEST(TelemetryService, SurvivesTraceClearsBetweenSteps) {
    // The soak driver clears lane traces periodically so the arena stays
    // bounded; publication must keep flowing across the group-number
    // reset.
    sim::fleet f(make_configs(4), fleet_cfg(2, 1));
    bind_workloads(f);
    f.force_cold_start();

    telemetry_service::service_config cfg;
    cfg.enable_http = false;
    telemetry_service::service svc(f, cfg);

    for (int k = 0; k < 30; ++k) {
        f.step(1.0_s);
        if (k % 7 == 6) {
            svc.drain();  // Let the copies land before the arena resets.
            for (std::size_t l = 0; l < f.lane_count(); ++l) {
                f.clear_trace(l);
            }
        }
    }
    svc.drain();
    const telemetry_service::ingest_stats st = svc.stats();
    EXPECT_EQ(st.published_groups + st.dropped_groups, 30u * f.shard_count());
    if (st.dropped_groups == 0) {
        EXPECT_EQ(svc.stats().rows, 30u * f.lane_count());
    }
}

/// A loopback client socket connected to `port`, with a receive timeout
/// so a misbehaving server fails the test instead of hanging it.
int connect_client(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    const timeval timeout{5, 0};
    EXPECT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)), 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
}

/// Minimal blocking HTTP GET against 127.0.0.1:`port` (test-only; the
/// production path is the nonblocking server).
std::string http_get(std::uint16_t port, const std::string& path, int* status_out) {
    const int fd = connect_client(port);
    const std::string req = "GET " + path + " HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
    EXPECT_EQ(::send(fd, req.data(), req.size(), 0), static_cast<ssize_t>(req.size()));
    std::string response;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) {
            break;
        }
        response.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    const std::size_t sp = response.find(' ');
    *status_out = sp == std::string::npos ? 0 : std::atoi(response.c_str() + sp + 1);
    const std::size_t body = response.find("\r\n\r\n");
    return body == std::string::npos ? std::string() : response.substr(body + 4);
}

/// Verifies the body's trailing FNV checksum field (the torn-read
/// detector soak clients run).
bool checksum_ok(const std::string& body) {
    const std::size_t pos = body.rfind(",\"checksum\":\"");
    if (pos == std::string::npos || body.size() < pos + 13 + 16 + 2) {
        return false;
    }
    const std::string prefix = body.substr(0, pos);
    char expect[24];
    std::snprintf(expect, sizeof(expect), "%016llx",
                  static_cast<unsigned long long>(telemetry_service::service::fnv1a(prefix)));
    return body.compare(pos + 13, 16, expect) == 0;
}

TEST(TelemetryService, HttpEndpointsServeChecksummedJson) {
    sim::fleet f(make_configs(4), fleet_cfg(2, 1));
    bind_workloads(f);
    f.force_cold_start();

    telemetry_service::service_config cfg;
    cfg.online.window_rows = 10;
    cfg.http_threads = 2;
    telemetry_service::service svc(f, cfg);

    f.advance(30.0_s, 1.0_s);
    svc.drain();

    int status = 0;
    const std::string metrics = http_get(svc.http_port(), "/metrics", &status);
    EXPECT_EQ(status, 200);
    EXPECT_TRUE(checksum_ok(metrics)) << metrics;
    EXPECT_NE(metrics.find("\"complete_epoch\":30"), std::string::npos) << metrics;
    EXPECT_NE(metrics.find("\"rows\":120"), std::string::npos) << metrics;
    EXPECT_NE(metrics.find("\"dropped_groups\":0"), std::string::npos) << metrics;

    const std::string health = http_get(svc.http_port(), "/health", &status);
    EXPECT_EQ(status, 200);
    EXPECT_TRUE(checksum_ok(health)) << health;
    EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos) << health;

    const std::string lane = http_get(svc.http_port(), "/lanes/2/window", &status);
    EXPECT_EQ(status, 200);
    EXPECT_TRUE(checksum_ok(lane)) << lane;
    EXPECT_NE(lane.find("\"lane\":2"), std::string::npos) << lane;
    EXPECT_NE(lane.find("\"closed_windows\":3"), std::string::npos) << lane;

    http_get(svc.http_port(), "/lanes/99/window", &status);
    EXPECT_EQ(status, 404);
    http_get(svc.http_port(), "/nope", &status);
    EXPECT_EQ(status, 404);
    EXPECT_GE(svc.requests_served(), 5u);
}

/// Sends one request on `fd` and reads back exactly one response (head
/// plus Content-Length body); returns "" if the server closed first.
std::string round_trip(int fd, const std::string& request) {
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(request.size())) {
        return {};
    }
    std::string response;
    char buf[4096];
    for (;;) {
        const std::size_t head_end = response.find("\r\n\r\n");
        const std::size_t length_at = response.find("Content-Length: ");
        if (head_end != std::string::npos && length_at < head_end) {
            const std::size_t length = std::strtoul(response.c_str() + length_at + 16, nullptr, 10);
            if (response.size() >= head_end + 4 + length) {
                return response;
            }
        }
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) {
            return {};
        }
        response.append(buf, static_cast<std::size_t>(n));
    }
}

int status_of(const std::string& response) {
    return response.size() > 9 ? std::atoi(response.c_str() + 9) : 0;  // after "HTTP/1.1 "
}

TEST(TelemetryService, KeepAliveIgnoresCloseInOtherHeaders) {
    sim::fleet f(make_configs(2), fleet_cfg(1, 1));
    bind_workloads(f);
    f.force_cold_start();
    telemetry_service::service svc(f, telemetry_service::service_config{});

    // "close" in another header's value does not end a keep-alive
    // connection: the second request on the socket is served too.
    const int fd = connect_client(svc.http_port());
    const std::string note_close =
        "GET /health HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\nX-Note: close\r\n\r\n";
    const std::string first = round_trip(fd, note_close);
    EXPECT_EQ(status_of(first), 200) << first;
    EXPECT_NE(first.find("Connection: keep-alive"), std::string::npos) << first;
    const std::string second = round_trip(fd, "GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
    EXPECT_EQ(status_of(second), 200) << second;
    ::close(fd);

    // Field names are case-insensitive.
    const int upper = connect_client(svc.http_port());
    const std::string last =
        round_trip(upper, "GET /health HTTP/1.1\r\nHost: x\r\nCONNECTION: close\r\n\r\n");
    EXPECT_EQ(status_of(last), 200) << last;
    EXPECT_NE(last.find("Connection: close"), std::string::npos) << last;
    ::close(upper);
}

TEST(TelemetryService, ConcurrentPollersSeeConsistentSnapshots) {
    sim::fleet f(make_configs(4), fleet_cfg(2, 2));
    bind_workloads(f);
    f.force_cold_start();

    telemetry_service::service_config cfg;
    cfg.online.window_rows = 10;
    cfg.http_threads = 2;
    telemetry_service::service svc(f, cfg);
    const std::uint16_t port = svc.http_port();

    std::atomic<bool> fail{false};
    std::atomic<bool> stop{false};
    std::vector<std::thread> pollers;
    pollers.reserve(4);
    for (int p = 0; p < 4; ++p) {
        pollers.emplace_back([&, p] {
            const std::string path =
                p % 2 == 0 ? "/metrics" : "/lanes/" + std::to_string(p) + "/window";
            while (!stop.load(std::memory_order_acquire)) {
                int status = 0;
                const std::string body = http_get(port, path, &status);
                if (status != 200 || !checksum_ok(body)) {
                    fail.store(true, std::memory_order_release);
                    return;
                }
            }
        });
    }
    f.advance(60.0_s, 1.0_s);
    stop.store(true, std::memory_order_release);
    for (auto& t : pollers) {
        t.join();
    }
    EXPECT_FALSE(fail.load());
    svc.drain();
    EXPECT_EQ(svc.stats().applied_groups, svc.stats().published_groups);
}

}  // namespace
