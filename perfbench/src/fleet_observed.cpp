// fleet_observed: a large heterogeneous fleet stepped flat out while a
// telemetry service ingests every step and an open loop of HTTP queries
// reads it.
//
// The fleet mixes the three paper test profiles and a spread of
// ambients (as `rack_scale smoke` does), with per-lane sensor seeds.
// Its working set (GBs) is far larger than any cache, so sharding,
// set-up cost and memory per lane dominate.  Queries (/metrics, /health,
// /lanes/<i>/window) are due on a fixed schedule and sent by one
// generator thread over at most nproc keep-alive connections; each is
// timed from when it was due.  It is the only workload that exercises
// telemetry_service.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "sim/fleet.hpp"
#include "telemetry_service/service.hpp"
#include "timed.hpp"
#include "workload/paper_tests.hpp"

namespace perfbench {

namespace {

using namespace ltsc;

constexpr std::size_t kLanes = 2000;
constexpr std::size_t kSetups = 3;
constexpr double kQueryRate = 1000.0;  // queries per second, open loop
constexpr double kDrainTimeout_s = 2.0;
constexpr std::uint64_t kClearEvery = 64;  // steps between trace clears
constexpr double kWarmup_s = 1.0;  // untimed stepping before the measurement
constexpr double kChunk_s = 1.0;   // measurement chunk (rates and latencies per chunk)
constexpr std::size_t kReplayLanes = 32;
// Peak memory is read when the fleet completes this step.  Lane
// telemetry history grows with every simulated step (clear_trace does
// not clear it), so a peak read after a fixed host time would grow with
// the simulator's speed.
constexpr std::uint64_t kRssStep = 2048;
// Each lane plays its 80-minute paper test this many times back to back,
// so no lane runs out of workload within a run (a lane past its profile
// idles, which would change the work per step mid-run).
constexpr int kProfileRepeats = 12;
constexpr std::size_t kHttpThreads = 1;

/// The generated inputs: one configuration, profile and ambient per lane.
struct fleet_inputs {
    std::vector<sim::server_config> configs;
    std::vector<std::uint8_t> profile_of;
    std::vector<double> ambient_c;
    std::vector<workload::utilization_profile> profiles;
};

/// `p` played `times` times back to back.
workload::utilization_profile repeated(const workload::utilization_profile& p, int times) {
    workload::utilization_profile out(p.name());
    for (int i = 0; i < times; ++i) {
        for (const auto& seg : p.segments()) {
            const util::seconds_t d{seg.t1 - seg.t0};
            if (seg.u0 == seg.u1) {
                out.constant(seg.u0, d);
            } else {
                out.ramp(seg.u0, seg.u1, d);
            }
        }
    }
    return out;
}

fleet_inputs make_inputs(std::uint64_t seed) {
    fleet_inputs in;
    for (const workload::paper_test t : {workload::paper_test::test1_ramp,
                                         workload::paper_test::test2_periods,
                                         workload::paper_test::test3_frequent}) {
        in.profiles.push_back(repeated(workload::make_paper_test(t), kProfileRepeats));
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
        const std::uint64_t h = derive_seed(seed, l);
        sim::server_config c = sim::paper_server();
        c.seed = h;
        in.configs.push_back(c);
        in.profile_of.push_back(static_cast<std::uint8_t>((h >> 8) % 3));
        in.ambient_c.push_back(22.0 + 0.5 * static_cast<double>((h >> 16) % 7));
    }
    return in;
}

/// Lane l of `fleet` is lane `lanes[l]` of the inputs.
void bind_inputs(sim::fleet& fleet, const fleet_inputs& in, const std::vector<std::size_t>& lanes) {
    for (std::size_t l = 0; l < lanes.size(); ++l) {
        fleet.bind_workload(l, in.profiles[in.profile_of[lanes[l]]]);
        fleet.set_ambient(l, util::celsius_t{in.ambient_c[lanes[l]]});
    }
}

/// Bitwise digest of one lane's observable state.
std::uint64_t lane_digest(const sim::fleet& fleet, std::size_t lane) {
    const double v[] = {
        fleet.true_avg_cpu_temp(lane).value(), fleet.max_cpu_sensor_temp(lane).value(),
        fleet.system_power_reading(lane).value(), fleet.average_fan_rpm(lane).value(),
        fleet.now(lane).value()};
    std::uint64_t h = 1469598103934665603ULL;
    for (const double d : v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        for (int b = 0; b < 8; ++b) {
            h = (h ^ ((bits >> (8 * b)) & 0xff)) * 1099511628211ULL;
        }
    }
    return h;
}

// --- open-loop query generator ---------------------------------------------

enum query_kind : int { q_metrics = 0, q_health = 1, q_lane_window = 2 };

struct query_sample {
    int kind = q_metrics;
    double due_s = 0.0;
    double sent_s = -1.0;  ///< -1: never sent.
    double done_s = -1.0;  ///< -1: no valid response.
    bool ok = false;
    long staleness = -1;   ///< Steps; -1 when the body has no complete_epoch.
};

struct connection {
    int fd = -1;
    std::string inbuf;
    std::string outbuf;
    long query = -1;  ///< Index of the in-flight query, -1 when idle.
    std::uint64_t last_epoch = 0;
};

bool checksum_ok(const std::string& body) {
    const std::size_t pos = body.rfind(",\"checksum\":\"");
    if (pos == std::string::npos || body.size() < pos + 13 + 16 + 2) {
        return false;
    }
    char expect[24];
    std::snprintf(expect, sizeof(expect), "%016llx",
                  static_cast<unsigned long long>(
                      telemetry_service::service::fnv1a(body.substr(0, pos))));
    return body.compare(pos + 13, 16, expect) == 0;
}

bool parse_epoch(const std::string& body, std::uint64_t& epoch) {
    const std::size_t pos = body.find("\"complete_epoch\":");
    if (pos == std::string::npos) {
        return false;
    }
    epoch = std::strtoull(body.c_str() + pos + 17, nullptr, 10);
    return true;
}

int open_connection(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

/// Sends the schedule's queries due in [start_s, end_s) and collects
/// their outcomes.  Runs on its own thread; reads the fleet's progress
/// only through `fleet_epoch`.
class open_loop {
public:
    open_loop(std::uint16_t port, std::size_t connections, std::uint64_t seed,
              const std::atomic<std::uint64_t>& fleet_epoch)
        : port_(port), connections_(connections), seed_(seed), fleet_epoch_(fleet_epoch) {}

    void run(double start_s, double end_s);

    [[nodiscard]] const std::vector<query_sample>& samples() const { return samples_; }

private:
    void send_next(connection& c, std::size_t query);
    void on_response(connection& c, const std::string& head, const std::string& body);

    std::uint16_t port_;
    std::size_t connections_;
    std::uint64_t seed_;
    const std::atomic<std::uint64_t>& fleet_epoch_;
    std::vector<query_sample> samples_;
};

void open_loop::send_next(connection& c, std::size_t query) {
    query_sample& q = samples_[query];
    std::string path;
    switch (q.kind) {
        case q_metrics: path = "/metrics"; break;
        case q_health: path = "/health"; break;
        default:
            path = "/lanes/" + std::to_string(derive_seed(seed_, query) % kLanes) + "/window";
            break;
    }
    c.outbuf = "GET " + path + " HTTP/1.1\r\nHost: perfbench\r\n\r\n";
    c.query = static_cast<long>(query);
    q.sent_s = now_s();
}

void open_loop::on_response(connection& c, const std::string& head, const std::string& body) {
    query_sample& q = samples_[static_cast<std::size_t>(c.query)];
    const double done = now_s();
    c.query = -1;
    bool ok = head.compare(0, 12, "HTTP/1.1 200") == 0 && checksum_ok(body);
    std::uint64_t epoch = 0;
    if (ok && q.kind != q_lane_window) {
        if (!parse_epoch(body, epoch) || epoch < c.last_epoch) {
            ok = false;  // missing field, or the view went backwards
        } else {
            c.last_epoch = epoch;
            const std::uint64_t completed = fleet_epoch_.load(std::memory_order_acquire);
            q.staleness = completed > epoch ? static_cast<long>(completed - epoch) : 0;
        }
    }
    q.ok = ok;
    if (ok) {
        q.done_s = done;
    }
}

void open_loop::run(double start_s, double end_s) {
    const std::size_t total = static_cast<std::size_t>((end_s - start_s) * kQueryRate);
    samples_.assign(total, query_sample{});
    for (std::size_t i = 0; i < total; ++i) {
        samples_[i].kind = static_cast<int>(i % 3);
        samples_[i].due_s = start_s + static_cast<double>(i) / kQueryRate;
    }
    std::vector<connection> conns;
    for (std::size_t i = 0; i < connections_; ++i) {
        const int fd = open_connection(port_);
        if (fd >= 0) {
            connection c;
            c.fd = fd;
            conns.push_back(std::move(c));
        }
    }

    std::deque<std::size_t> pending;  // due, not yet sent
    std::size_t next = 0;
    std::vector<pollfd> pfds;
    for (;;) {
        const double now = now_s();
        while (next < total && samples_[next].due_s <= now) {
            pending.push_back(next++);
        }
        const bool busy = std::any_of(conns.begin(), conns.end(),
                                      [](const connection& c) { return c.query >= 0; });
        if ((next == total && pending.empty() && !busy) || conns.empty() ||
            now > end_s + kDrainTimeout_s) {
            break;
        }
        for (connection& c : conns) {
            if (c.query < 0 && !pending.empty()) {
                send_next(c, pending.front());
                pending.pop_front();
            }
        }
        pfds.clear();
        for (const connection& c : conns) {
            pfds.push_back({c.fd, static_cast<short>(POLLIN | (c.outbuf.empty() ? 0 : POLLOUT)), 0});
        }
        const double wait_s =
            next < total ? std::max(0.0, samples_[next].due_s - now_s()) : 0.01;
        timespec ts{};
        ts.tv_sec = static_cast<time_t>(wait_s);
        ts.tv_nsec = static_cast<long>((wait_s - static_cast<double>(ts.tv_sec)) * 1e9);
        if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) {
            continue;
        }
        for (std::size_t i = conns.size(); i-- > 0;) {
            connection& c = conns[i];
            const short rev = pfds[i].revents;
            bool dead = (rev & (POLLERR | POLLNVAL)) != 0;
            if (!dead && (rev & POLLOUT) != 0 && !c.outbuf.empty()) {
                const ssize_t n = ::send(c.fd, c.outbuf.data(), c.outbuf.size(),
                                         MSG_NOSIGNAL | MSG_DONTWAIT);
                if (n > 0) {
                    c.outbuf.erase(0, static_cast<std::size_t>(n));
                } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
                    dead = true;
                }
            }
            if (!dead && (rev & (POLLIN | POLLHUP)) != 0) {
                char buf[16384];
                const ssize_t n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
                if (n > 0) {
                    c.inbuf.append(buf, static_cast<std::size_t>(n));
                } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
                    dead = true;
                }
            }
            while (!dead && c.query >= 0) {
                const std::size_t head_end = c.inbuf.find("\r\n\r\n");
                if (head_end == std::string::npos) {
                    break;
                }
                const std::size_t cl = c.inbuf.find("Content-Length: ");
                if (cl == std::string::npos || cl > head_end) {
                    dead = true;
                    break;
                }
                const std::size_t len = std::strtoull(c.inbuf.c_str() + cl + 16, nullptr, 10);
                if (c.inbuf.size() < head_end + 4 + len) {
                    break;
                }
                const std::string head = c.inbuf.substr(0, head_end);
                const std::string body = c.inbuf.substr(head_end + 4, len);
                c.inbuf.erase(0, head_end + 4 + len);
                on_response(c, head, body);
            }
            if (dead) {
                ::close(c.fd);
                conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
            }
        }
    }
    for (const connection& c : conns) {
        ::close(c.fd);
    }
}

// --- the workload ----------------------------------------------------------

struct setup_times {
    double ctor_s = 0.0;
    double bind_s = 0.0;
    double cold_start_s = 0.0;
    double service_s = 0.0;
    [[nodiscard]] double total() const { return ctor_s + bind_s + cold_start_s + service_s; }
};

struct plant {
    std::unique_ptr<sim::fleet> fleet;
    std::unique_ptr<telemetry_service::service> service;
};

plant set_up(const fleet_inputs& in, const std::vector<std::size_t>& all_lanes,
             std::size_t threads, setup_times& t) {
    plant p;
    sim::fleet_config fc;
    fc.threads = threads;
    fc.shards = threads;
    double t0 = now_s();
    p.fleet = std::make_unique<sim::fleet>(in.configs, fc);
    double t1 = now_s();
    t.ctor_s = t1 - t0;
    bind_inputs(*p.fleet, in, all_lanes);
    t0 = now_s();
    t.bind_s = t0 - t1;
    p.fleet->force_cold_start();
    t1 = now_s();
    t.cold_start_s = t1 - t0;
    telemetry_service::service_config sc;
    sc.http_threads = kHttpThreads;
    p.service = std::make_unique<telemetry_service::service>(*p.fleet, sc);
    t.service_s = now_s() - t1;
    return p;
}

/// A stretch of flat-out stepping.
struct chunk {
    double start_s = 0.0;
    double end_s = 0.0;
    std::uint64_t steps = 0;
};

/// Steps the fleet flat out for `budget_s`, in chunks of about
/// kChunk_s, clearing lane traces every kClearEvery steps.  With `sink`
/// set, each step is a span and the sink (installed in front of the
/// service) times the shards.
std::vector<chunk> step_for(sim::fleet& fleet, double budget_s, timed_sink* sink,
                            std::atomic<std::uint64_t>& epoch_out, double& rss_at_step_mb) {
    std::vector<chunk> chunks;
    const double t0 = now_s();
    chunk c{t0, t0, 0};
    for (;;) {
        {
            scoped_span step("sim.fleet.step");
            if (sink != nullptr) {
                sink->begin_step(step.id(), now_s());
            }
            fleet.step(util::seconds_t{1.0});
        }
        epoch_out.store(fleet.step_epoch(), std::memory_order_release);
        ++c.steps;
        if (fleet.step_epoch() == kRssStep) {
            rss_at_step_mb = peak_rss_mb();
        }
        if (fleet.step_epoch() % kClearEvery == 0) {
            scoped_span clear("sim.fleet.clear_trace");
            for (std::size_t l = 0; l < fleet.lane_count(); ++l) {
                fleet.clear_trace(l);
            }
        }
        const double now = now_s();
        if (now - c.start_s >= kChunk_s || now - t0 >= budget_s) {
            c.end_s = now;
            chunks.push_back(c);
            c = chunk{now, now, 0};
            if (now - t0 >= budget_s) {
                return chunks;
            }
        }
    }
}

}  // namespace

workload_result run_fleet_observed(const run_options& options) {
    workload_result res;
    const fleet_inputs in = make_inputs(options.seed);
    std::vector<std::size_t> all_lanes(kLanes);
    for (std::size_t l = 0; l < kLanes; ++l) {
        all_lanes[l] = l;
    }
    // The fleet's pool takes all but one host thread; the service's
    // aggregator and HTTP worker and the query generator share the last.
    const std::size_t threads = worker_threads();
    const std::size_t connections = std::min<std::size_t>(4, host_threads());
    res.pool_threads = threads;
    res.http_threads = kHttpThreads;

    // Setup, repeated so setup_s is a quartile; the last one is kept.
    std::vector<double> setup_s;
    std::vector<setup_times> parts;
    double setup_bytes_per_lane = 0.0;
    plant p;
    for (std::size_t i = 0; i < kSetups; ++i) {
        p.service.reset();  // the service goes before the fleet it observes
        p.fleet.reset();
        const double rss0 = current_rss_bytes();
        setup_times t;
        p = set_up(in, all_lanes, threads, t);
        if (i == 0) {
            setup_bytes_per_lane = (current_rss_bytes() - rss0) / static_cast<double>(kLanes);
        }
        setup_s.push_back(t.total());
        parts.push_back(t);
    }
    sim::fleet& fleet = *p.fleet;
    telemetry_service::service& svc = *p.service;

    // Untimed warm-up: trace arenas grow to their clearing size and the
    // caches fill before anything is measured.
    std::atomic<std::uint64_t> epoch{0};
    double rss_at_step_mb = 0.0;
    static_cast<void>(step_for(fleet, kWarmup_s, nullptr, epoch, rss_at_step_mb));

    open_loop client(svc.http_port(), connections, derive_seed(options.seed, 1u << 20), epoch);
    const double start = now_s();
    std::exception_ptr generator_error;
    std::thread generator([&] {
        try {
            client.run(start, start + options.seconds);
        } catch (...) {
            generator_error = std::current_exception();
        }
    });

    timed_sink sink(svc);
    std::vector<chunk> plain;
    std::vector<chunk> traced;
    try {
        if (!options.trace) {
            plain = step_for(fleet, options.seconds, nullptr, epoch, rss_at_step_mb);
        } else {
            plain = step_for(fleet, options.seconds / 2.0, nullptr, epoch, rss_at_step_mb);
            fleet.attach_sink(&sink);  // in front of the service, which stays attached behind it
            set_tracing(true);
            traced = step_for(fleet, options.seconds / 2.0, &sink, epoch, rss_at_step_mb);
        }
    } catch (...) {
        generator.join();
        throw;
    }
    const std::vector<chunk>& measured = options.trace ? traced : plain;
    generator.join();
    if (generator_error) {
        std::rethrow_exception(generator_error);
    }
    double drain_s = now_s();
    svc.drain();
    drain_s = now_s() - drain_s;
    set_tracing(false);
    const telemetry_service::ingest_stats ingest = svc.stats();
    res.checks.check(ingest.dropped_groups == 0);

    // Queries: every one due must have come back valid.  Latency counts
    // from the due time; each query belongs to the chunk it was due in.
    std::vector<std::vector<double>> chunk_latency_ms(measured.size());
    std::vector<double> by_kind_ms[3];
    std::vector<double> late_ms;
    std::vector<double> staleness;
    std::size_t sent = 0;
    std::size_t completed = 0;
    for (const query_sample& q : client.samples()) {
        res.checks.check(q.ok);
        if (q.sent_s >= 0.0) {
            ++sent;
            late_ms.push_back((q.sent_s - q.due_s) * 1e3);
        }
        // A failed query misses every latency limit: it counts as taking
        // until the generator gave up on it.
        double latency_ms = (start + options.seconds + kDrainTimeout_s - q.due_s) * 1e3;
        if (q.ok) {
            ++completed;
            latency_ms = (q.done_s - q.due_s) * 1e3;
            by_kind_ms[q.kind].push_back((q.done_s - q.sent_s) * 1e3);
            if (q.staleness >= 0) {
                staleness.push_back(static_cast<double>(q.staleness));
            }
        }
        std::size_t c = 0;
        while (c + 1 < measured.size() && q.due_s >= measured[c].end_s) {
            ++c;
        }
        if (!measured.empty() && q.due_s >= measured.front().start_s) {
            chunk_latency_ms[c].push_back(latency_ms);
        }
    }
    chunk_stats chunks;
    std::uint64_t steps = 0;
    for (std::size_t c = 0; c < measured.size(); ++c) {
        const chunk& k = measured[c];
        chunks.add(static_cast<double>(kLanes) * static_cast<double>(k.steps), k.end_s - k.start_s,
                   chunk_latency_ms[c]);
        steps += k.steps;
    }

    // A lane subset replayed on a fresh, untraced fleet at another shard
    // count must reach the same state bit for bit.
    std::vector<std::size_t> subset;
    const std::size_t stride = kLanes / kReplayLanes;
    for (std::size_t j = 0; j < kReplayLanes; ++j) {
        subset.push_back(j * stride + derive_seed(options.seed, 7 + j) % stride);
    }
    {
        std::vector<sim::server_config> configs;
        for (const std::size_t l : subset) {
            configs.push_back(in.configs[l]);
        }
        sim::fleet_config fc;
        fc.threads = 1;
        fc.shards = fleet.shard_count() == 2 ? 3 : 2;
        sim::fleet replay(configs, fc);
        bind_inputs(replay, in, subset);
        replay.force_cold_start();
        for (std::uint64_t s = 0; s < fleet.step_epoch(); ++s) {
            replay.step(util::seconds_t{1.0});
        }
        for (std::size_t j = 0; j < subset.size(); ++j) {
            res.checks.check(lane_digest(replay, j) == lane_digest(fleet, subset[j]));
        }
    }
    std::uint64_t fleet_digest = 0;
    for (std::size_t l = 0; l < kLanes; ++l) {
        fleet_digest ^= lane_digest(fleet, l) * (2 * l + 1);
    }

    const tail_stat stale99 = tail_percentile(staleness, 0.99);
    const tail_stat late99 = tail_percentile(late_ms, 0.99);
    res.end_to_end["setup_s"] = quantile(setup_s, 0.25);
    res.end_to_end["sim_server_s_per_s"] = chunks.best_rate();
    // A run too short to reach kRssStep reports the peak so far.
    res.end_to_end["peak_rss_mb"] = rss_at_step_mb > 0.0 ? rss_at_step_mb : peak_rss_mb();
    res.end_to_end["op_p50_ms"] = chunks.best_p50();

    res.notes.push_back(format("fleet %zu lanes, %zu shards on %zu threads; %llu steps in %zu "
                               "chunks after a %.0f s warm-up (epoch %llu), state digest %016llx",
                               kLanes, fleet.shard_count(), fleet.thread_count(),
                               static_cast<unsigned long long>(steps), measured.size(), kWarmup_s,
                               static_cast<unsigned long long>(fleet.step_epoch()),
                               static_cast<unsigned long long>(fleet_digest)));
    res.notes.push_back(format("setup: ctor %.3f s, bind %.3f s, cold start %.3f s, service %.3f s "
                               "(last of %zu)",
                               parts.back().ctor_s, parts.back().bind_s,
                               parts.back().cold_start_s, parts.back().service_s, kSetups));
    const tail_stat p99 = chunks.pooled_tail(0.99);
    res.notes.push_back(format("query_p50_ms %.4f (from due; best quartile of chunks), "
                               "query_p90_ms %.4f (median of chunks); query_p99_ms %.4f (p%.2f "
                               "of all %zu); %.0f queries/s on %zu connections; %zu sent, %zu "
                               "completed",
                               chunks.best_p50(), chunks.median_p90(), p99.value,
                               100.0 * p99.quantile, p99.samples, kQueryRate, connections, sent,
                               completed));
    res.notes.push_back(format("staleness_p99_steps %.0f (p%.2f of %zu), generator late p99 "
                               "%.4f ms; row-groups published %llu applied %llu dropped %llu",
                               stale99.value, 100.0 * stale99.quantile, stale99.samples,
                               late99.value, static_cast<unsigned long long>(ingest.published_groups),
                               static_cast<unsigned long long>(ingest.applied_groups),
                               static_cast<unsigned long long>(ingest.dropped_groups)));

    if (options.trace) {
        const span_set spans(collect_spans());
        auto& L = res.layer;
        chunk_stats untraced;
        for (const chunk& k : plain) {
            untraced.add(static_cast<double>(kLanes) * static_cast<double>(k.steps),
                         k.end_s - k.start_s, {});
        }
        L["trace.overhead_ratio"] = chunks.best_rate() / untraced.best_rate();
        L["sim.fleet.ctor_s"] = parts.back().ctor_s;
        L["sim.fleet.bind_s"] = parts.back().bind_s;
        L["sim.fleet.cold_start_s"] = parts.back().cold_start_s;
        L["telemetry_service.start_s"] = parts.back().service_s;
        L["mem.setup_bytes_per_lane"] = setup_bytes_per_lane;

        const span_summary step = spans.summarize("sim.fleet.step");
        L["sim.fleet.step.count"] = static_cast<double>(step.count);
        L["sim.fleet.step.busy_s"] = step.busy_s;
        L["sim.fleet.step.p50_ms"] = tail_percentile(step.durations_s, 0.50).value * 1e3;
        L["sim.fleet.step.p99_ms"] = tail_percentile(step.durations_s, 0.99).value * 1e3;
        L["sim.fleet.step.max_ms"] =
            step.durations_s.empty()
                ? 0.0
                : *std::max_element(step.durations_s.begin(), step.durations_s.end()) * 1e3;
        std::vector<double> done_ms;
        std::vector<double> barrier_ms;
        std::vector<double> skew;
        for (const span_record& s : spans.spans()) {
            if (std::strcmp(s.name, "sim.fleet.step") != 0) {
                continue;
            }
            double slowest = 0.0;
            double sum = 0.0;
            std::size_t shards = 0;
            for (const span_record* c : spans.children(s.id)) {
                if (std::strcmp(c->name, "sim.fleet.shard") == 0) {
                    const double d = c->end_s - c->start_s;
                    done_ms.push_back(d * 1e3);
                    slowest = std::max(slowest, d);
                    sum += d;
                    ++shards;
                } else if (std::strcmp(c->name, "telemetry_service.publish") == 0) {
                    barrier_ms.push_back((s.end_s - c->end_s) * 1e3);
                }
            }
            if (shards > 0 && sum > 0.0) {
                skew.push_back(slowest / (sum / static_cast<double>(shards)));
            }
        }
        L["sim.fleet.shard_done.mean_ms"] = mean(done_ms);
        L["sim.fleet.shard_done.max_ms"] =
            done_ms.empty() ? 0.0 : *std::max_element(done_ms.begin(), done_ms.end());
        L["sim.fleet.barrier_wait_ms"] = mean(barrier_ms);
        L["sim.fleet.shard_skew"] = mean(skew);
        L["sim.fleet.clear_trace_s"] = spans.summarize("sim.fleet.clear_trace").busy_s;

        const span_summary publish = spans.summarize("telemetry_service.publish");
        L["telemetry_service.publish.count"] = static_cast<double>(publish.count);
        L["telemetry_service.publish.busy_s"] = publish.busy_s;
        L["telemetry_service.publish.p99_us"] =
            tail_percentile(publish.durations_s, 0.99).value * 1e6;
        L["telemetry_service.published_groups"] = static_cast<double>(ingest.published_groups);
        L["telemetry_service.applied_groups"] = static_cast<double>(ingest.applied_groups);
        L["telemetry_service.dropped_groups"] = static_cast<double>(ingest.dropped_groups);
        L["telemetry_service.drain_s"] = drain_s;
        const char* kinds[3] = {"metrics", "health", "lane_window"};
        for (int k = 0; k < 3; ++k) {
            const std::string prefix = std::string("telemetry_service.query.") + kinds[k];
            L[prefix + ".p50_ms"] = tail_percentile(by_kind_ms[k], 0.50).value;
            L[prefix + ".p99_ms"] = tail_percentile(by_kind_ms[k], 0.99).value;
        }
        L["telemetry_service.staleness_p99_steps"] = stale99.value;
        L["loadgen.sent"] = static_cast<double>(sent);
        L["loadgen.completed"] = static_cast<double>(completed);
        L["loadgen.late_p99_ms"] = late99.value;
        L["trace.spans"] = static_cast<double>(spans.spans().size());
        if (!options.spans_path.empty() && !write_spans_csv(spans.spans(), options.spans_path)) {
            res.notes.push_back("warning: could not write " + options.spans_path);
        }
    }
    // Destroy the service before the fleet it observes.
    p.service.reset();
    p.fleet.reset();
    return res;
}

}  // namespace perfbench
