// Streaming telemetry service: the columnar store goes online.
//
// Attaching a `service` to a `sim::fleet` turns the simulator into a
// system under observation while it runs:
//
//   fleet shard s ──fold──▶ partition s (online state, shared_mutex)
//                                  │
//   HTTP pollers ◀──serve── merge of copied partitions
//
//  * Ingestion: when a shard finishes a step, its stepping thread folds
//    the row-group the step appended to the shard's `batch_trace` arena
//    straight into that shard's own partition of the online state,
//    under the partition's lock, and stamps the partition with the step
//    epoch.  Nothing is queued or copied on the way, so no row-group can
//    drop, whatever the host's scheduling.  A fleet with no sink
//    attached is bitwise-identical to one that never had a service
//    (pinned by TelemetryService.AttachedFleetTracesBitwiseIdentical).
//  * Queries: each partition is copied under its reader lock and the
//    copies are merged outside the locks (rollups summed in shard
//    order, margin histograms merged), so a partition is never read
//    mid-fold.  `complete_epoch` (the min across partitions) names the
//    newest fleet step every shard has reached — the consistency
//    watermark.  Serialized JSON carries an FNV-1a checksum over the
//    body prefix that clients (and the soak gate) re-verify end to end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "sim/fleet.hpp"
#include "telemetry_service/http_server.hpp"
#include "telemetry_service/online_metrics.hpp"

namespace ltsc::telemetry_service {

struct service_config {
    online_config online;     ///< Window size and guard line.
    std::size_t http_threads = 2;
    std::uint16_t port = 0;   ///< 0 picks an ephemeral port.
    bool enable_http = true;  ///< False: ingest only, no endpoint.
};

/// Ingestion counters (monotone; readable any time).  Every published
/// row-group is folded as it is published, so the two group counts are
/// equal and none is ever dropped.
struct ingest_stats {
    std::uint64_t published_groups = 0;  ///< Row-groups published by shards.
    std::uint64_t dropped_groups = 0;    ///< Always 0 (kept for readers).
    std::uint64_t applied_groups = 0;    ///< Row-groups folded into state.
    std::uint64_t rows = 0;              ///< Lane-rows folded into state.
};

/// The fleet's online metrics, merged from whole shard partitions.
struct fleet_snapshot {
    std::size_t lanes = 0;
    std::size_t shards = 0;
    std::uint64_t complete_epoch = 0;  ///< Newest step every shard reached.
    std::vector<std::uint64_t> shard_epochs;
    std::uint64_t rows = 0;
    std::uint64_t row_groups = 0;
    std::uint64_t dropped_groups = 0;  ///< Always 0 (see ingest_stats).
    std::uint64_t closed_windows = 0;
    std::uint64_t guard_trip_rows = 0;
    std::uint64_t sensor_alarm_rows = 0;
    std::uint64_t fan_alarm_rows = 0;
    double closed_energy_kwh = 0.0;
    double max_temp_c = 0.0;   ///< 0 until the first row arrives.
    double margin_p01_c = 0.0; ///< Thermal margin percentiles (0 until rows).
    double margin_p50_c = 0.0;
    double margin_p99_c = 0.0;
};

class service final : public sim::fleet_sink {
public:
    /// Attaches to `fleet` (which must have no sink) and starts, per
    /// config, the HTTP endpoint.  The fleet must outlive the service;
    /// attach and destroy only while the fleet is quiescent.
    explicit service(sim::fleet& fleet, service_config cfg = {});
    ~service() override;

    service(const service&) = delete;
    service& operator=(const service&) = delete;

    /// Publication hook (fleet_sink); runs on fleet pool threads and
    /// folds the shard's newest row-group into its partition.
    void on_shard_step(std::size_t shard, std::uint64_t epoch,
                       const sim::server_batch& batch) override;

    // --- snapshot reads (thread-safe) ---------------------------------------
    [[nodiscard]] fleet_snapshot metrics() const;
    [[nodiscard]] lane_window lane_window_snapshot(std::size_t lane) const;
    [[nodiscard]] ingest_stats stats() const;

    /// JSON bodies of the HTTP endpoints (exposed so tests and the
    /// ingest bench can bypass sockets).
    [[nodiscard]] std::string metrics_json() const;
    [[nodiscard]] std::string health_json() const;
    [[nodiscard]] std::string lane_window_json(std::size_t lane) const;

    [[nodiscard]] std::uint16_t http_port() const;
    [[nodiscard]] std::uint64_t requests_served() const;

    /// Returns at once: a step's row-groups are folded before the step
    /// returns, so nothing is ever in flight.  Kept for readers that
    /// wait for ingestion before a deterministic read.
    void drain() const {}

    /// FNV-1a 64 over `s` (the JSON body checksum clients re-verify).
    [[nodiscard]] static std::uint64_t fnv1a(const std::string& s);

private:
    /// One shard's slice of the online state: its stepping thread folds
    /// under the writer lock, queries copy under the reader lock.
    struct partition {
        partition(std::size_t lanes, const online_config& cfg) : state(lanes, cfg) {}
        mutable std::shared_mutex mutex;
        online_state state;
        std::uint64_t epoch = 0;          ///< Newest fleet step folded.
        std::uint64_t last_appended = 0;  ///< Arena watermark (stepping thread only).
    };

    bool handle(const std::string& path, std::string& body);

    sim::fleet& fleet_;
    std::vector<std::unique_ptr<partition>> parts_;  ///< One per shard.
    std::unique_ptr<http_server> http_;  ///< Last member: stops before parts_ go.
};

}  // namespace ltsc::telemetry_service
