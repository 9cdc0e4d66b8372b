#include "telemetry_service/service.hpp"

#include <algorithm>
#include <cstdio>

#include "util/error.hpp"

namespace ltsc::telemetry_service {

namespace {

/// Appends a double as shortest round-trippable decimal (JSON number).
void append_double(std::string& out, double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
}

void append_field(std::string& out, const char* key, double v) {
    out += '"';
    out += key;
    out += "\":";
    append_double(out, v);
}

void append_field(std::string& out, const char* key, std::uint64_t v) {
    out += '"';
    out += key;
    out += "\":";
    out += std::to_string(v);
}

/// Seals a JSON body whose opening brace is written but whose closing
/// brace is not: appends the checksum of everything so far as the final
/// field.  Clients re-verify by hashing the body up to `,"checksum"`.
void seal(std::string& out) {
    const std::uint64_t sum = service::fnv1a(out);
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(sum));
    out += ",\"checksum\":\"";
    out += buf;
    out += "\"}";
}

}  // namespace

std::uint64_t service::fnv1a(const std::string& s) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

service::service(sim::fleet& fleet, service_config cfg) : fleet_(fleet) {
    util::ensure(fleet_.sink() == nullptr, "service: fleet already has a sink");
    const std::size_t shards = fleet_.shard_count();
    parts_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        parts_.push_back(std::make_unique<partition>(
            fleet_.shard_offset(s + 1) - fleet_.shard_offset(s), cfg.online));
    }
    if (cfg.enable_http) {
        http_ = std::make_unique<http_server>(
            cfg.port, cfg.http_threads,
            [this](const std::string& path, std::string& body) { return handle(path, body); });
    }
    fleet_.attach_sink(this);
}

service::~service() {
    fleet_.attach_sink(nullptr);
}

void service::on_shard_step(std::size_t shard, std::uint64_t epoch,
                            const sim::server_batch& batch) {
    partition& p = *parts_[shard];
    const sim::batch_trace& tr = batch.traces();
    if (tr.appended_groups() == p.last_appended) {
        return;  // All lanes inert: the step recorded nothing.
    }
    p.last_appended = tr.appended_groups();
    std::unique_lock<std::shared_mutex> lock(p.mutex);
    p.state.apply_group(tr, tr.group_count() - 1);
    p.epoch = epoch;
}

fleet_snapshot service::metrics() const {
    fleet_snapshot snap;
    snap.lanes = fleet_.lane_count();
    snap.shards = parts_.size();
    snap.shard_epochs.resize(parts_.size());
    online_rollup total;
    online_rollup part;
    for (std::size_t s = 0; s < parts_.size(); ++s) {
        {
            std::shared_lock<std::shared_mutex> lock(parts_[s]->mutex);
            part = parts_[s]->state.rollup();
            snap.shard_epochs[s] = parts_[s]->epoch;
        }
        if (s == 0) {
            total = part;
        } else {
            total.merge(part);
        }
    }
    snap.complete_epoch = *std::min_element(snap.shard_epochs.begin(), snap.shard_epochs.end());
    snap.rows = total.rows;
    snap.row_groups = total.row_groups;
    snap.closed_windows = total.closed_windows;
    snap.guard_trip_rows = total.guard_trip_rows;
    snap.sensor_alarm_rows = total.sensor_alarm_rows;
    snap.fan_alarm_rows = total.fan_alarm_rows;
    snap.closed_energy_kwh = total.closed_energy_kwh;
    snap.max_temp_c = total.max_temp_c;
    if (total.rows > 0) {
        snap.margin_p01_c = total.margins.quantile(0.01);
        snap.margin_p50_c = total.margins.quantile(0.50);
        snap.margin_p99_c = total.margins.quantile(0.99);
    }
    return snap;
}

lane_window service::lane_window_snapshot(std::size_t lane) const {
    const partition& p = *parts_[fleet_.shard_of(lane)];
    std::shared_lock<std::shared_mutex> lock(p.mutex);
    return p.state.lane(fleet_.local_lane(lane));
}

ingest_stats service::stats() const {
    const fleet_snapshot snap = metrics();
    ingest_stats st;
    st.published_groups = snap.row_groups;
    st.applied_groups = snap.row_groups;
    st.rows = snap.rows;
    return st;
}

std::string service::metrics_json() const {
    const fleet_snapshot snap = metrics();
    std::string out;
    out.reserve(512 + 24 * snap.shard_epochs.size());
    out += '{';
    append_field(out, "lanes", static_cast<std::uint64_t>(snap.lanes));
    out += ',';
    append_field(out, "shards", static_cast<std::uint64_t>(snap.shards));
    out += ',';
    append_field(out, "complete_epoch", snap.complete_epoch);
    out += ",\"shard_epochs\":[";
    for (std::size_t s = 0; s < snap.shard_epochs.size(); ++s) {
        if (s != 0) {
            out += ',';
        }
        out += std::to_string(snap.shard_epochs[s]);
    }
    out += "],";
    append_field(out, "rows", snap.rows);
    out += ',';
    append_field(out, "row_groups", snap.row_groups);
    out += ',';
    append_field(out, "dropped_groups", snap.dropped_groups);
    out += ',';
    append_field(out, "closed_windows", snap.closed_windows);
    out += ',';
    append_field(out, "guard_trip_rows", snap.guard_trip_rows);
    out += ',';
    append_field(out, "sensor_alarm_rows", snap.sensor_alarm_rows);
    out += ',';
    append_field(out, "fan_alarm_rows", snap.fan_alarm_rows);
    out += ',';
    append_field(out, "closed_energy_kwh", snap.closed_energy_kwh);
    out += ',';
    append_field(out, "max_temp_c", snap.max_temp_c);
    out += ',';
    append_field(out, "margin_p01_c", snap.margin_p01_c);
    out += ',';
    append_field(out, "margin_p50_c", snap.margin_p50_c);
    out += ',';
    append_field(out, "margin_p99_c", snap.margin_p99_c);
    seal(out);
    return out;
}

std::string service::health_json() const {
    const fleet_snapshot snap = metrics();
    std::string out;
    out.reserve(256);
    out += "{\"status\":\"ok\",";
    append_field(out, "lanes", static_cast<std::uint64_t>(snap.lanes));
    out += ',';
    append_field(out, "shards", static_cast<std::uint64_t>(snap.shards));
    out += ',';
    append_field(out, "complete_epoch", snap.complete_epoch);
    out += ',';
    append_field(out, "published_groups", snap.row_groups);
    out += ',';
    append_field(out, "applied_groups", snap.row_groups);
    out += ',';
    append_field(out, "dropped_groups", snap.dropped_groups);
    out += ',';
    append_field(out, "requests_served",
                 http_ ? http_->requests_served() : std::uint64_t{0});
    seal(out);
    return out;
}

std::string service::lane_window_json(std::size_t lane) const {
    const lane_window w = lane_window_snapshot(lane);
    std::string out;
    out.reserve(512);
    out += '{';
    append_field(out, "lane", static_cast<std::uint64_t>(lane));
    out += ',';
    append_field(out, "rows", w.rows);
    out += ',';
    append_field(out, "open_rows", static_cast<std::uint64_t>(w.open_rows));
    out += ',';
    append_field(out, "closed_windows", w.closed);
    out += ",\"window\":";
    if (!w.valid) {
        out += "null";
    } else {
        out += '{';
        append_field(out, "duration_s", w.metrics.duration_s);
        out += ',';
        append_field(out, "energy_kwh", w.metrics.energy_kwh);
        out += ',';
        append_field(out, "peak_power_w", w.metrics.peak_power_w);
        out += ',';
        append_field(out, "avg_rpm", w.metrics.avg_rpm);
        out += ',';
        append_field(out, "avg_cpu_temp_c", w.metrics.avg_cpu_temp_c);
        out += ',';
        append_field(out, "max_temp_c", w.metrics.max_temp_c);
        out += ',';
        append_field(out, "guard_trip_rows", w.guard_trip_rows);
        out += '}';
    }
    seal(out);
    return out;
}

std::uint16_t service::http_port() const {
    util::ensure(http_ != nullptr, "service: HTTP endpoint disabled");
    return http_->port();
}

std::uint64_t service::requests_served() const {
    return http_ ? http_->requests_served() : 0;
}

bool service::handle(const std::string& path, std::string& body) {
    // Strip any query string; the endpoints take none.
    std::string p = path;
    if (const std::size_t q = p.find('?'); q != std::string::npos) {
        p.resize(q);
    }
    if (p == "/metrics") {
        body = metrics_json();
        return true;
    }
    if (p == "/health") {
        body = health_json();
        return true;
    }
    constexpr const char* prefix = "/lanes/";
    constexpr const char* suffix = "/window";
    if (p.rfind(prefix, 0) == 0 && p.size() > 7 + 7 &&
        p.compare(p.size() - 7, 7, suffix) == 0) {
        const std::string digits = p.substr(7, p.size() - 14);
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") != std::string::npos) {
            return false;
        }
        std::size_t lane = 0;
        for (const char c : digits) {
            if (lane > fleet_.lane_count()) {
                return false;  // Overflow guard; already out of range.
            }
            lane = lane * 10 + static_cast<std::size_t>(c - '0');
        }
        if (lane >= fleet_.lane_count()) {
            return false;
        }
        body = lane_window_json(lane);
        return true;
    }
    return false;
}

}  // namespace ltsc::telemetry_service
