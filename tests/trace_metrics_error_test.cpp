// Error-path coverage for trace recording (sim/batch_trace), export
// (sim/trace_io) and metrics extraction (sim/metrics): truncated and
// non-finite traces, the exact CSV layout, empty batches, and
// mismatched lane counts.  The happy paths are exercised all over the
// suite; these are the edges a fleet harness hits when a run is
// interrupted or a lane index is wrong.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "sim/batch_trace.hpp"
#include "sim/metrics.hpp"
#include "sim/server_batch.hpp"
#include "sim/server_simulator.hpp"
#include "sim/trace_io.hpp"
#include "util/error.hpp"
#include "workload/profile.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

sim::trace_row row_at(double v) {
    sim::trace_row row;
    for (std::size_t c = 0; c < sim::trace_channel_count; ++c) {
        row.values[c] = v + static_cast<double>(c);
    }
    return row;
}

sim::batch_trace two_sample_trace() {
    sim::batch_trace tr(1);
    tr.append(0, 0.0, row_at(50.0));
    tr.append(0, 10.0, row_at(51.0));
    return tr;
}

/// Every channel's export name, in trace_channel order.
std::vector<std::string> channel_names() {
    std::vector<std::string> out;
    for (std::size_t c = 0; c < sim::trace_channel_count; ++c) {
        out.emplace_back(sim::trace_channel_name(static_cast<sim::trace_channel>(c)));
    }
    return out;
}

TEST(TraceMetricsErrors, MetricsRejectTruncatedTrace) {
    // Empty and single-sample traces cannot be integrated.
    const sim::batch_trace empty(1);
    EXPECT_THROW(static_cast<void>(sim::compute_metrics(empty.lane(0), 0, "t", "c")),
                 util::precondition_error);

    sim::batch_trace one(1);
    one.append(0, 0.0, row_at(50.0));
    EXPECT_THROW(static_cast<void>(sim::compute_metrics(one.lane(0), 0, "t", "c")),
                 util::precondition_error);
}

TEST(TraceMetricsErrors, ChannelsCannotDriftOutOfStep) {
    // The columnar store appends every channel in one row: there is no
    // way to truncate one channel of a recorded trace, the failure mode
    // the old per-channel layout had to guard against in compute_metrics.
    const sim::batch_trace tr = two_sample_trace();
    for (std::size_t c = 0; c < sim::trace_channel_count; ++c) {
        EXPECT_EQ(tr.lane(0).channel(static_cast<sim::trace_channel>(c)).size(), tr.size(0));
    }
}

TEST(TraceMetricsErrors, NonFiniteSamplesCannotEnterATrace) {
    // The recording layer is the validation boundary: a NaN/inf value in
    // any channel is rejected at append time, so downstream
    // metrics/export never see one — and the row is rejected atomically.
    sim::batch_trace tr(1);
    sim::trace_row bad = row_at(50.0);
    bad[sim::trace_channel::dimm_temp] = std::nan("");
    EXPECT_THROW(tr.append(0, 0.0, bad), util::precondition_error);
    bad[sim::trace_channel::dimm_temp] = std::numeric_limits<double>::infinity();
    EXPECT_THROW(tr.append(0, 0.0, bad), util::precondition_error);
    EXPECT_THROW(tr.append(0, std::nan(""), row_at(50.0)), util::precondition_error);
    EXPECT_EQ(tr.size(0), 0U);
}

TEST(TraceMetricsErrors, BatchTraceValidatesLikeScalar) {
    sim::batch_trace traces(2);
    EXPECT_THROW(traces.append(2, 0.0, row_at(1.0)), util::precondition_error);
    sim::trace_row bad = row_at(1.0);
    bad[sim::trace_channel::fan_power] = std::nan("");
    EXPECT_THROW(traces.append(0, 0.0, bad), util::precondition_error);
    traces.append(0, 0.0, row_at(1.0));
    EXPECT_THROW(traces.append(0, -1.0, row_at(2.0)), util::precondition_error);
    EXPECT_THROW(static_cast<void>(traces.lane(9)), util::precondition_error);
    EXPECT_EQ(traces.size(0), 1U);
    EXPECT_EQ(traces.size(1), 0U);
}

TEST(TraceMetricsErrors, ColumnarCsvRoundTrips) {
    // The exported layout, byte for byte: `time_s` and the 16 channels in
    // enum order, then one line per recorded row.
    const sim::batch_trace tr = two_sample_trace();
    std::ostringstream os;
    sim::write_trace_csv(os, tr.lane(0));
    EXPECT_EQ(os.str(),
              "time_s,target_util,instant_util,cpu0_temp,cpu1_temp,avg_cpu_temp,"
              "max_sensor_temp,dimm_temp,total_power,fan_power,leakage_power,"
              "active_power,avg_fan_rpm,sensor_age,monitor_sensor_health,"
              "monitor_fan_health,monitor_die_estimate\n"
              "0,50,51,52,53,54,55,56,57,58,59,60,61,62,63,64,65\n"
              "10,51,52,53,54,55,56,57,58,59,60,61,62,63,64,65,66\n");
}

TEST(TraceMetricsErrors, LongSeriesExportCoversEveryChannelName) {
    const sim::batch_trace tr = two_sample_trace();
    std::ostringstream os;
    sim::write_trace_csv(os, tr.lane(0));
    const std::string out = os.str();
    for (const std::string& name : channel_names()) {
        EXPECT_NE(out.find(name), std::string::npos) << name;
    }
}

TEST(TraceMetricsErrors, BatchMetricsRejectBadLaneAndEmptyRun) {
    sim::server_batch batch(sim::paper_server(), 2);
    // Lane index out of range.
    EXPECT_THROW(static_cast<void>(sim::compute_metrics(batch, 5, "t", "c")),
                 util::precondition_error);
    // A lane that never stepped has an empty trace.
    EXPECT_THROW(static_cast<void>(sim::compute_metrics(batch, 0, "t", "c")),
                 util::precondition_error);

    // After stepping, lane metrics extract cleanly and agree with the
    // underlying trace overload.
    workload::utilization_profile p("ok");
    p.constant(40.0, 3.0_min);
    batch.bind_workload(1, p);
    batch.advance(3.0_min);
    const auto m = sim::compute_metrics(batch, 1, "ok", "none");
    EXPECT_GT(m.energy_kwh, 0.0);
    EXPECT_EQ(m.duration_s, batch.trace(1).total_power().duration());
}

}  // namespace
