// Error-path coverage for trace export/import (sim/trace_io) and
// metrics extraction (sim/metrics): truncated and non-finite traces,
// malformed CSV dumps, empty batches, and mismatched lane counts.  The
// happy paths are exercised all over the suite; these are the edges a
// fleet harness hits when a run is interrupted, a dump is corrupted, or
// a lane index is wrong.
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

sim::simulation_trace two_sample_trace() {
    sim::simulation_trace tr;
    tr.append(0.0, row_at(50.0));
    tr.append(10.0, row_at(51.0));
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

/// A columnar CSV header: time_s followed by `names`.
std::string header_of(const std::vector<std::string>& names) {
    std::string out = "time_s";
    for (const std::string& n : names) {
        out += "," + n;
    }
    return out + "\n";
}

/// A columnar CSV row at time `t`: every channel holds 1 except the last,
/// which holds `last_cell` verbatim.
std::string row_of(double t, const std::string& last_cell) {
    std::string out = std::to_string(t);
    for (std::size_t c = 0; c + 1 < sim::trace_channel_count; ++c) {
        out += ",1";
    }
    return out + "," + last_cell + "\n";
}

/// Expects read_trace_csv to throw a parse_error whose message names
/// `reason`.
void expect_parse_error(const std::string& text, const std::string& reason) {
    try {
        static_cast<void>(sim::read_trace_csv(text));
        ADD_FAILURE() << "no parse_error; expected: " << reason;
    } catch (const util::parse_error& e) {
        EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
            << "got: " << e.what() << "; expected: " << reason;
    }
}

TEST(TraceMetricsErrors, MetricsRejectTruncatedTrace) {
    // Empty and single-sample traces cannot be integrated.
    sim::simulation_trace empty;
    EXPECT_THROW(static_cast<void>(sim::compute_metrics(empty, 0, "t", "c")),
                 util::precondition_error);

    sim::simulation_trace one;
    one.append(0.0, row_at(50.0));
    EXPECT_THROW(static_cast<void>(sim::compute_metrics(one, 0, "t", "c")),
                 util::precondition_error);
}

TEST(TraceMetricsErrors, ChannelsCannotDriftOutOfStep) {
    // The columnar store appends every channel in one row: there is no
    // way to truncate one channel of a recorded trace, the failure mode
    // the old per-channel layout had to guard against in compute_metrics.
    const sim::simulation_trace tr = two_sample_trace();
    for (std::size_t c = 0; c < sim::trace_channel_count; ++c) {
        EXPECT_EQ(tr.channel(static_cast<sim::trace_channel>(c)).size(), tr.size());
    }
}

TEST(TraceMetricsErrors, NonFiniteSamplesCannotEnterATrace) {
    // The recording layer is the validation boundary: a NaN/inf value in
    // any channel is rejected at append time, so downstream
    // metrics/export never see one — and the row is rejected atomically.
    sim::simulation_trace tr;
    sim::trace_row bad = row_at(50.0);
    bad[sim::trace_channel::dimm_temp] = std::nan("");
    EXPECT_THROW(tr.append(0.0, bad), util::precondition_error);
    bad[sim::trace_channel::dimm_temp] = std::numeric_limits<double>::infinity();
    EXPECT_THROW(tr.append(0.0, bad), util::precondition_error);
    EXPECT_THROW(tr.append(std::nan(""), row_at(50.0)), util::precondition_error);
    EXPECT_TRUE(tr.empty());
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

TEST(TraceMetricsErrors, WideCsvRejectsEmptyTraceAndBadPeriod) {
    std::ostringstream os;
    sim::simulation_trace empty;
    EXPECT_THROW(sim::write_trace_csv_wide(os, empty), util::precondition_error);

    const sim::simulation_trace tr = two_sample_trace();
    EXPECT_THROW(sim::write_trace_csv_wide(os, tr, 0.0), util::precondition_error);
    EXPECT_THROW(sim::write_trace_csv_wide(os, tr, -5.0), util::precondition_error);
}

TEST(TraceMetricsErrors, ColumnarCsvRoundTrips) {
    const sim::simulation_trace tr = two_sample_trace();
    std::ostringstream os;
    sim::write_trace_csv(os, tr);
    const sim::simulation_trace back = sim::read_trace_csv(os.str());
    ASSERT_EQ(back.size(), tr.size());
    for (std::size_t c = 0; c < sim::trace_channel_count; ++c) {
        const auto ch = static_cast<sim::trace_channel>(c);
        for (std::size_t i = 0; i < tr.size(); ++i) {
            EXPECT_EQ(back.channel(ch).t(i), tr.channel(ch).t(i));
            EXPECT_EQ(back.channel(ch).v(i), tr.channel(ch).v(i));
        }
    }
}

TEST(TraceMetricsErrors, ReaderRejectsDuplicateChannels) {
    // Columnar layout: a channel name repeated in the header.
    std::vector<std::string> names = channel_names();
    names.back() = names.front();
    expect_parse_error(header_of(names), "duplicate channel");
}

TEST(TraceMetricsErrors, ReaderRejectsMalformedDumps) {
    // Unknown channel name.
    std::vector<std::string> names = channel_names();
    names[3] = "mystery_channel";
    expect_parse_error(header_of(names), "unknown channel");
    // Unrecognized layout entirely, including the retired long format.
    expect_parse_error("a,b,c\n1,2,3\n", "unrecognized trace layout");
    expect_parse_error("series,time_s,value,unit\ntarget_util,0,1,pct\n",
                       "unrecognized trace layout");
    // Unparseable, non-finite, and non-monotonic cells all surface as
    // parse_error (the documented corrupted-dump exception), never as
    // the store's precondition_error.
    const std::string header = header_of(channel_names());
    expect_parse_error(header + row_of(0.0, "oops"), "unparseable number");
    expect_parse_error(header + row_of(0.0, "nan"), "unparseable number");
    expect_parse_error(header + row_of(10.0, "1") + row_of(0.0, "1"), "non-monotonic");
}

TEST(TraceMetricsErrors, LongSeriesExportCoversEveryChannelName) {
    const sim::simulation_trace tr = two_sample_trace();
    std::ostringstream os;
    sim::write_trace_csv(os, tr);
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
