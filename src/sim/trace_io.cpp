#include "sim/trace_io.hpp"

#include <array>
#include <cmath>
#include <ostream>

#include "util/csv.hpp"
#include "util/error.hpp"

namespace ltsc::sim {

namespace {

[[nodiscard]] bool channel_from_name(const std::string& name, trace_channel& out) {
    for (std::size_t c = 0; c < trace_channel_count; ++c) {
        if (name == trace_channel_name(static_cast<trace_channel>(c))) {
            out = static_cast<trace_channel>(c);
            return true;
        }
    }
    return false;
}

[[nodiscard]] double parse_cell(const std::string& cell) {
    std::size_t pos = 0;
    double v = 0.0;
    try {
        v = std::stod(cell, &pos);
    } catch (const std::exception&) {
        throw util::parse_error("read_trace_csv: unparseable number: " + cell);
    }
    // std::stod happily parses "nan"/"inf"; a trace cell holding one is
    // a corrupted dump, which is the reader's (parse_error) domain.
    if (pos != cell.size() || !std::isfinite(v)) {
        throw util::parse_error("read_trace_csv: unparseable number: " + cell);
    }
    return v;
}

/// Appends a parsed row, translating the store's precondition failures
/// (e.g. a non-monotonic time column) into the documented parse_error.
void append_parsed(simulation_trace& out, double t, const trace_row& row) {
    try {
        out.append(t, row);
    } catch (const util::precondition_error& e) {
        throw util::parse_error(std::string("read_trace_csv: ") + e.what());
    }
}

[[nodiscard]] simulation_trace read_columnar(const util::csv_document& doc) {
    if (doc.header.size() != 1 + trace_channel_count) {
        throw util::parse_error("read_trace_csv: columnar header must be time_s + 16 channels");
    }
    std::array<std::size_t, trace_channel_count> column_of{};  // channel -> CSV column
    std::array<bool, trace_channel_count> seen{};
    for (std::size_t j = 1; j < doc.header.size(); ++j) {
        trace_channel c{};
        if (!channel_from_name(doc.header[j], c)) {
            throw util::parse_error("read_trace_csv: unknown channel " + doc.header[j]);
        }
        const auto i = static_cast<std::size_t>(c);
        if (seen[i]) {
            throw util::parse_error("read_trace_csv: duplicate channel " + doc.header[j]);
        }
        seen[i] = true;
        column_of[i] = j;
    }
    simulation_trace out;
    trace_row row;
    for (const auto& cells : doc.rows) {
        const double t = parse_cell(cells[0]);
        for (std::size_t c = 0; c < trace_channel_count; ++c) {
            row.values[c] = parse_cell(cells[column_of[c]]);
        }
        append_parsed(out, t, row);
    }
    return out;
}

}  // namespace

void write_trace_csv(std::ostream& os, const trace_view& trace) {
    util::csv_writer w(os);
    std::vector<std::string> header{"time_s"};
    for (std::size_t c = 0; c < trace_channel_count; ++c) {
        header.push_back(trace_channel_name(static_cast<trace_channel>(c)));
    }
    w.write_header(header);

    const util::column_view time = trace.channel(trace_channel::target_util);
    std::vector<double> row(1 + trace_channel_count);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        row[0] = time.t(i);
        for (std::size_t c = 0; c < trace_channel_count; ++c) {
            row[1 + c] = trace.channel(static_cast<trace_channel>(c)).v(i);
        }
        w.write_row(row);
    }
}

simulation_trace read_trace_csv(const std::string& text) {
    const util::csv_document doc = util::parse_csv(text);
    util::ensure_rectangular(doc);
    if (doc.header.empty()) {
        throw util::parse_error("read_trace_csv: empty document");
    }
    if (doc.header.front() == "time_s") {
        return read_columnar(doc);
    }
    throw util::parse_error("read_trace_csv: unrecognized trace layout");
}

void write_trace_csv_wide(std::ostream& os, const trace_view& trace, double sample_period_s) {
    util::ensure(sample_period_s > 0.0, "write_trace_csv_wide: non-positive period");
    util::ensure(!trace.empty(), "write_trace_csv_wide: empty trace");

    util::csv_writer w(os);
    std::vector<std::string> header{"time_s"};
    for (std::size_t c = 0; c < trace_channel_count; ++c) {
        header.push_back(trace_channel_name(static_cast<trace_channel>(c)));
    }
    w.write_header(header);

    const util::column_view power = trace.total_power();
    const double t0 = power.front().t;
    const double t1 = power.back().t;
    for (double t = t0; t <= t1 + 1e-9; t += sample_period_s) {
        std::vector<double> row{t};
        for (std::size_t c = 0; c < trace_channel_count; ++c) {
            row.push_back(trace.channel(static_cast<trace_channel>(c)).value_at(t));
        }
        w.write_row(row);
    }
}

}  // namespace ltsc::sim
