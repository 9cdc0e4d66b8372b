#include "util/csv.hpp"

#include <cmath>
#include <cstdio>

namespace ltsc::util {

namespace {

bool needs_quoting(const std::string& cell) {
    return cell.find_first_of(",\"\n\r") != std::string::npos;
}

std::string quote(const std::string& cell) {
    std::string out = "\"";
    for (char c : cell) {
        if (c == '"') {
            out += "\"\"";
        } else {
            out += c;
        }
    }
    out += '"';
    return out;
}

}  // namespace

std::string format_number(double v) {
    if (!std::isfinite(v)) {
        return v > 0 ? "inf" : (v < 0 ? "-inf" : "nan");
    }
    char buf[64];
    // %.12g round-trips the values this library produces while staying
    // readable; exact binary round-trip is not required for trace export.
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

csv_writer::csv_writer(std::ostream& os) : os_(os) {}

void csv_writer::write_header(const std::vector<std::string>& columns) { write_row(columns); }

void csv_writer::write_row(const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i > 0) {
            os_ << ',';
        }
        os_ << (needs_quoting(cells[i]) ? quote(cells[i]) : cells[i]);
    }
    os_ << '\n';
    ++rows_;
}

void csv_writer::write_row(const std::vector<double>& cells) {
    std::vector<std::string> formatted;
    formatted.reserve(cells.size());
    for (double v : cells) {
        formatted.push_back(format_number(v));
    }
    write_row(formatted);
}

void write_series_csv(std::ostream& os, const std::vector<named_series>& series) {
    csv_writer w(os);
    w.write_header({"series", "time_s", "value", "unit"});
    for (const named_series& s : series) {
        for (const sample& smp : s.data.samples()) {
            w.write_row({s.name, format_number(smp.t), format_number(smp.v), s.unit});
        }
    }
}

}  // namespace ltsc::util
