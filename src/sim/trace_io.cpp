#include "sim/trace_io.hpp"

#include <ostream>

#include "util/csv.hpp"

namespace ltsc::sim {

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

}  // namespace ltsc::sim
