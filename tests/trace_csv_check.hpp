// Shared check of the columnar trace CSV that sim::write_trace_csv
// writes.  The library reads no CSV back, so tests pin the written text.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>

#include "sim/batch_trace.hpp"
#include "util/csv.hpp"

namespace ltsc::test {

/// Expects `csv` to be exactly the columnar dump of `trace`: the header
/// `time_s` plus the 16 channel names in enum order, then one line per
/// recorded row whose cells are `format_number` of the stored time and
/// channel values.
inline void expect_columnar_trace_csv(const std::string& csv, const sim::trace_view& trace) {
    std::istringstream lines(csv);
    std::string line;
    std::string expected = "time_s";
    for (std::size_t c = 0; c < sim::trace_channel_count; ++c) {
        const auto ch = static_cast<sim::trace_channel>(c);
        expected += std::string(",") + sim::trace_channel_name(ch);
    }
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, expected);

    const util::column_view time = trace.channel(sim::trace_channel::target_util);
    std::size_t rows = 0;
    for (; std::getline(lines, line); ++rows) {
        ASSERT_LT(rows, trace.size()) << "more lines than recorded rows";
        expected = util::format_number(time.t(rows));
        for (std::size_t c = 0; c < sim::trace_channel_count; ++c) {
            const util::column_view ch = trace.channel(static_cast<sim::trace_channel>(c));
            expected += "," + util::format_number(ch.v(rows));
        }
        EXPECT_EQ(line, expected) << "row " << rows;
    }
    EXPECT_EQ(rows, trace.size());
}

}  // namespace ltsc::test
