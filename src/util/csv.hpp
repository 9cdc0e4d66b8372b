// Minimal CSV writing for trace export and benchmark output.
//
// The benchmark harnesses dump every figure's series as CSV so the plots
// can be regenerated with any plotting tool.  The library writes CSV but
// reads none.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "util/time_series.hpp"

namespace ltsc::util {

/// Streaming CSV writer.  Quotes cells containing separators/quotes per
/// RFC 4180; numeric cells are written by `format_number`.
class csv_writer {
public:
    /// Wraps an output stream; the stream must outlive the writer.
    explicit csv_writer(std::ostream& os);

    /// Writes a header row of column names.
    void write_header(const std::vector<std::string>& columns);

    /// Writes a row of string cells.
    void write_row(const std::vector<std::string>& cells);

    /// Writes a row of numeric cells.
    void write_row(const std::vector<double>& cells);

    /// Number of rows written so far (header included).
    [[nodiscard]] std::size_t rows_written() const { return rows_; }

private:
    std::ostream& os_;
    std::size_t rows_ = 0;
};

/// Writes a set of named series that share no time base as long-format CSV
/// with columns: series, time_s, value, unit.
void write_series_csv(std::ostream& os, const std::vector<named_series>& series);

/// Formats a double with 12 significant digits (`%.12g`: readable, not
/// binary-exact), trimming trailing zeros; non-finite values print as
/// `inf`, `-inf` or `nan`.
[[nodiscard]] std::string format_number(double v);

}  // namespace ltsc::util
