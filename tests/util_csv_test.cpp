// Unit tests for CSV writing and descriptive statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace {

using namespace ltsc::util;

TEST(CsvWriter, HeaderAndRows) {
    std::ostringstream os;
    csv_writer w(os);
    w.write_header({"a", "b"});
    w.write_row({1.0, 2.5});
    EXPECT_EQ(os.str(), "a,b\n1,2.5\n");
    EXPECT_EQ(w.rows_written(), 2U);
}

TEST(CsvWriter, QuotesSpecialCharacters) {
    std::ostringstream os;
    csv_writer w(os);
    w.write_row({std::string("hello, world"), std::string("say \"hi\""), std::string("plain")});
    EXPECT_EQ(os.str(), "\"hello, world\",\"say \"\"hi\"\"\",plain\n");
}

TEST(FormatNumber, RoundTripsTypicalValues) {
    EXPECT_EQ(format_number(0.6695), "0.6695");
    EXPECT_EQ(format_number(3300.0), "3300");
    EXPECT_EQ(format_number(-2.243), "-2.243");
}

TEST(FormatNumber, NonFinite) {
    EXPECT_EQ(format_number(std::numeric_limits<double>::infinity()), "inf");
    EXPECT_EQ(format_number(-std::numeric_limits<double>::infinity()), "-inf");
    EXPECT_EQ(format_number(std::nan("")), "nan");
}

TEST(SeriesCsv, LongFormatExport) {
    time_series ts;
    ts.push_back(0.0, 1.0);
    ts.push_back(10.0, 2.0);
    std::ostringstream os;
    write_series_csv(os, {named_series{"cpu0_temp", "degC", ts}});
    EXPECT_EQ(os.str(), "series,time_s,value,unit\ncpu0_temp,0,1,degC\ncpu0_temp,10,2,degC\n");
}

TEST(Stats, MeanVarianceStddev) {
    const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    EXPECT_DOUBLE_EQ(mean(xs), 5.0);
    EXPECT_NEAR(variance(xs), 4.571428571, 1e-8);
    EXPECT_NEAR(stddev(xs), 2.13809, 1e-4);
}

TEST(Stats, EmptyMeanThrows) { EXPECT_THROW(static_cast<void>(mean({})), precondition_error); }

TEST(Stats, VarianceNeedsTwoSamples) {
    EXPECT_THROW(static_cast<void>(variance({1.0})), precondition_error);
}

TEST(Stats, RmseAndMae) {
    const std::vector<double> a{1.0, 2.0, 3.0};
    const std::vector<double> p{1.0, 2.0, 6.0};
    EXPECT_NEAR(rmse(a, p), std::sqrt(3.0), 1e-12);
    EXPECT_NEAR(mae(a, p), 1.0, 1e-12);
}

TEST(Stats, RSquaredPerfectFit) {
    const std::vector<double> a{1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(r_squared(a, a), 1.0);
}

TEST(Stats, RSquaredMeanPredictorIsZero) {
    const std::vector<double> a{1.0, 2.0, 3.0};
    const std::vector<double> p{2.0, 2.0, 2.0};
    EXPECT_NEAR(r_squared(a, p), 0.0, 1e-12);
}

TEST(Stats, RSquaredConstantActualThrows) {
    EXPECT_THROW(static_cast<void>(r_squared({2.0, 2.0}, {1.0, 3.0})), precondition_error);
}

TEST(Stats, Percentile) {
    std::vector<double> xs{15.0, 20.0, 35.0, 40.0, 50.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 15.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 50.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 35.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 20.0);
}

TEST(Stats, PercentileOutOfRangeThrows) {
    EXPECT_THROW(static_cast<void>(percentile({1.0}, -1.0)), precondition_error);
    EXPECT_THROW(static_cast<void>(percentile({1.0}, 101.0)), precondition_error);
}

TEST(ErrorHierarchy, AllErrorsDeriveFromLtscError) {
    EXPECT_THROW(throw precondition_error("p"), ltsc_error);
    EXPECT_THROW(throw numeric_error("n"), ltsc_error);
    // And all of ltsc is catchable as std::runtime_error at an API boundary.
    EXPECT_THROW(throw precondition_error("p"), std::runtime_error);
    EXPECT_THROW(throw numeric_error("n"), std::runtime_error);
}

TEST(ErrorHierarchy, EnsureHelpers) {
    EXPECT_NO_THROW(ensure(true, "unused"));
    EXPECT_NO_THROW(ensure_numeric(true, "unused"));
    EXPECT_THROW(ensure(false, "bad precondition"), precondition_error);
    EXPECT_THROW(ensure_numeric(false, "diverged"), numeric_error);
    try {
        ensure(false, "bad precondition");
    } catch (const precondition_error& e) {
        EXPECT_STREQ(e.what(), "bad precondition");
    }
}

}  // namespace
