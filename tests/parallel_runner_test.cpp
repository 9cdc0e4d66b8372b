// parallel_runner environment parsing and the loadgen's thread safety.
//
// threads_from_env: LTSC_THREADS must parse as a complete non-negative
// integer — strtol's silent acceptance of trailing garbage ("4x" -> 4)
// and its saturating overflow both previously leaked through as thread
// counts.  Malformed values fall back to hardware concurrency (0).
//
// LoadgenRace: guards a loadgen that a caller shares across threads.
// Its measured_utilization keeps the last window's busy-slot count and
// mutates it under `const`, so concurrent calls at non-monotone
// instants drive the count's recount path behind its mutex.  (Lanes
// each own a copy, and rollout evaluation reads only the instantaneous
// utilization, so the library itself shares none.)  Under
// ThreadSanitizer (LTSC_SANITIZE=thread) an unguarded count reports a
// data race here.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "sim/parallel_runner.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"
#include "workload/loadgen.hpp"
#include "workload/profile.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

class ThreadsFromEnv : public ::testing::Test {
protected:
    void SetUp() override {
        const char* old = std::getenv("LTSC_THREADS");
        had_old_ = old != nullptr;
        if (had_old_) {
            old_ = old;
        }
    }
    void TearDown() override {
        if (had_old_) {
            setenv("LTSC_THREADS", old_.c_str(), 1);
        } else {
            unsetenv("LTSC_THREADS");
        }
    }
    static std::size_t with(const char* value) {
        setenv("LTSC_THREADS", value, 1);
        return sim::parallel_runner::threads_from_env();
    }

private:
    bool had_old_ = false;
    std::string old_;
};

TEST_F(ThreadsFromEnv, ParsesCompleteIntegers) {
    unsetenv("LTSC_THREADS");
    EXPECT_EQ(sim::parallel_runner::threads_from_env(), 0U);
    EXPECT_EQ(with("0"), 0U);
    EXPECT_EQ(with("1"), 1U);
    EXPECT_EQ(with("16"), 16U);
    EXPECT_EQ(with("  8"), 8U);  // strtol skips leading whitespace
}

TEST_F(ThreadsFromEnv, RejectsMalformedValuesToHardwareDefault) {
    EXPECT_EQ(with(""), 0U);
    EXPECT_EQ(with("4x"), 0U);          // trailing garbage, not 4
    EXPECT_EQ(with("4 "), 0U);          // trailing space counts too
    EXPECT_EQ(with("threads"), 0U);     // no digits at all
    EXPECT_EQ(with("-2"), 0U);          // negative
    EXPECT_EQ(with("1e3"), 0U);         // not integer syntax
    EXPECT_EQ(with("99999999999999999999"), 0U);  // ERANGE overflow
    EXPECT_EQ(with("5000"), 0U);        // over the sanity cap
}

TEST(LoadgenRace, SharedMemoCacheIsThreadSafeAndExact) {
    // One shared loadgen, many threads asking measured_utilization at a
    // mix of repeated and fresh instants, concurrently.
    workload::utilization_profile p("race");
    p.constant(40.0, 600_s).ramp(40.0, 95.0, 600_s).constant(95.0, 600_s);
    const workload::loadgen shared(p);

    // Serial ground truth via a private twin (same profile, own cache).
    const workload::loadgen twin(p);
    const auto instant = [](std::size_t i) {
        return util::seconds_t{250.0 + 7.0 * static_cast<double>(i % 13)};
    };
    std::vector<double> expected(13);
    for (std::size_t i = 0; i < expected.size(); ++i) {
        expected[i] = twin.measured_utilization(instant(i), 240_s);
    }

    constexpr std::size_t k_jobs = 256;
    std::vector<double> got(k_jobs, -1.0);
    util::thread_pool pool(8);
    pool.run_indexed(k_jobs, [&](std::size_t i) {
        got[i] = shared.measured_utilization(instant(i), 240_s);
    });
    for (std::size_t i = 0; i < k_jobs; ++i) {
        EXPECT_EQ(got[i], expected[i % 13]) << "job " << i;
    }
}

TEST(LoadgenRace, CopyAndAssignmentStartTheMemoCold) {
    workload::utilization_profile p("copy");
    p.constant(50.0, 600_s);
    workload::loadgen a(p);
    // Warm a's cache, then copy: the copy must produce the same values
    // from a cold cache (the memo is per-instance state, not data).
    const double warm = a.measured_utilization(300_s, 240_s);
    const workload::loadgen b(a);
    EXPECT_EQ(b.measured_utilization(300_s, 240_s), warm);
    workload::utilization_profile q("other");
    q.constant(90.0, 600_s);
    workload::loadgen c(q);
    c = a;
    EXPECT_EQ(c.measured_utilization(300_s, 240_s), warm);
}

}  // namespace
