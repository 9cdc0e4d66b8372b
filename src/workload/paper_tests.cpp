#include "workload/paper_tests.hpp"

#include "util/error.hpp"
#include "workload/queueing.hpp"

namespace ltsc::workload {

namespace {

using util::literals::operator""_min;
using util::literals::operator""_s;

constexpr double head_idle_s = 5.0 * 60.0;
constexpr double body_s = 65.0 * 60.0;
constexpr double tail_idle_s = 10.0 * 60.0;

utilization_profile test1_ramp() {
    utilization_profile p("Test-1");
    p.idle(util::seconds_t{head_idle_s});
    // Staircase up to 100 % and back down; the same levels the paper's
    // characterization sweeps use.
    const std::vector<double> levels = {0,  10, 25, 40, 50, 60, 75, 90, 100,
                                        90, 75, 60, 50, 40, 25, 10, 0};
    const double dwell = body_s / static_cast<double>(levels.size());
    for (double level : levels) {
        p.constant(level, util::seconds_t{dwell});
    }
    p.idle(util::seconds_t{tail_idle_s});
    return p;
}

utilization_profile test2_periods() {
    utilization_profile p("Test-2");
    p.idle(util::seconds_t{head_idle_s});
    // High/low alternation with growing periods: 5, 10, 15 minutes, plus a
    // final short 2.5-minute burst pair to fill the 65-minute body.
    const double high = 100.0;
    const double low = 10.0;
    p.constant(high, 5.0_min).constant(low, 5.0_min);
    p.constant(high, 10.0_min).constant(low, 10.0_min);
    p.constant(high, 15.0_min).constant(low, 15.0_min);
    p.constant(high, 2.5_min).constant(low, 2.5_min);
    p.idle(util::seconds_t{tail_idle_s});
    return p;
}

utilization_profile test3_frequent() {
    utilization_profile p("Test-3");
    p.idle(util::seconds_t{head_idle_s});
    // A new level every 5 minutes, alternating low levels with high bursts;
    // back-to-back high segments (85 -> 100, 70 -> 90) heat the sinks long
    // enough to exercise the reactive controllers' threshold crossings, as
    // in Fig. 3 of the paper.
    const std::vector<double> levels = {10, 55, 15, 85, 100, 25, 10, 70, 90, 20, 15, 50, 15};
    for (double level : levels) {
        p.constant(level, 5.0_min);
    }
    p.idle(util::seconds_t{tail_idle_s});
    return p;
}

utilization_profile test4_poisson(std::uint64_t seed) {
    // Shell workload emulation: M/M/64 with 20 s mean service time.
    // Interactive shell activity is bursty, so the Poisson stream is
    // Markov-modulated: calm stretches near 18 % load are interrupted by
    // ~100 s flurries near 95 % load.  The blend lands the full-test
    // average utilization near the paper's implied ~27 % while producing
    // the occasional thermal spikes the reactive controllers must handle.
    mmc_config cfg;
    cfg.servers = 64;
    cfg.service_rate_hz = 1.0 / 20.0;
    cfg.arrival_rate_hz = 0.13 * 64.0 * cfg.service_rate_hz;
    cfg.modulation.enabled = true;
    cfg.modulation.burst_arrival_rate_hz = 64.0 * cfg.service_rate_hz;
    cfg.modulation.mean_calm_dwell_s = 800.0;
    cfg.modulation.mean_burst_dwell_s = 240.0;
    cfg.seed = seed;
    const utilization_profile body =
        mmc_profile("Test-4-body", cfg, util::seconds_t{body_s});

    utilization_profile p("Test-4");
    p.idle(util::seconds_t{head_idle_s});
    const util::time_series samples = body.sampled(util::seconds_t{5.0});
    for (std::size_t i = 0; i + 1 < samples.size(); ++i) {
        const auto& a = samples.at(i);
        const auto& b = samples.at(i + 1);
        p.ramp(a.v, b.v, util::seconds_t{b.t - a.t});
    }
    p.idle(util::seconds_t{tail_idle_s});
    return p;
}

}  // namespace

util::seconds_t paper_test_duration() {
    return util::seconds_t{head_idle_s + body_s + tail_idle_s};
}

utilization_profile make_paper_test(paper_test test, std::uint64_t seed) {
    switch (test) {
        case paper_test::test1_ramp: return test1_ramp();
        case paper_test::test2_periods: return test2_periods();
        case paper_test::test3_frequent: return test3_frequent();
        case paper_test::test4_poisson: return test4_poisson(seed);
    }
    throw util::precondition_error("make_paper_test: unknown test id");
}

std::vector<utilization_profile> all_paper_tests(std::uint64_t seed) {
    return {make_paper_test(paper_test::test1_ramp, seed),
            make_paper_test(paper_test::test2_periods, seed),
            make_paper_test(paper_test::test3_frequent, seed),
            make_paper_test(paper_test::test4_poisson, seed)};
}

const char* paper_test_name(paper_test test) {
    switch (test) {
        case paper_test::test1_ramp: return "Test-1";
        case paper_test::test2_periods: return "Test-2";
        case paper_test::test3_frequent: return "Test-3";
        case paper_test::test4_poisson: return "Test-4";
    }
    return "?";
}

}  // namespace ltsc::workload
