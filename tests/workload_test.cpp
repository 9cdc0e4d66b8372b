// Unit tests for utilization profiles, LoadGen PWM synthesis and the
// paper's four test profiles.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/loadgen.hpp"
#include "workload/paper_tests.hpp"
#include "workload/profile.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;
using workload::loadgen;
using workload::loadgen_config;
using workload::utilization_profile;

TEST(Profile, EmptyIsAlwaysIdle) {
    const utilization_profile p("empty");
    EXPECT_DOUBLE_EQ(p.utilization_at(0_s), 0.0);
    EXPECT_DOUBLE_EQ(p.duration().value(), 0.0);
}

TEST(Profile, ConstantSegments) {
    utilization_profile p("steps");
    p.constant(30.0, 10_s).constant(70.0, 10_s);
    EXPECT_DOUBLE_EQ(p.utilization_at(5_s), 30.0);
    EXPECT_DOUBLE_EQ(p.utilization_at(15_s), 70.0);
    EXPECT_DOUBLE_EQ(p.duration().value(), 20.0);
}

TEST(Profile, IdleOutsideSpan) {
    utilization_profile p("x");
    p.constant(50.0, 10_s);
    EXPECT_DOUBLE_EQ(p.utilization_at(util::seconds_t{-1.0}), 0.0);
    EXPECT_DOUBLE_EQ(p.utilization_at(10_s), 0.0);  // end-exclusive
    EXPECT_DOUBLE_EQ(p.utilization_at(11_s), 0.0);
}

TEST(Profile, RampInterpolatesLinearly) {
    utilization_profile p("ramp");
    p.ramp(0.0, 100.0, 100_s);
    EXPECT_DOUBLE_EQ(p.utilization_at(0_s), 0.0);
    EXPECT_DOUBLE_EQ(p.utilization_at(50_s), 50.0);
    EXPECT_DOUBLE_EQ(p.utilization_at(99_s), 99.0);
}

TEST(Profile, SquareWave) {
    utilization_profile p("sq");
    p.square(90.0, 10.0, 5_s, 2);
    EXPECT_DOUBLE_EQ(p.utilization_at(2_s), 90.0);
    EXPECT_DOUBLE_EQ(p.utilization_at(7_s), 10.0);
    EXPECT_DOUBLE_EQ(p.utilization_at(12_s), 90.0);
    EXPECT_DOUBLE_EQ(p.duration().value(), 20.0);
    EXPECT_EQ(p.segment_count(), 4U);
}

TEST(Profile, AverageUtilization) {
    utilization_profile p("avg");
    p.constant(100.0, 10_s).constant(0.0, 10_s).ramp(0.0, 100.0, 20_s);
    EXPECT_NEAR(p.average_utilization(), (1000.0 + 0.0 + 1000.0) / 40.0, 1e-9);
}

TEST(Profile, RejectsOutOfRangeUtilization) {
    utilization_profile p("bad");
    EXPECT_THROW(p.constant(120.0, 10_s), util::precondition_error);
    EXPECT_THROW(p.constant(-5.0, 10_s), util::precondition_error);
    EXPECT_THROW(p.constant(50.0, 0_s), util::precondition_error);
}

TEST(Profile, SampledGridMatchesProfile) {
    utilization_profile p("s");
    p.ramp(0.0, 100.0, 10_s);
    const auto ts = p.sampled(1_s);
    EXPECT_EQ(ts.size(), 11U);
    EXPECT_DOUBLE_EQ(ts.at(5).v, 50.0);
}

TEST(Profile, FromTraceRoundTrips) {
    util::time_series trace;
    trace.push_back(0.0, 20.0);
    trace.push_back(10.0, 80.0);
    trace.push_back(20.0, 40.0);
    const auto p = workload::profile_from_trace("replay", trace);
    EXPECT_NEAR(p.utilization_at(5_s), 50.0, 1e-9);
    EXPECT_NEAR(p.utilization_at(15_s), 60.0, 1e-9);
}

// --- LoadGen -------------------------------------------------------------

TEST(LoadGen, FullLoadBypassesPwm) {
    utilization_profile p("full");
    p.constant(100.0, 1000_s);
    const loadgen lg(p);
    for (double t = 0.0; t < 1000.0; t += 37.0) {
        EXPECT_DOUBLE_EQ(lg.instantaneous_utilization(util::seconds_t{t}), 100.0);
    }
}

TEST(LoadGen, IdleBypassesPwm) {
    utilization_profile p("idle");
    p.idle(1000_s);
    const loadgen lg(p);
    EXPECT_DOUBLE_EQ(lg.instantaneous_utilization(100_s), 0.0);
}

TEST(LoadGen, PwmDutyCycleMatchesTarget) {
    utilization_profile p("duty");
    p.constant(40.0, 10000_s);
    loadgen_config cfg;
    cfg.pwm_period = 100_s;
    const loadgen lg(p, cfg);
    // First 40 s of each period busy, rest idle.
    EXPECT_DOUBLE_EQ(lg.instantaneous_utilization(10_s), 100.0);
    EXPECT_DOUBLE_EQ(lg.instantaneous_utilization(39_s), 100.0);
    EXPECT_DOUBLE_EQ(lg.instantaneous_utilization(41_s), 0.0);
    EXPECT_DOUBLE_EQ(lg.instantaneous_utilization(139_s), 100.0);
}

TEST(LoadGen, TimeAverageEqualsTarget) {
    utilization_profile p("avg");
    p.constant(37.0, 100000_s);
    loadgen_config cfg;
    cfg.pwm_period = 100_s;
    const loadgen lg(p, cfg);
    double acc = 0.0;
    int n = 0;
    for (double t = 0.0; t < 10000.0; t += 0.5) {
        acc += lg.instantaneous_utilization(util::seconds_t{t});
        ++n;
    }
    EXPECT_NEAR(acc / n, 37.0, 1.0);
}

TEST(LoadGen, MeasuredUtilizationOverFullPeriodIsTarget) {
    utilization_profile p("m");
    p.constant(60.0, 100000_s);
    loadgen_config cfg;
    cfg.pwm_period = 240_s;
    const loadgen lg(p, cfg);
    EXPECT_NEAR(lg.measured_utilization(util::seconds_t{2400.0}, 240_s), 60.0, 2.0);
}

TEST(LoadGen, MeasuredUtilizationShortWindowSeesPwmPhase) {
    utilization_profile p("m2");
    p.constant(50.0, 100000_s);
    loadgen_config cfg;
    cfg.pwm_period = 240_s;
    const loadgen lg(p, cfg);
    // 10 s window inside the busy half of a period reads ~100.
    EXPECT_NEAR(lg.measured_utilization(util::seconds_t{240.0 + 60.0}, 10_s), 100.0, 1e-9);
    // 10 s window inside the idle half reads ~0.
    EXPECT_NEAR(lg.measured_utilization(util::seconds_t{240.0 + 200.0}, 10_s), 0.0, 1e-9);
}

TEST(LoadGen, StressIntensityCapsPeak) {
    utilization_profile p("cap");
    p.constant(90.0, 1000_s);
    loadgen_config cfg;
    cfg.stress_intensity = 0.8;
    const loadgen lg(p, cfg);
    for (double t = 0.0; t < 1000.0; t += 13.0) {
        EXPECT_LE(lg.instantaneous_utilization(util::seconds_t{t}), 80.0 + 1e-12);
    }
}

TEST(LoadGen, TargetUtilizationTracksProfile) {
    utilization_profile p("t");
    p.ramp(0.0, 100.0, 100_s);
    const loadgen lg(p);
    EXPECT_DOUBLE_EQ(lg.target_utilization(50_s), 50.0);
}

TEST(LoadGen, BadConfigThrows) {
    utilization_profile p("b");
    p.constant(10.0, 10_s);
    loadgen_config cfg;
    cfg.pwm_period = 0_s;
    EXPECT_THROW(loadgen(p, cfg), util::precondition_error);
    cfg.pwm_period = 60_s;
    cfg.stress_intensity = 0.0;
    EXPECT_THROW(loadgen(p, cfg), util::precondition_error);
}

/// The loadgen configurations the equivalence suites sweep: each takes
/// a different branch of the analytic count or its fallback.
std::vector<workload::loadgen_config> equivalence_configs() {
    std::vector<workload::loadgen_config> configs;
    configs.push_back({});  // stock: 240 s period, intensity 1
    configs.push_back({util::seconds_t{180.5}, 1.0});   // dyadic off-round period
    configs.push_back({util::seconds_t{240.0}, 0.97});  // peak with a long significand
    configs.push_back({util::seconds_t{17.3}, 1.0});    // off-grid period: slot sampling
    configs.push_back({util::seconds_t{10.0}, 1.0});    // step < 0.25 s: sampled fallback
    return configs;
}

/// Constant, ramp, square and off-grid segment layouts.
std::vector<workload::utilization_profile> equivalence_profiles() {
    std::vector<workload::utilization_profile> profiles;
    profiles.push_back(workload::utilization_profile("const").constant(35.0, 20.0_min));
    profiles.push_back(workload::utilization_profile("mix")
                           .idle(2.0_min)
                           .constant(72.5, 6.0_min)
                           .ramp(72.5, 15.0, 7.0_min)
                           .constant(100.0, 3.0_min)
                           .constant(15.0, 4.0_min));
    profiles.push_back(workload::utilization_profile("square").square(80.0, 20.0, 90.0_s, 5));
    {
        // Irrational-ish segment boundaries: exercises slot clipping.
        workload::utilization_profile p("odd");
        p.constant(41.7, util::seconds_t{333.33}).constant(63.9, util::seconds_t{777.77});
        profiles.push_back(p);
    }
    return profiles;
}

// The analytic measured_utilization at random instants (each a whole-
// window count) against the retained sampled reference.
TEST(LoadGen, AnalyticMeasuredUtilizationMatchesSampledBitwise) {
    util::pcg32 rng(0xfeedbeef, 9);
    for (const auto& lc : equivalence_configs()) {
        for (const auto& profile : equivalence_profiles()) {
            const workload::loadgen gen(profile, lc);
            const double dur = profile.duration().value();
            for (int i = 0; i < 40; ++i) {
                // Integer-second instants (the runtime's cadence) plus a
                // few off-grid stragglers that must take the fallback.
                double t = std::floor(static_cast<double>(rng.next_u32() % 2000000) /
                                      1000000.0 * dur);
                double window = (i % 3 == 0) ? 240.0 : 30.0 + (rng.next_u32() % 400);
                if (i % 7 == 0) {
                    t += 0.125;  // still on no quarter grid after -window
                    window = 33.7;
                }
                if (t <= 0.0) {
                    t = 1.0;
                }
                const double analytic =
                    gen.measured_utilization(util::seconds_t{t}, util::seconds_t{window});
                const double sampled =
                    gen.measured_utilization_sampled(util::seconds_t{t}, util::seconds_t{window});
                ASSERT_EQ(analytic, sampled)
                    << "period=" << lc.pwm_period.value() << " intensity=" << lc.stress_intensity
                    << " profile=" << profile.name() << " t=" << t << " window=" << window;
            }
        }
    }
}

/// One call of a sequence: the instant and the window asked.
struct measured_call {
    double t = 0.0;
    double window = 0.0;
};

/// Call sequences a controller (or a caller sharing a loadgen) makes:
/// the sliding count must match the reference on every call of each,
/// whatever the last window was.  `end` is the profile duration.
std::vector<std::pair<const char*, std::vector<measured_call>>> measured_sequences(double end) {
    std::vector<std::pair<const char*, std::vector<measured_call>>> seqs;
    // Closed-loop polling, three asks per instant (system and per-socket
    // views), from the first poll (window clipped at t = 0) to past the
    // profile end.
    for (const double cadence : {10.0, 30.0, 60.0}) {
        std::vector<measured_call> calls;
        for (double t = cadence; t <= end + 300.0; t += cadence) {
            for (int k = 0; k < 3; ++k) {
                calls.push_back({t, 240.0});
            }
        }
        seqs.emplace_back(cadence == 10.0 ? "poll10" : cadence == 30.0 ? "poll30" : "poll60",
                          calls);
    }
    {
        // Two window lengths asked alternately at each instant.
        std::vector<measured_call> calls;
        for (double t = 10.0; t <= end + 60.0; t += 10.0) {
            calls.push_back({t, 240.0});
            calls.push_back({t, 30.0});
        }
        seqs.emplace_back("alternate", calls);
    }
    {
        // Forward polling with backward jumps: a far one (a disjoint
        // window), a near one (an overlapping window that moved back),
        // and one back into the clipped head.
        std::vector<measured_call> calls;
        const double mid = std::floor(end / 2.0);
        for (double t = 10.0; t <= mid; t += 10.0) {
            calls.push_back({t, 240.0});
        }
        for (const double back : {mid - 600.0, mid - 605.0, 100.0}) {
            for (double t = std::max(1.0, back); t <= std::max(1.0, back) + 200.0; t += 10.0) {
                calls.push_back({t, 240.0});
            }
        }
        seqs.emplace_back("backward", calls);
    }
    {
        // Slides of every size, including sub-slot (quarter-second
        // instants) and ones longer than the window.
        std::vector<measured_call> calls;
        double t = 0.25;
        for (int i = 0; t <= end + 300.0; ++i) {
            calls.push_back({t, 240.0});
            t += 0.25 * static_cast<double>(1 + (i * 37) % 1100);
        }
        seqs.emplace_back("uneven", calls);
    }
    return seqs;
}

// The sliding count against the sampled reference along call sequences
// (the random instants above each count a window whole).
TEST(LoadGen, SlidingMeasuredUtilizationMatchesSampledBitwise) {
    std::vector<workload::utilization_profile> profiles = equivalence_profiles();
    for (const auto& p : workload::all_paper_tests()) {
        profiles.push_back(p);
    }
    // Test-4 at three seeds: all_paper_tests' default and two more.
    for (const std::uint64_t seed : {1ULL, 2ULL}) {
        profiles.push_back(workload::make_paper_test(workload::paper_test::test4_poisson, seed));
    }
    // The fault-campaign sweep's 30/90 % square wave (150 s halves).
    profiles.push_back(workload::utilization_profile("FaultSweep").square(90.0, 30.0, 150.0_s, 3));

    for (const auto& lc : equivalence_configs()) {
        for (const auto& profile : profiles) {
            // Reference values, shared by the sequences that ask the
            // same (t, window).
            const workload::loadgen reference(profile, lc);
            std::map<std::pair<double, double>, double> sampled;
            for (const auto& [name, calls] : measured_sequences(profile.duration().value())) {
                const workload::loadgen gen(profile, lc);
                for (const measured_call& c : calls) {
                    const util::seconds_t t{c.t};
                    const util::seconds_t window{c.window};
                    const auto [it, fresh] = sampled.try_emplace({c.t, c.window}, 0.0);
                    if (fresh) {
                        it->second = reference.measured_utilization_sampled(t, window);
                    }
                    ASSERT_EQ(gen.measured_utilization(t, window), it->second)
                        << "period=" << lc.pwm_period.value()
                        << " intensity=" << lc.stress_intensity << " profile=" << profile.name()
                        << " sequence=" << name << " t=" << c.t << " window=" << c.window;
                }
            }
        }
    }
}

// Copies and assignments carry the profile, not the last window's count:
// a loadgen assigned a new profile must count it afresh.
TEST(LoadGen, AssignedLoadgenCountsItsNewProfile) {
    const workload::utilization_profile busy =
        workload::utilization_profile("busy").constant(90.0, 60.0_min);
    const workload::utilization_profile light =
        workload::utilization_profile("light").constant(10.0, 60.0_min);
    const loadgen reference(light);
    const util::seconds_t window = 240_s;

    loadgen copied(busy);
    loadgen moved(busy);
    static_cast<void>(copied.measured_utilization(1000_s, window));
    static_cast<void>(moved.measured_utilization(1000_s, window));
    const loadgen source(light);
    static_cast<void>(source.measured_utilization(900_s, window));
    copied = source;
    moved = loadgen(light);
    const loadgen constructed(source);
    for (const util::seconds_t t : {1000_s, 1010_s, 1300_s}) {
        const double expected = reference.measured_utilization_sampled(t, window);
        EXPECT_EQ(copied.measured_utilization(t, window), expected) << t.value();
        EXPECT_EQ(moved.measured_utilization(t, window), expected) << t.value();
        EXPECT_EQ(constructed.measured_utilization(t, window), expected) << t.value();
    }
}

// --- paper tests -----------------------------------------------------------

TEST(PaperTests, AllAre80Minutes) {
    for (const auto& p : workload::all_paper_tests()) {
        EXPECT_NEAR(p.duration().value(), 80.0 * 60.0, 6.0) << p.name();
    }
}

TEST(PaperTests, HeadAndTailAreIdle) {
    for (const auto& p : workload::all_paper_tests()) {
        EXPECT_DOUBLE_EQ(p.utilization_at(2.0_min), 0.0) << p.name();
        EXPECT_DOUBLE_EQ(p.utilization_at(75.0_min), 0.0) << p.name();
    }
}

TEST(PaperTests, Test1RampReaches100AndReturns) {
    const auto p = workload::make_paper_test(workload::paper_test::test1_ramp);
    double peak = 0.0;
    for (double t = 0.0; t < p.duration().value(); t += 10.0) {
        peak = std::max(peak, p.utilization_at(util::seconds_t{t}));
    }
    EXPECT_DOUBLE_EQ(peak, 100.0);
    // Symmetric staircase about the 100 % apex (t = 37.5 min): mirrored
    // instants see the same level.
    const double apex_s = 37.5 * 60.0;
    const double probe_s = 20.0 * 60.0;
    EXPECT_NEAR(p.utilization_at(util::seconds_t{probe_s}),
                p.utilization_at(util::seconds_t{2.0 * apex_s - probe_s}), 1.0);
}

TEST(PaperTests, Test2AlternatesHighLow) {
    const auto p = workload::make_paper_test(workload::paper_test::test2_periods);
    EXPECT_DOUBLE_EQ(p.utilization_at(7.0_min), 100.0);   // first 5-min high
    EXPECT_DOUBLE_EQ(p.utilization_at(12.0_min), 10.0);   // first 5-min low
    EXPECT_DOUBLE_EQ(p.utilization_at(20.0_min), 100.0);  // 10-min high
}

TEST(PaperTests, Test3ChangesEvery5Minutes) {
    const auto p = workload::make_paper_test(workload::paper_test::test3_frequent);
    // Within segments constant, across 5-min boundaries changing.
    const double a = p.utilization_at(6.0_min);
    const double b = p.utilization_at(9.0_min);
    const double c = p.utilization_at(11.0_min);
    EXPECT_DOUBLE_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(PaperTests, Test4IsDeterministicPerSeed) {
    const auto a = workload::make_paper_test(workload::paper_test::test4_poisson, 123);
    const auto b = workload::make_paper_test(workload::paper_test::test4_poisson, 123);
    const auto c = workload::make_paper_test(workload::paper_test::test4_poisson, 456);
    double max_diff_ab = 0.0;
    double max_diff_ac = 0.0;
    for (double t = 0.0; t < a.duration().value(); t += 30.0) {
        const util::seconds_t ts{t};
        max_diff_ab = std::max(max_diff_ab, std::fabs(a.utilization_at(ts) - b.utilization_at(ts)));
        max_diff_ac = std::max(max_diff_ac, std::fabs(a.utilization_at(ts) - c.utilization_at(ts)));
    }
    EXPECT_DOUBLE_EQ(max_diff_ab, 0.0);
    EXPECT_GT(max_diff_ac, 5.0);
}

TEST(PaperTests, AverageUtilizationInPlausibleBand) {
    // The averages implied by Table I's energies: roughly 25-45 %.
    for (const auto& p : workload::all_paper_tests()) {
        EXPECT_GT(p.average_utilization(), 20.0) << p.name();
        EXPECT_LT(p.average_utilization(), 50.0) << p.name();
    }
}

TEST(PaperTests, NamesAreStable) {
    EXPECT_STREQ(workload::paper_test_name(workload::paper_test::test1_ramp), "Test-1");
    EXPECT_STREQ(workload::paper_test_name(workload::paper_test::test4_poisson), "Test-4");
}

}  // namespace
