// LoadGen: dynamic load synthesis by PWM duty-cycling.
//
// The paper's LoadGen tool (Section III) achieves any target utilization by
// duty-cycling the CPUs between a maximal-switching stress kernel (100 %)
// and idle.  The PWM period is coarse enough (tens of seconds) that the
// duty cycling is visible as thermal oscillation — the fast 5-8 degC
// transients of Fig. 1(b) — while the *average* utilization matches the
// target.  This class converts a target profile into the instantaneous
// load the plant sees, and emulates the `sar`/`mpstat` utilization
// measurement the controllers poll.
#pragma once

#include <mutex>

#include "util/time_series.hpp"
#include "util/units.hpp"
#include "workload/profile.hpp"

namespace ltsc::workload {

/// Configuration of the load synthesizer.
struct loadgen_config {
    /// Full PWM period of the duty cycle.  The default reproduces the
    /// minute-scale thermal oscillations visible in Fig. 1(b): the busy
    /// window is long enough for the heatsink (not just the die) to ride
    /// up and down with the duty cycle.
    util::seconds_t pwm_period{240.0};
    double stress_intensity = 1.0;  ///< Switching intensity of the busy phase
                                    ///< (1.0 = maximal pipe stuffing).
};

/// Synthesizes instantaneous CPU load from a target utilization profile.
class loadgen {
public:
    /// Binds the generator to a profile.  The profile is copied.
    loadgen(utilization_profile profile, const loadgen_config& config = {});

    // Copy/move transfer the binding, not the sliding count: the count
    // is a per-instance performance detail, and starting it cold keeps
    // the mutex non-copyable problem out of the special members.
    loadgen(const loadgen& other);
    loadgen(loadgen&& other) noexcept;
    loadgen& operator=(const loadgen& other);
    loadgen& operator=(loadgen&& other) noexcept;

    /// Instantaneous utilization in [0, 100] at time `t`: during the busy
    /// fraction of each PWM period the CPUs run the stress kernel at
    /// `stress_intensity`, otherwise they idle.  Targets of exactly 0 or
    /// 100 bypass the PWM.
    [[nodiscard]] double instantaneous_utilization(util::seconds_t t) const;

    /// Target (commanded) utilization at `t` — what `sar` would report as
    /// the average over a window much longer than the PWM period.
    [[nodiscard]] double target_utilization(util::seconds_t t) const;

    /// Utilization as measured by the monitoring utilities: the mean
    /// instantaneous utilization over the window [t - window, t].
    /// Deterministic in (t, window).
    ///
    /// Evaluation is analytic — a count of busy quarter-second duty
    /// slots, not a sweep of the window — and *bitwise equal* to the
    /// reference Riemann sum below: every sample of that sum is either 0
    /// or the stress peak, adding 0.0 is exact, and on the dyadic
    /// quarter-second grid the sample positions, the duty-edge
    /// comparisons, and the accumulated sum are all reproduced exactly
    /// (pinned by the loadgen equivalence suite).  Configurations off
    /// that grid (PWM period < 16 s or a window edge not on a multiple
    /// of 0.25 s) fall back to the reference sum itself.
    ///
    /// The count slides: the loadgen keeps the last window's slot range
    /// and busy count, and a call whose window of the same length moved
    /// forward and still overlaps the last one counts only the slots
    /// that entered and left it.  A controller polling a clock that
    /// advances costs in proportion to how far the window slid (a
    /// repeated instant slides by zero); the first call, a backward
    /// jump, a disjoint window or a new window length counts the window
    /// whole.  Counting visits only the profile segments a slot range
    /// overlaps: constant segments in closed form, ramp slots one by
    /// one.  Thread-safe: the count mutates under `const` behind a
    /// mutex, so a loadgen a caller shares across threads stays exact.
    [[nodiscard]] double measured_utilization(util::seconds_t t, util::seconds_t window) const;

    /// Reference implementation of measured_utilization: the original
    /// sampled Riemann sum over the window.  Public so equivalence
    /// tests can pin the analytic path against it; it neither reads nor
    /// moves the sliding count.
    [[nodiscard]] double measured_utilization_sampled(util::seconds_t t,
                                                      util::seconds_t window) const;

    [[nodiscard]] const utilization_profile& profile() const { return profile_; }
    [[nodiscard]] const loadgen_config& config() const { return config_; }

private:
    /// Analytic fast path: counts busy duty slots (sliding the last
    /// window's count where it can) and reconstructs the reference
    /// sum's exact value.  Returns false (leaving `out` untouched) when
    /// the configuration is off the dyadic grid the exactness argument
    /// needs.
    [[nodiscard]] bool measured_analytic(double t0, double t1, double window,
                                         double& out) const;

    /// Busy slots among quarter-second slot indices [lo, hi): visits
    /// only the profile segments that overlap the range.
    [[nodiscard]] long long busy_slots(long long lo, long long hi) const;

    utilization_profile profile_;
    loadgen_config config_;

    // The last analytic window (see measured_utilization): its length,
    // its slot range [i0, i1) and its busy-slot count, guarded by the
    // mutex because a shared loadgen may be read from many threads.
    mutable std::mutex window_mutex_;
    mutable bool window_valid_ = false;
    mutable double window_s_ = 0.0;
    mutable long long window_i0_ = 0;
    mutable long long window_i1_ = 0;
    mutable long long window_busy_ = 0;
};

}  // namespace ltsc::workload
