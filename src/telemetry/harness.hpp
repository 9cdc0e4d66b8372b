// Continuous System Telemetry Harness (CSTH) substrate.
//
// The paper polls CPU/DIMM temperatures, per-core voltage/current and
// whole-system power through CSTH every 10 seconds.  This harness plays
// that role for the simulated server, which registers the CPU and DIMM
// temperatures, system power and fan power (per-core rails would only
// restate the power model).  Channels register a source lambda,
// `poll_due(t)` samples every channel at the configured cadence, and the
// recorded histories export to CSV for the figure benches.
//
// Histories are columnar: every poll samples all channels at one shared
// timestamp, so the harness archives them as one `util::frame` (one time
// column + one value column per history-recording channel) instead of
// per-channel series that each duplicate the poll clock.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/channel.hpp"
#include "util/frame.hpp"
#include "util/units.hpp"

namespace ltsc::telemetry {

/// Polling telemetry harness over a set of channels.
class harness {
public:
    /// `period` is the sampling cadence (the paper uses 10 s).
    explicit harness(util::seconds_t period = util::seconds_t{10.0});

    // Channels hold views into the harness's history frame; the harness
    // is pinned in memory once channels are registered.
    harness(const harness&) = delete;
    harness& operator=(const harness&) = delete;
    harness(harness&&) = delete;
    harness& operator=(harness&&) = delete;

    /// Registers a channel; names must be unique.  Returns its index.
    std::size_t add_channel(std::string name, std::string unit, std::function<double()> source,
                            std::size_t ring_capacity = 512, bool record_history = true);

    /// Samples all channels if at least one period elapsed since the last
    /// poll (or if never polled).  Returns true when a poll happened.
    bool poll_due(util::seconds_t now);

    /// Unconditionally samples all channels at time `now`.
    void poll_now(util::seconds_t now);

    /// Clears every channel's stored samples and the poll clock, so the
    /// harness can record a fresh run starting from t = 0.
    void reset();

    /// Drops the recorded history rows only.  The poll clock and each
    /// channel's latest-sample ring are kept, so the next poll fires
    /// exactly when it would have without the clear and `latest()` still
    /// answers.  Long-running plants call this to bound history memory.
    void clear_history() { history_.clear(); }

    // --- poll-clock save/restore -------------------------------------------
    // Cloning a live plant (rollout snapshots) must reproduce *when* the
    // next telemetry poll fires, because polling reads the sensors and
    // advances their RNG stream.  The clock is exposed as (last poll
    // time, ever-polled) so a restored plant polls on the same schedule
    // as the original; histories are not part of the dynamic state.
    [[nodiscard]] double last_poll_time() const { return last_poll_; }
    [[nodiscard]] bool ever_polled() const { return polled_once_; }

    /// Overwrites the poll clock without sampling or touching histories
    /// (callers wanting a clean recording call reset() first).
    void restore_poll_clock(double last_poll_s, bool ever_polled);

    // --- poll suppression (fault injection) ---------------------------------
    /// While suppressed, poll_due() drops every due poll: no channel is
    /// sampled and the poll clock does not advance, so observers keep
    /// seeing the last delivered values ageing — exactly what a crashed
    /// CSTH poller looks like.  poll_now() stays unconditional (it models
    /// a local read, not the poller).  Suppression is runtime plant
    /// state, not part of the harness clock: plants re-derive it from
    /// their fault_state every step, so it needs no snapshot handling.
    void set_poll_suppressed(bool suppressed) { suppressed_ = suppressed; }
    [[nodiscard]] bool poll_suppressed() const { return suppressed_; }

    [[nodiscard]] std::size_t channel_count() const { return channels_.size(); }
    [[nodiscard]] util::seconds_t period() const { return period_; }

    /// Channel lookup by name; throws when absent.
    [[nodiscard]] const channel& by_name(const std::string& name) const;
    [[nodiscard]] const channel& by_index(std::size_t i) const;

    /// Latest value of a channel; throws when the channel is absent or has
    /// never been polled.
    [[nodiscard]] double latest(const std::string& name) const;

    /// Exports every recorded history as named series.
    [[nodiscard]] std::vector<util::named_series> export_series() const;

    /// Writes all histories as long-format CSV.
    void write_csv(std::ostream& os) const;

    /// The shared columnar history store (one column per
    /// history-recording channel).
    [[nodiscard]] const util::frame& history() const { return history_; }

private:
    util::seconds_t period_;
    double last_poll_ = -1.0;
    bool polled_once_ = false;
    bool suppressed_ = false;
    std::vector<std::unique_ptr<channel>> channels_;
    util::frame history_;
    std::vector<double> poll_scratch_;  ///< One history row, reused per poll.
};

}  // namespace ltsc::telemetry
