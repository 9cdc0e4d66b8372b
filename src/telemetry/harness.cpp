#include "telemetry/harness.hpp"

#include <utility>

#include "util/error.hpp"

namespace ltsc::telemetry {

harness::harness(util::seconds_t period) : period_(period) {
    util::ensure(period.value() > 0.0, "harness: non-positive polling period");
}

void harness::add_channel(std::string name, std::function<double()> source, bool record_history) {
    util::ensure(static_cast<bool>(source), "harness::add_channel: null source");
    util::ensure(!name.empty(), "harness::add_channel: empty name");
    for (const channel& ch : channels_) {
        util::ensure(ch.name != name, "harness::add_channel: duplicate channel name " + name);
    }
    util::ensure(!record_history || history_.empty(),
                 "harness::add_channel: cannot add a recorded channel after polling started");
    const std::size_t column = record_history ? history_.add_channel(name) : unrecorded;
    channels_.push_back(channel{std::move(name), std::move(source), column});
}

bool harness::poll_due(util::seconds_t now) {
    if (suppressed_) {
        return false;
    }
    if (polled_once_ && now.value() - last_poll_ < period_.value() - 1e-9) {
        return false;
    }
    poll_now(now);
    return true;
}

void harness::poll_now(util::seconds_t now) {
    // Channels are sampled in registration order (sources may share
    // side-effecting state, e.g. one RNG stream); history values land in
    // one shared frame row.
    poll_scratch_.resize(history_.channel_count());
    for (const channel& ch : channels_) {
        const double v = ch.source();
        if (ch.column != unrecorded) {
            poll_scratch_[ch.column] = v;
        }
    }
    if (history_.channel_count() > 0) {
        history_.append(now.value(), poll_scratch_.data(), poll_scratch_.size());
    }
    last_poll_ = now.value();
    polled_once_ = true;
}

void harness::reset() {
    history_.clear();
    last_poll_ = -1.0;
    polled_once_ = false;
    suppressed_ = false;
}

void harness::restore_poll_clock(double last_poll_s, bool ever_polled) {
    last_poll_ = last_poll_s;
    polled_once_ = ever_polled;
}

}  // namespace ltsc::telemetry
