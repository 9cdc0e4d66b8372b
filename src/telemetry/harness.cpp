#include "telemetry/harness.hpp"

#include "util/error.hpp"

namespace ltsc::telemetry {

harness::harness(util::seconds_t period, std::initializer_list<const char*> columns)
    : period_(period) {
    util::ensure(period.value() > 0.0, "harness: non-positive polling period");
    for (const char* name : columns) {
        history_.add_channel(name);
    }
}

bool harness::due(util::seconds_t now) const {
    return !polled_once_ || now.value() - last_poll_ >= period_.value() - 1e-9;
}

void harness::record(util::seconds_t now, const double* values, std::size_t count) {
    history_.append(now.value(), values, count);
    last_poll_ = now.value();
    polled_once_ = true;
}

void harness::reset() {
    history_.clear();
    last_poll_ = -1.0;
    polled_once_ = false;
}

void harness::restore_poll_clock(double last_poll_s, bool ever_polled) {
    last_poll_ = last_poll_s;
    polled_once_ = ever_polled;
}

}  // namespace ltsc::telemetry
