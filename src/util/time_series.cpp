#include "util/time_series.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/series_algo.hpp"

namespace ltsc::util {

namespace {

/// Adapter giving the shared algorithms index access into the
/// array-of-structs sample storage.
struct aos_adapter {
    const std::vector<sample>& s;

    [[nodiscard]] std::size_t size() const { return s.size(); }
    [[nodiscard]] double t(std::size_t i) const { return s[i].t; }
    [[nodiscard]] double v(std::size_t i) const { return s[i].v; }
};

}  // namespace

const sample& time_series::at(std::size_t i) const {
    ensure(i < samples_.size(), "time_series::at: index out of range");
    return samples_[i];
}

const sample& time_series::front() const {
    ensure(!samples_.empty(), "time_series::front: empty series");
    return samples_.front();
}

const sample& time_series::back() const {
    ensure(!samples_.empty(), "time_series::back: empty series");
    return samples_.back();
}

column_view time_series::view() const {
    if (samples_.empty()) {
        return {};
    }
    return column_view(&samples_.front().t, &samples_.front().v, samples_.size(), sizeof(sample));
}

double time_series::duration() const { return detail::duration(aos_adapter{samples_}); }

double time_series::value_at(double t) const {
    ensure(!samples_.empty(), "time_series::value_at: empty series");
    return detail::value_at(aos_adapter{samples_}, t);
}

std::size_t time_series::index_at_or_before(double t) const {
    ensure(!samples_.empty(), "time_series::index_at_or_before: empty series");
    return detail::index_at_or_before(aos_adapter{samples_}, t);
}

double time_series::min(double t0, double t1) const {
    ensure(!samples_.empty(), "time_series::min: empty series");
    ensure(t0 <= t1, "time_series::min: inverted window");
    return detail::min_over(aos_adapter{samples_}, t0, t1);
}

double time_series::min() const { return min(front().t, back().t); }

double time_series::max(double t0, double t1) const {
    ensure(!samples_.empty(), "time_series::max: empty series");
    ensure(t0 <= t1, "time_series::max: inverted window");
    return detail::max_over(aos_adapter{samples_}, t0, t1);
}

double time_series::max() const { return max(front().t, back().t); }

double time_series::integrate(double t0, double t1) const {
    ensure(!samples_.empty(), "time_series::integrate: empty series");
    ensure(t0 <= t1, "time_series::integrate: inverted window");
    return detail::integrate(aos_adapter{samples_}, t0, t1);
}

double time_series::integrate() const {
    if (samples_.size() < 2) {
        return 0.0;
    }
    return integrate(front().t, back().t);
}

double time_series::mean(double t0, double t1) const {
    ensure(!samples_.empty(), "time_series::mean: empty series");
    ensure(t0 <= t1, "time_series::mean: inverted window");
    return detail::mean_over(aos_adapter{samples_}, t0, t1);
}

double time_series::mean() const {
    if (samples_.size() < 2) {
        return samples_.empty() ? 0.0 : samples_.front().v;
    }
    return mean(front().t, back().t);
}

sample column_view::at(std::size_t i) const {
    ensure(i < n_, "column_view::at: index out of range");
    return sample{t(i), v(i)};
}

sample column_view::front() const {
    ensure(n_ > 0, "column_view::front: empty series");
    return sample{t(0), v(0)};
}

sample column_view::back() const {
    ensure(n_ > 0, "column_view::back: empty series");
    return sample{t(n_ - 1), v(n_ - 1)};
}

std::vector<sample> column_view::samples() const {
    std::vector<sample> out;
    out.reserve(n_);
    for (std::size_t i = 0; i < n_; ++i) {
        out.push_back(sample{t(i), v(i)});
    }
    return out;
}

time_series column_view::to_series() const {
    time_series out;
    for (std::size_t i = 0; i < n_; ++i) {
        out.push_back(t(i), v(i));
    }
    return out;
}

double column_view::duration() const { return detail::duration(*this); }

double column_view::value_at(double at_t) const {
    ensure(n_ > 0, "column_view::value_at: empty series");
    return detail::value_at(*this, at_t);
}

std::size_t column_view::index_at_or_before(double at_t) const {
    ensure(n_ > 0, "column_view::index_at_or_before: empty series");
    return detail::index_at_or_before(*this, at_t);
}

double column_view::min(double t0, double t1) const {
    ensure(n_ > 0, "column_view::min: empty series");
    ensure(t0 <= t1, "column_view::min: inverted window");
    return detail::min_over(*this, t0, t1);
}

double column_view::min() const {
    ensure(n_ > 0, "column_view::min: empty series");
    return min(t(0), t(n_ - 1));
}

double column_view::max(double t0, double t1) const {
    ensure(n_ > 0, "column_view::max: empty series");
    ensure(t0 <= t1, "column_view::max: inverted window");
    return detail::max_over(*this, t0, t1);
}

double column_view::max() const {
    ensure(n_ > 0, "column_view::max: empty series");
    return max(t(0), t(n_ - 1));
}

double column_view::integrate(double t0, double t1) const {
    ensure(n_ > 0, "column_view::integrate: empty series");
    ensure(t0 <= t1, "column_view::integrate: inverted window");
    return detail::integrate(*this, t0, t1);
}

double column_view::integrate() const {
    if (n_ < 2) {
        return 0.0;
    }
    return integrate(t(0), t(n_ - 1));
}

double column_view::mean(double t0, double t1) const {
    ensure(n_ > 0, "column_view::mean: empty series");
    ensure(t0 <= t1, "column_view::mean: inverted window");
    return detail::mean_over(*this, t0, t1);
}

double column_view::mean() const {
    if (n_ < 2) {
        return n_ == 0 ? 0.0 : v(0);
    }
    return mean(t(0), t(n_ - 1));
}

}  // namespace ltsc::util
