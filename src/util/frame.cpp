#include "util/frame.hpp"

#include <cmath>

#include "util/error.hpp"

namespace ltsc::util {

std::size_t frame::add_channel(std::string name) {
    ensure(!name.empty(), "frame::add_channel: empty channel name");
    ensure(time_.empty(), "frame::add_channel: cannot add channels to a non-empty frame");
    for (const auto& existing : names_) {
        ensure(existing != name, "frame::add_channel: duplicate channel name " + name);
    }
    names_.push_back(std::move(name));
    columns_.emplace_back();
    return columns_.size() - 1;
}

void frame::append(double t, const double* values, std::size_t count) {
    ensure(count == columns_.size(), "frame::append: value count != channel count");
    ensure(std::isfinite(t), "frame::append: non-finite time stamp");
    if (!time_.empty()) {
        ensure(t >= time_.back(), "frame::append: non-monotonic time stamp");
    }
    for (std::size_t c = 0; c < count; ++c) {
        ensure(std::isfinite(values[c]), "frame::append: non-finite value");
    }
    time_.push_back(t);
    for (std::size_t c = 0; c < count; ++c) {
        columns_[c].push_back(values[c]);
    }
}

void frame::clear() {
    time_.clear();
    for (auto& col : columns_) {
        col.clear();
    }
}

const std::vector<double>& frame::values(std::size_t channel) const {
    ensure(channel < columns_.size(), "frame::values: channel out of range");
    return columns_[channel];
}

column_view frame::column(std::size_t channel) const {
    ensure(channel < columns_.size(), "frame::column: channel out of range");
    if (time_.empty()) {
        return {};
    }
    return column_view(time_.data(), columns_[channel].data(), time_.size());
}

column_view frame::column(const std::string& name) const { return column(channel_index(name)); }

std::size_t frame::channel_index(const std::string& name) const {
    for (std::size_t c = 0; c < names_.size(); ++c) {
        if (names_[c] == name) {
            return c;
        }
    }
    throw precondition_error("frame::channel_index: unknown channel " + name);
}

bool frame::has_channel(const std::string& name) const {
    for (const auto& existing : names_) {
        if (existing == name) {
            return true;
        }
    }
    return false;
}

const std::string& frame::channel_name(std::size_t channel) const {
    ensure(channel < names_.size(), "frame::channel_name: channel out of range");
    return names_[channel];
}

}  // namespace ltsc::util
