#include "sim/batch_trace.hpp"

#include <cmath>

#include "util/error.hpp"

namespace ltsc::sim {

namespace {

constexpr const char* kChannelNames[trace_channel_count] = {
    "target_util", "instant_util",  "cpu0_temp", "cpu1_temp",     "avg_cpu_temp",
    "max_sensor_temp", "dimm_temp", "total_power", "fan_power",   "leakage_power",
    "active_power", "avg_fan_rpm",  "sensor_age", "monitor_sensor_health",
    "monitor_fan_health", "monitor_die_estimate",
};

}  // namespace

const char* trace_channel_name(trace_channel c) {
    const auto i = static_cast<std::size_t>(c);
    util::ensure(i < trace_channel_count, "trace_channel_name: bad channel");
    return kChannelNames[i];
}

batch_trace::batch_trace(std::size_t lanes) : lanes_(lanes) {
    util::ensure(lanes_ > 0, "batch_trace: need at least one lane");
    first_.assign(lanes_, 0);
    count_.assign(lanes_, 0);
}

batch_trace::batch_trace(const trace_view& v) : batch_trace(1) {
    reserve_steps(v.size());
    trace_row row;
    for (std::size_t i = 0; i < v.size(); ++i) {
        for (std::size_t c = 0; c < trace_channel_count; ++c) {
            row.values[c] = v.channel(static_cast<trace_channel>(c)).v(i);
        }
        append(0, v.channel(trace_channel::target_util).t(i), row);
    }
}

void batch_trace::append(std::size_t lane, double t, const trace_row& row) {
    util::ensure(lane < lanes_, "batch_trace::append: lane out of range");
    util::ensure(std::isfinite(t), "batch_trace::append: non-finite time stamp");
    for (double v : row.values) {
        util::ensure(std::isfinite(v), "batch_trace::append: non-finite value");
    }
    const std::size_t target = first_[lane] + count_[lane];
    if (count_[lane] > 0) {
        util::ensure(t >= slot(target - 1, lane)[0],
                     "batch_trace::append: non-monotonic time stamp");
    }
    if (target == groups_) {
        arena_.resize(arena_.size() + lanes_ * slot_doubles);
        ++groups_;
        ++appended_groups_;
    }
    double* dst = slot(target, lane);
    dst[0] = t;
    for (std::size_t c = 0; c < trace_channel_count; ++c) {
        dst[1 + c] = row.values[c];
    }
    ++count_[lane];
}

void batch_trace::clear(std::size_t lane) {
    util::ensure(lane < lanes_, "batch_trace::clear: lane out of range");
    count_[lane] = 0;
    first_[lane] = groups_;
    for (std::size_t l = 0; l < lanes_; ++l) {
        if (count_[l] != 0) {
            return;
        }
    }
    // Every lane empty: restart group numbering so per-run rebinding
    // does not accumulate dead row-groups.  Capacity is kept — the next
    // run records into the same arena without re-growing it.
    arena_.clear();
    groups_ = 0;
    first_.assign(lanes_, 0);
}

std::size_t batch_trace::size(std::size_t lane) const {
    util::ensure(lane < lanes_, "batch_trace::size: lane out of range");
    return count_[lane];
}

trace_view batch_trace::lane(std::size_t lane) const {
    util::ensure(lane < lanes_, "batch_trace::lane: lane out of range");
    trace_view out;
    if (count_[lane] == 0) {
        return out;
    }
    const double* base = slot(first_[lane], lane);
    const std::size_t stride_bytes = lanes_ * slot_doubles * sizeof(double);
    for (std::size_t c = 0; c < trace_channel_count; ++c) {
        out.channels_[c] = util::column_view(base, base + 1 + c, count_[lane], stride_bytes);
    }
    return out;
}

const double* batch_trace::group_data(std::size_t group) const {
    util::ensure(group < groups_, "batch_trace::group_data: group out of range");
    return slot(group, 0);
}

bool batch_trace::lane_in_group(std::size_t lane, std::size_t group) const {
    util::ensure(lane < lanes_, "batch_trace::lane_in_group: lane out of range");
    util::ensure(group < groups_, "batch_trace::lane_in_group: group out of range");
    return group >= first_[lane] && group < first_[lane] + count_[lane];
}

void batch_trace::reserve_steps(std::size_t steps) {
    arena_.reserve((groups_ + steps) * lanes_ * slot_doubles);
}

}  // namespace ltsc::sim
