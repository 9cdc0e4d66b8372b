#include "sim/simulation_trace.hpp"

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

simulation_trace::simulation_trace() {
    for (std::size_t c = 0; c < trace_channel_count; ++c) {
        frame_.add_channel(kChannelNames[c]);
    }
}

simulation_trace::simulation_trace(const trace_view& v) : simulation_trace() {
    trace_row row;
    for (std::size_t i = 0; i < v.size(); ++i) {
        for (std::size_t c = 0; c < trace_channel_count; ++c) {
            row.values[c] = v.channel(static_cast<trace_channel>(c)).v(i);
        }
        append(v.channel(trace_channel::target_util).t(i), row);
    }
}

trace_view simulation_trace::view() const {
    trace_view out;
    for (std::size_t c = 0; c < trace_channel_count; ++c) {
        out.channels_[c] = frame_.column(c);
    }
    return out;
}

}  // namespace ltsc::sim
