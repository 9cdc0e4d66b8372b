#include "thermal/sensors.hpp"

#include <cmath>

#include "util/error.hpp"

namespace ltsc::thermal {

temperature_sensor::temperature_sensor(util::celsius_t bias, double noise_sigma, double quantum)
    : bias_c_(bias.value()), noise_sigma_(noise_sigma), quantum_(quantum) {
    util::ensure(noise_sigma >= 0.0, "temperature_sensor: negative noise");
    util::ensure(quantum >= 0.0, "temperature_sensor: negative quantum");
}

util::celsius_t temperature_sensor::read(util::celsius_t truth, util::pcg32& rng) const {
    double v = truth.value() + bias_c_;
    if (noise_sigma_ > 0.0) {
        v += rng.normal(0.0, noise_sigma_);
    }
    if (quantum_ > 0.0) {
        v = std::round(v / quantum_) * quantum_;
    }
    return util::celsius_t{v};
}

server_sensor_suite make_server_sensors(std::size_t dimm_count, double noise_sigma,
                                        double quantum) {
    server_sensor_suite suite;
    for (std::size_t i = 0; i < 4; ++i) {
        const double bias = (i % 2 == 0) ? -0.8 : 0.8;  // placement spread across the die
        suite.cpu.emplace_back(util::celsius_t{bias}, noise_sigma, quantum);
    }
    for (std::size_t d = 0; d < dimm_count; ++d) {
        // Positional gradient: modules deeper in the airflow run warmer.
        const double frac = dimm_count > 1
                                ? static_cast<double>(d) / static_cast<double>(dimm_count - 1)
                                : 0.0;
        const double bias = -1.5 + 3.0 * frac;
        suite.dimm.emplace_back(util::celsius_t{bias}, noise_sigma, quantum);
    }
    return suite;
}

}  // namespace ltsc::thermal
