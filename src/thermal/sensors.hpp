// Thermal sensor models.
//
// The paper's CSTH reports 4 CPU temperatures (2 sensors per die) and 32
// DIMM temperatures (1 per module).  Real sensors carry placement bias,
// noise and ADC quantization; modelling those keeps the controllers honest
// (the bang-bang controller reacts to *sensor* readings, not to the plant
// state).  A sensor is only its error model: the plant hands it the true
// temperature and the RNG stream at every read.
#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace ltsc::thermal {

/// One temperature sensor's error model.
class temperature_sensor {
public:
    /// `bias` models placement offset, `noise_sigma` Gaussian read noise,
    /// `quantum` the ADC step (0 disables quantization).
    temperature_sensor(util::celsius_t bias, double noise_sigma, double quantum);

    /// Reads `truth` with bias + noise + quantization applied; the noise
    /// draw (if any) advances `rng`.
    [[nodiscard]] util::celsius_t read(util::celsius_t truth, util::pcg32& rng) const;

private:
    double bias_c_;
    double noise_sigma_;
    double quantum_;
};

/// CPU sensors per server: 2 per die on the 2-socket plant.
inline constexpr std::size_t k_cpu_sensors = 4;

/// The paper's sensor complement for one server: 2 sensors per CPU die
/// (+/- 1 degC placement spread) and one per DIMM module, spread around
/// the bank temperature by a positional gradient.
struct server_sensor_suite {
    std::vector<temperature_sensor> cpu;   ///< 4 sensors: cpu0_a, cpu0_b, cpu1_a, cpu1_b.
    std::vector<temperature_sensor> dimm;  ///< One per DIMM module.
};

[[nodiscard]] server_sensor_suite make_server_sensors(std::size_t dimm_count,
                                                      double noise_sigma = 0.15,
                                                      double quantum = 0.25);

}  // namespace ltsc::thermal
