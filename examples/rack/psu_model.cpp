#include "rack/psu_model.hpp"

#include "util/error.hpp"

namespace ltsc::power {

psu_model::psu_model()
    : psu_model(util::watts_t{2000.0}, {0.05, 0.10, 0.20, 0.50, 0.80, 1.00},
                {0.70, 0.82, 0.90, 0.92, 0.90, 0.88}) {}

psu_model::psu_model(util::watts_t rated_output, std::vector<double> load_fractions,
                     std::vector<double> efficiencies)
    : rated_(rated_output) {
    util::ensure(rated_output.value() > 0.0, "psu_model: non-positive rating");
    util::ensure(load_fractions.size() == efficiencies.size() && load_fractions.size() >= 2,
                 "psu_model: need >= 2 curve points");
    for (std::size_t i = 0; i < load_fractions.size(); ++i) {
        util::ensure(load_fractions[i] > 0.0 && load_fractions[i] <= 1.0,
                     "psu_model: load fraction out of (0, 1]");
        util::ensure(efficiencies[i] > 0.0 && efficiencies[i] <= 1.0,
                     "psu_model: efficiency out of (0, 1]");
    }
    eff_ = util::linear_interpolator(std::move(load_fractions), std::move(efficiencies));
}

double psu_model::efficiency(util::watts_t dc_load) const {
    util::ensure(dc_load.value() >= 0.0, "psu_model: negative load");
    return eff_(dc_load.value() / rated_.value());
}

util::watts_t psu_model::ac_input(util::watts_t dc_load) const {
    if (dc_load.value() == 0.0) {
        return util::watts_t{0.0};
    }
    return util::watts_t{dc_load.value() / efficiency(dc_load)};
}

util::watts_t psu_model::loss(util::watts_t dc_load) const { return ac_input(dc_load) - dc_load; }

void psu_model::ac_input_into(const std::vector<double>& dc_w, std::vector<double>& ac_w) const {
    ac_w.resize(dc_w.size());
    for (std::size_t i = 0; i < dc_w.size(); ++i) {
        ac_w[i] = ac_input(util::watts_t{dc_w[i]}).value();
    }
}

}  // namespace ltsc::power
