#include "rack/room_model.hpp"

#include "util/error.hpp"

namespace ltsc::thermal {

crac_model::crac_model(const cop_curve& curve) : curve_(curve) {}

double crac_model::cop(util::celsius_t supply) const {
    const double t = supply.value();
    const double value = curve_.a * t * t + curve_.b * t + curve_.c;
    util::ensure_numeric(value > 0.0, "crac_model: non-positive COP at this supply temperature");
    return value;
}

util::watts_t crac_model::cooling_power(util::watts_t it_heat, util::celsius_t supply) const {
    util::ensure(it_heat.value() >= 0.0, "crac_model: negative heat load");
    return util::watts_t{it_heat.value() / cop(supply)};
}

facility_power crac_model::facility(util::watts_t it_power, util::celsius_t supply) const {
    util::ensure(it_power.value() >= 0.0, "crac_model: negative IT power");
    facility_power out;
    out.it = it_power;
    out.cooling = cooling_power(it_power, supply);
    out.total = out.it + out.cooling;
    out.pue = it_power.value() > 0.0 ? out.total.value() / it_power.value() : 1.0;
    return out;
}

}  // namespace ltsc::thermal
