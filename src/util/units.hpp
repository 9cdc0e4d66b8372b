// Strong unit types for the physical quantities the library manipulates.
//
// Mixing up Watts, RPM and degrees Celsius is the classic failure mode of
// thermal-management code, so the domain quantities are wrapped in a thin
// tagged `quantity` template (zero run-time cost).  Arithmetic is only
// defined where it is physically meaningful; anything else requires an
// explicit `.value()` escape hatch, which keeps unit mistakes visible in
// review.
#pragma once

#include <cmath>
#include <ostream>

namespace ltsc::util {

/// A value tagged with a physical unit.  `Tag` is an empty struct naming
/// the unit; all operations preserve the tag.
template <class Tag>
class quantity {
public:
    constexpr quantity() = default;
    constexpr explicit quantity(double v) : value_(v) {}

    /// Raw numeric value in the unit's canonical scale.
    [[nodiscard]] constexpr double value() const { return value_; }

    constexpr quantity& operator+=(quantity rhs) {
        value_ += rhs.value_;
        return *this;
    }
    constexpr quantity& operator-=(quantity rhs) {
        value_ -= rhs.value_;
        return *this;
    }
    constexpr quantity& operator*=(double s) {
        value_ *= s;
        return *this;
    }
    constexpr quantity& operator/=(double s) {
        value_ /= s;
        return *this;
    }

    friend constexpr quantity operator+(quantity a, quantity b) {
        return quantity{a.value_ + b.value_};
    }
    friend constexpr quantity operator-(quantity a, quantity b) {
        return quantity{a.value_ - b.value_};
    }
    friend constexpr quantity operator-(quantity a) { return quantity{-a.value_}; }
    friend constexpr quantity operator*(quantity a, double s) { return quantity{a.value_ * s}; }
    friend constexpr quantity operator*(double s, quantity a) { return quantity{a.value_ * s}; }
    friend constexpr quantity operator/(quantity a, double s) { return quantity{a.value_ / s}; }
    /// Ratio of two like quantities is a dimensionless double.
    friend constexpr double operator/(quantity a, quantity b) { return a.value_ / b.value_; }

    friend constexpr bool operator==(quantity a, quantity b) { return a.value_ == b.value_; }
    friend constexpr bool operator!=(quantity a, quantity b) { return a.value_ != b.value_; }
    friend constexpr bool operator<(quantity a, quantity b) { return a.value_ < b.value_; }
    friend constexpr bool operator<=(quantity a, quantity b) { return a.value_ <= b.value_; }
    friend constexpr bool operator>(quantity a, quantity b) { return a.value_ > b.value_; }
    friend constexpr bool operator>=(quantity a, quantity b) { return a.value_ >= b.value_; }

    friend std::ostream& operator<<(std::ostream& os, quantity q) { return os << q.value_; }

private:
    double value_ = 0.0;
};

struct celsius_tag {};
struct watts_tag {};
struct joules_tag {};
struct rpm_tag {};
struct cfm_tag {};
struct seconds_tag {};

/// Temperature in degrees Celsius.
using celsius_t = quantity<celsius_tag>;
/// Power in Watts.
using watts_t = quantity<watts_tag>;
/// Energy in Joules.
using joules_t = quantity<joules_tag>;
/// Fan rotational speed in revolutions per minute.
using rpm_t = quantity<rpm_tag>;
/// Volumetric airflow in cubic feet per minute.
using cfm_t = quantity<cfm_tag>;
/// Simulation time / durations in seconds.
using seconds_t = quantity<seconds_tag>;

/// Power integrated over time yields energy.
constexpr joules_t operator*(watts_t p, seconds_t t) { return joules_t{p.value() * t.value()}; }
constexpr joules_t operator*(seconds_t t, watts_t p) { return p * t; }
/// Energy over time yields average power.
constexpr watts_t operator/(joules_t e, seconds_t t) { return watts_t{e.value() / t.value()}; }

/// Converts Joules to kilowatt-hours (the unit Table I reports).
constexpr double to_kwh(joules_t e) { return e.value() / 3.6e6; }
/// Converts kilowatt-hours to Joules.
constexpr joules_t from_kwh(double kwh) { return joules_t{kwh * 3.6e6}; }

/// Absolute difference between two temperatures, in Celsius degrees.
inline celsius_t abs_diff(celsius_t a, celsius_t b) {
    return celsius_t{std::fabs(a.value() - b.value())};
}

inline namespace literals {

constexpr celsius_t operator""_degC(long double v) { return celsius_t{static_cast<double>(v)}; }
constexpr celsius_t operator""_degC(unsigned long long v) {
    return celsius_t{static_cast<double>(v)};
}
constexpr watts_t operator""_W(long double v) { return watts_t{static_cast<double>(v)}; }
constexpr watts_t operator""_W(unsigned long long v) { return watts_t{static_cast<double>(v)}; }
constexpr joules_t operator""_J(long double v) { return joules_t{static_cast<double>(v)}; }
constexpr joules_t operator""_J(unsigned long long v) { return joules_t{static_cast<double>(v)}; }
constexpr rpm_t operator""_rpm(long double v) { return rpm_t{static_cast<double>(v)}; }
constexpr rpm_t operator""_rpm(unsigned long long v) { return rpm_t{static_cast<double>(v)}; }
constexpr seconds_t operator""_s(long double v) { return seconds_t{static_cast<double>(v)}; }
constexpr seconds_t operator""_s(unsigned long long v) { return seconds_t{static_cast<double>(v)}; }
constexpr seconds_t operator""_min(long double v) {
    return seconds_t{static_cast<double>(v) * 60.0};
}
constexpr seconds_t operator""_min(unsigned long long v) {
    return seconds_t{static_cast<double>(v) * 60.0};
}

}  // namespace literals

}  // namespace ltsc::util
