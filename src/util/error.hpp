// Error handling primitives shared across all ltsc modules.
//
// The library reports contract violations and unrecoverable conditions via
// exceptions (C++ Core Guidelines E.2).  `ensure` guards preconditions on
// public API boundaries; internal invariants use `ensure` as well so that a
// corrupted simulation never silently produces wrong physics.
#pragma once

#include <stdexcept>
#include <string>

namespace ltsc::util {

/// Base class for all exceptions thrown by the ltsc library.
class ltsc_error : public std::runtime_error {
public:
    explicit ltsc_error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a caller violates a documented precondition.
class precondition_error : public ltsc_error {
public:
    explicit precondition_error(const std::string& what) : ltsc_error(what) {}
};

/// Thrown when a numerical routine fails to converge or produces
/// non-finite values.
class numeric_error : public ltsc_error {
public:
    explicit numeric_error(const std::string& what) : ltsc_error(what) {}
};

/// Throws precondition_error with `msg` when `condition` is false.
///
/// The message is taken as a C string so the (overwhelmingly common)
/// passing case never materializes a std::string: guards sit on hot
/// per-substep paths, and a by-value std::string parameter would heap
/// allocate on every call.
inline void ensure(bool condition, const char* msg) {
    if (!condition) {
        throw precondition_error(msg);
    }
}

/// Overload for call sites that assemble a dynamic message.
inline void ensure(bool condition, const std::string& msg) {
    if (!condition) {
        throw precondition_error(msg);
    }
}

/// Throws numeric_error with `msg` when `condition` is false.
inline void ensure_numeric(bool condition, const char* msg) {
    if (!condition) {
        throw numeric_error(msg);
    }
}

/// Overload for call sites that assemble a dynamic message.
inline void ensure_numeric(bool condition, const std::string& msg) {
    if (!condition) {
        throw numeric_error(msg);
    }
}

}  // namespace ltsc::util
