/**
 * @file
 * Minimal logging and fatal-error facilities.
 *
 * Follows the gem5 fatal()/panic() distinction: fatal() is for user
 * errors (bad configuration), panic() for internal invariant violations.
 */
#ifndef ELK_UTIL_LOGGING_H
#define ELK_UTIL_LOGGING_H

#include <string>

namespace elk::util {

/// Prints a `[elk WARN]` line to stderr and carries on.
void warn(const std::string& msg);

/**
 * Terminates the process with an error message. Use for user errors
 * (bad configuration, invalid arguments); exits with code 1.
 */
[[noreturn]] void fatal(const std::string& msg);
[[noreturn]] void fatal(const char* msg);

/**
 * Terminates the process with an internal-error message. Use for
 * conditions that indicate a bug in Elk itself; calls abort().
 */
[[noreturn]] void panic(const std::string& msg);
[[noreturn]] void panic(const char* msg);

// check()/require() run on the simulator's and scheduler's hottest
// paths, so they take the message as a literal: nothing is copied into
// a std::string, not even when the check fails. A message built from
// values would be built before the test, on every call; such a site
// writes `if (!cond) panic(...)` so it is built only on failure.

/// Asserts an Elk-internal invariant; panics with @p msg when violated.
inline void
check(bool cond, const char* msg)
{
    if (!cond) {
        panic(msg);
    }
}

/// Validates user input; fatal (exit 1) with @p msg when violated.
inline void
require(bool cond, const char* msg)
{
    if (!cond) {
        fatal(msg);
    }
}

}  // namespace elk::util

#endif  // ELK_UTIL_LOGGING_H
