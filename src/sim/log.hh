/**
 * @file
 * Logging and error-reporting helpers, following the gem5 conventions:
 *
 *  - panic():  something happened that can never happen unless the
 *              simulator itself is broken; aborts.
 *  - fatal():  the simulation cannot continue because of a user error
 *              (bad configuration, invalid arguments); exits with code 1.
 *  - warn():   something is questionable but the run continues.
 */

#ifndef IH_SIM_LOG_HH
#define IH_SIM_LOG_HH

#include <cstdarg>
#include <string>

namespace ih
{

/** Abort with a message; for internal invariant violations. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Exit(1) with a message; for user/configuration errors. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning; never stops the run. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace ih

/**
 * Invariant check that survives NDEBUG builds. Use for simulator
 * correctness conditions whose failure means the model is broken.
 */
#define IH_ASSERT(cond, ...)                                                \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::ih::warn("assertion '%s' failed at %s:%d", #cond, __FILE__,   \
                       __LINE__);                                           \
            ::ih::panic(__VA_ARGS__);                                       \
        }                                                                   \
    } while (0)

/**
 * Invariant check compiled out of NDEBUG (release) builds. Use on hot
 * paths where the scan or recomputation backing the check is itself a
 * measurable cost (e.g. whole-set duplicate-line scans per cache fill).
 */
#ifdef NDEBUG
#define IH_DEBUG_ASSERT(cond, ...)                                          \
    do {                                                                    \
    } while (0)
#else
#define IH_DEBUG_ASSERT(cond, ...) IH_ASSERT(cond, __VA_ARGS__)
#endif

#endif // IH_SIM_LOG_HH
