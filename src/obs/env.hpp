/**
 * @file
 * Shared environment-variable parsing for every MRQ_* toggle.
 *
 * One truthiness rule for the whole library: a boolean knob is ON
 * exactly when its value is "1", "true" or "on" (case-insensitive).
 * Anything else — unset, empty, "0", "off", "yes", stray whitespace —
 * is OFF.  Path-valued knobs (MRQ_METRICS_OUT, MRQ_TRACE_OUT) use
 * envSet(): any non-empty value counts.
 *
 * Before this header each module hand-rolled its own check (presence
 * in one place, "not 0" in another), so MRQ_TRACE=off enabled
 * tracing.  Every new knob must parse through these helpers.
 */

#ifndef MRQ_OBS_ENV_HPP
#define MRQ_OBS_ENV_HPP

#include <cerrno>
#include <cstdlib>

namespace mrq {
namespace obs {

/** True when @p value is "1", "true" or "on", case-insensitive. */
inline bool
truthy(const char* value)
{
    if (value == nullptr)
        return false;
    auto lower = [](char c) {
        return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a')
                                    : c;
    };
    const char* candidates[] = {"1", "true", "on"};
    for (const char* want : candidates) {
        const char* v = value;
        const char* w = want;
        while (*v != '\0' && *w != '\0' && lower(*v) == *w) {
            ++v;
            ++w;
        }
        if (*v == '\0' && *w == '\0')
            return true;
    }
    return false;
}

/** True when the boolean env knob @p name is set to a truthy value. */
inline bool
envTruthy(const char* name)
{
    return truthy(std::getenv(name));
}

/** True when the env variable @p name is set and non-empty (for
 *  path-valued knobs, where any non-empty string is a live sink). */
inline bool
envSet(const char* name)
{
    const char* v = std::getenv(name);
    return v != nullptr && v[0] != '\0';
}

/** Value of @p name, or @p fallback when unset/empty (path-valued
 *  knobs with a default, e.g. MRQ_INSPECT_OUT). */
inline const char*
envValue(const char* name, const char* fallback)
{
    const char* v = std::getenv(name);
    return v != nullptr && v[0] != '\0' ? v : fallback;
}

/** @p value as a long; @p fallback when null, empty, not a full
 *  base-10 integer (no silent prefix parsing) or out of long's range
 *  (no silent clamp to LONG_MAX/LONG_MIN). */
inline long
parseLong(const char* value, long fallback)
{
    if (value == nullptr || value[0] == '\0')
        return fallback;
    char* end = nullptr;
    errno = 0;
    const long parsed = std::strtol(value, &end, 10);
    if (errno == ERANGE)
        return fallback;
    return end != value && *end == '\0' ? parsed : fallback;
}

/** Integer value of @p name; parseLong()'s fallback rules apply. */
inline long
envLong(const char* name, long fallback)
{
    return parseLong(std::getenv(name), fallback);
}

} // namespace obs
} // namespace mrq

#endif // MRQ_OBS_ENV_HPP
