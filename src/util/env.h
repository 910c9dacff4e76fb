/**
 * @file
 * Process-environment helpers shared by the simulator, the farm and the
 * service daemon: strict environment-variable parsing (one definition
 * instead of the per-module ad-hoc getenv idioms), human-friendly
 * duration parsing for CLI flags, wall-clock access, and the
 * rlimit//proc supervision helpers the worker-supervision path uses
 * (the CommandRunner wall-clock/memory-cap idiom, in-process).
 *
 * Parsing is deliberately strict: a signed value, garbage, trailing
 * junk or overflow never "mostly parses" — it falls back exactly like
 * an unset variable, so a "-1" can never wrap into 2^64 and a typo'd
 * cap never silently disables supervision.
 */

#ifndef STROBER_UTIL_ENV_H
#define STROBER_UTIL_ENV_H

#include <cstdint>
#include <optional>
#include <string>

#include <sys/types.h>

namespace strober {
namespace util {

/**
 * Parse @p text as a strict base-10 unsigned integer. Rejects empty
 * strings, any sign character, non-digit garbage, trailing junk and
 * values that overflow unsigned long.
 */
std::optional<unsigned long> parseULong(const std::string &text);

/**
 * Read env var @p name as an unsigned integer. Unset, empty or
 * unparseable (per parseULong) returns @p fallback; @p present, when
 * non-null, reports whether a valid value was read.
 */
unsigned long envULong(const char *name, unsigned long fallback = 0,
                       bool *present = nullptr);

/**
 * Read env var @p name as a boolean flag: unset, empty or "0" is
 * false, anything else is true.
 */
bool envFlag(const char *name);

/**
 * Parse a duration like "250ms", "30s", "5m", "2h" into milliseconds.
 * A bare number is seconds (the natural CLI unit). Rejects signs,
 * garbage, unknown suffixes and overflow.
 */
std::optional<uint64_t> parseDurationMs(const std::string &text);

/** envULong-style duration read: fallback on unset/invalid. */
uint64_t envDurationMs(const char *name, uint64_t fallback);

/** Milliseconds since the Unix epoch (lease deadlines, job clocks). */
uint64_t nowUnixMs();

/** Monotonic milliseconds (supervision intervals; never steps). */
uint64_t monotonicMs();

/** Monotonic seconds, sub-millisecond resolution (phase wall clocks). */
double monotonicSeconds();

/**
 * Cap this process's address space at @p mb megabytes (RLIMIT_AS), the
 * worker-side half of memory supervision: even if the supervisor's
 * /proc polling misses a fast allocation spike, the allocation itself
 * fails. @return false if the limit could not be applied.
 */
bool applyMemoryRlimitMb(unsigned long mb);

/**
 * Resident-set size of @p pid in bytes via /proc/<pid>/status (the
 * supervisor-side half of memory supervision); 0 when unreadable.
 */
uint64_t processRssBytes(pid_t pid);

} // namespace util
} // namespace strober

#endif // STROBER_UTIL_ENV_H
