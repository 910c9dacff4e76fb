/**
 * @file
 * Checked parsing of flag values, shared by the strober, strober-farm
 * and strober-serve command lines. A flag given last with no value, or
 * a value that is not a plain number (or duration), carries trailing
 * junk, is negative or does not fit the flag's type, ends the process
 * with exit code 2, the usage-error code, and a message naming the
 * flag, instead of an uncaught std::invalid_argument or a "-1" that
 * wraps to 2^32 - 1.
 */

#ifndef STROBER_TOOLS_CLI_ARGS_H
#define STROBER_TOOLS_CLI_ARGS_H

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "util/env.h"

namespace strober {
namespace cli {

/** @return the value after flag @p args[@p i], advancing @p i to it, or
 *  exit 2 when the flag is the last argument. */
inline const std::string &
nextValue(const std::vector<std::string> &args, size_t &i)
{
    if (i + 1 >= args.size()) {
        std::fprintf(stderr, "%s: needs a value\n", args[i].c_str());
        std::exit(2);
    }
    return args[++i];
}

/** @return @p text as a base-10 integer of type T (unsigned), or exit
 *  2 naming @p flag. */
template <typename T>
T
unsignedArg(const char *flag, const std::string &text)
{
    std::optional<unsigned long> n = util::parseULong(text);
    if (!n.has_value() || *n > std::numeric_limits<T>::max()) {
        std::fprintf(stderr, "%s: '%s' is not an integer in [0, %llu]\n",
                     flag, text.c_str(),
                     (unsigned long long)std::numeric_limits<T>::max());
        std::exit(2);
    }
    return static_cast<T>(*n);
}

/** @return @p text as a positive finite number, or exit 2
 *  naming @p flag. */
inline double
positiveArg(const char *flag, const std::string &text)
{
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    bool plain = !text.empty() &&
                 (std::isdigit(static_cast<unsigned char>(text[0])) != 0 ||
                  text[0] == '.');
    if (!plain || errno == ERANGE || end != text.c_str() + text.size() ||
        !(v > 0)) {
        std::fprintf(stderr, "%s: '%s' is not a positive number\n", flag,
                     text.c_str());
        std::exit(2);
    }
    return v;
}

/** @return @p text as a duration in milliseconds (util::parseDurationMs:
 *  250ms, 30s, 5m, 1h), or exit 2 naming @p flag. */
inline uint64_t
durationArg(const char *flag, const std::string &text)
{
    std::optional<uint64_t> ms = util::parseDurationMs(text);
    if (!ms.has_value()) {
        std::fprintf(stderr,
                     "%s: '%s' is not a duration (try 250ms, 30s, 5m, 1h)\n",
                     flag, text.c_str());
        std::exit(2);
    }
    return *ms;
}

} // namespace cli
} // namespace strober

#endif // STROBER_TOOLS_CLI_ARGS_H
