#include "util/env.h"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>

#include <sys/resource.h>

namespace strober {
namespace util {

std::optional<unsigned long>
parseULong(const std::string &text)
{
    if (text.empty())
        return std::nullopt;
    // strtoul() accepts "-1" (wrapping to ULONG_MAX), "+3", leading
    // whitespace and hex; all of those are rejected here — env values
    // and CLI counts are plain base-10 digits or nothing.
    for (char c : text) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return std::nullopt;
    }
    errno = 0;
    char *end = nullptr;
    unsigned long n = std::strtoul(text.c_str(), &end, 10);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return std::nullopt;
    return n;
}

unsigned long
envULong(const char *name, unsigned long fallback, bool *present)
{
    if (present != nullptr)
        *present = false;
    const char *v = std::getenv(name);
    if (v == nullptr)
        return fallback;
    std::optional<unsigned long> n = parseULong(v);
    if (!n.has_value())
        return fallback;
    if (present != nullptr)
        *present = true;
    return *n;
}

bool
envFlag(const char *name)
{
    const char *v = std::getenv(name);
    return v != nullptr && v[0] != '\0' &&
           !(v[0] == '0' && v[1] == '\0');
}

std::optional<uint64_t>
parseDurationMs(const std::string &text)
{
    if (text.empty())
        return std::nullopt;
    size_t digits = 0;
    while (digits < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[digits])))
        ++digits;
    if (digits == 0)
        return std::nullopt;
    std::optional<unsigned long> n = parseULong(text.substr(0, digits));
    if (!n.has_value())
        return std::nullopt;
    std::string unit = text.substr(digits);
    uint64_t scale;
    if (unit == "ms")
        scale = 1;
    else if (unit == "" || unit == "s")
        scale = 1000;
    else if (unit == "m")
        scale = 60'000;
    else if (unit == "h")
        scale = 3'600'000;
    else
        return std::nullopt;
    uint64_t value = *n;
    if (scale != 0 && value > UINT64_MAX / scale)
        return std::nullopt;
    return value * scale;
}

uint64_t
envDurationMs(const char *name, uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (v == nullptr)
        return fallback;
    std::optional<uint64_t> ms = parseDurationMs(v);
    return ms.has_value() ? *ms : fallback;
}

uint64_t
nowUnixMs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

uint64_t
monotonicMs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
monotonicSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

bool
applyMemoryRlimitMb(unsigned long mb)
{
    if (mb == 0)
        return false;
    struct rlimit lim;
    lim.rlim_cur = static_cast<rlim_t>(mb) * 1024 * 1024;
    lim.rlim_max = lim.rlim_cur;
    struct rlimit cur;
    if (::getrlimit(RLIMIT_AS, &cur) == 0 &&
        cur.rlim_max != RLIM_INFINITY && cur.rlim_max < lim.rlim_max) {
        lim.rlim_cur = cur.rlim_max; // cannot raise the hard limit
        lim.rlim_max = cur.rlim_max;
    }
    return ::setrlimit(RLIMIT_AS, &lim) == 0;
}

uint64_t
processRssBytes(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    if (!in)
        return 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmRSS:", 0) != 0)
            continue;
        // "VmRSS:     1234 kB"
        size_t pos = line.find_first_of("0123456789", 6);
        if (pos == std::string::npos)
            return 0;
        return std::strtoull(line.c_str() + pos, nullptr, 10) * 1024ull;
    }
    return 0;
}

} // namespace util
} // namespace strober
