/**
 * @file
 * Whole-file reads and crash-safe whole-file writes: the small state
 * files of the replay farm (manifests, stream entries, cache entries).
 */

#ifndef STROBER_UTIL_FILE_IO_H
#define STROBER_UTIL_FILE_IO_H

#include <string>

#include "util/status.h"

namespace strober {
namespace util {

/**
 * Replace @p path with @p bytes atomically: write a temp file unique to
 * this writer (pid + serial), then rename it over @p path. A kill
 * leaves the old file or the new one, never a torn one, and concurrent
 * writers of one path never share a temp file (last rename wins).
 */
Status writeFileAtomic(const std::string &path, const std::string &bytes);

/** The whole content of @p path, or IoError. */
Result<std::string> readFile(const std::string &path);

} // namespace util
} // namespace strober

#endif // STROBER_UTIL_FILE_IO_H
