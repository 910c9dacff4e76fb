#include "util/file_io.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>

#include <unistd.h>

namespace strober {
namespace util {

Status
writeFileAtomic(const std::string &path, const std::string &bytes)
{
    static std::atomic<uint64_t> serial{0};
    std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                      std::to_string(serial.fetch_add(1));
    std::error_code ec;
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return errorf(ErrorCode::IoError, "cannot create '%s'",
                          tmp.c_str());
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        out.close();
        if (!out) {
            std::filesystem::remove(tmp, ec);
            return errorf(ErrorCode::IoError,
                          "writing '%s' failed (disk full?)", tmp.c_str());
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        Status st = errorf(ErrorCode::IoError, "renaming '%s' -> '%s': %s",
                           tmp.c_str(), path.c_str(), ec.message().c_str());
        std::filesystem::remove(tmp, ec);
        return st;
    }
    return Status::ok();
}

Result<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return errorf(ErrorCode::IoError, "cannot open '%s'", path.c_str());
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    if (in.bad())
        return errorf(ErrorCode::IoError, "reading '%s' failed",
                      path.c_str());
    return bytes;
}

} // namespace util
} // namespace strober
