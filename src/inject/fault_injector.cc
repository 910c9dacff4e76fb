#include "inject/fault_injector.h"

#include <algorithm>
#include <filesystem>

#include "util/file_io.h"
#include "util/logging.h"

namespace strober {
namespace inject {

using util::ErrorCode;

uint64_t
FaultRng::below(uint64_t bound)
{
    if (bound == 0)
        panic("FaultRng::below(0)");
    // Rejection-free modulo is fine here: injectors need determinism,
    // not statistical perfection.
    return next() % bound;
}

uint64_t
flipBitstreamBit(std::vector<uint64_t> &words, uint64_t totalBits,
                 uint64_t seed)
{
    if (totalBits == 0 || words.empty())
        panic("flipBitstreamBit on an empty bitstream");
    FaultRng rng(seed);
    uint64_t bitIdx = rng.below(std::min<uint64_t>(totalBits,
                                                   words.size() * 64));
    words[bitIdx / 64] ^= 1ull << (bitIdx % 64);
    return bitIdx;
}

uint64_t
flipSnapshotStateBit(fame::ReplayableSnapshot &snap,
                     const fame::ScanChains &chains, uint64_t seed)
{
    std::vector<uint64_t> words = chains.encode(snap.state);
    uint64_t bitIdx = flipBitstreamBit(words, chains.totalBits(), seed);
    uint64_t cycle = snap.state.cycle;
    snap.state = chains.decode(words);
    snap.state.cycle = cycle;
    return bitIdx;
}

namespace {

size_t
perturbTokenIn(std::vector<std::vector<uint64_t>> &trace, uint64_t seed,
               const char *what)
{
    FaultRng rng(seed);
    std::vector<size_t> candidates;
    for (size_t t = 0; t < trace.size(); ++t) {
        if (!trace[t].empty())
            candidates.push_back(t);
    }
    if (candidates.empty())
        panic("no %s tokens to perturb", what);
    size_t t = candidates[rng.below(candidates.size())];
    size_t port = rng.below(trace[t].size());
    trace[t][port] ^= 1ull;
    return t;
}

} // namespace

size_t
perturbInputToken(fame::ReplayableSnapshot &snap, uint64_t seed)
{
    return perturbTokenIn(snap.inputTrace, seed, "input");
}

size_t
perturbOutputToken(fame::ReplayableSnapshot &snap, uint64_t seed)
{
    return perturbTokenIn(snap.outputTrace, seed, "output");
}

const char *
fileFaultName(FileFault kind)
{
    switch (kind) {
      case FileFault::BitFlip:
        return "bit-flip";
      case FileFault::Truncate:
        return "truncate";
      case FileFault::HeaderGarbage:
        return "header-garbage";
    }
    return "unknown";
}

std::string
corruptBytes(std::string bytes, FileFault kind, uint64_t seed)
{
    FaultRng rng(seed);
    if (bytes.empty())
        return bytes;
    switch (kind) {
      case FileFault::BitFlip: {
          uint64_t bitIdx = rng.below(bytes.size() * 8);
          bytes[bitIdx / 8] =
              static_cast<char>(static_cast<uint8_t>(bytes[bitIdx / 8]) ^
                                (1u << (bitIdx % 8)));
          break;
      }
      case FileFault::Truncate: {
          // A proper prefix: at least one byte gone, possibly all.
          bytes.resize(rng.below(bytes.size()));
          break;
      }
      case FileFault::HeaderGarbage: {
          size_t n = std::min<size_t>(16, bytes.size());
          for (size_t i = 0; i < n; ++i)
              bytes[i] = static_cast<char>(rng.next() & 0xff);
          break;
      }
    }
    return bytes;
}

util::Status
corruptFile(const std::string &path, FileFault kind, uint64_t seed)
{
    util::Result<std::string> bytes = util::readFile(path);
    if (!bytes.isOk())
        return bytes.status();
    return util::writeFileAtomic(path,
                                 corruptBytes(std::move(*bytes), kind, seed));
}

util::Result<std::string>
corruptOneFileIn(const std::string &dir, const std::string &suffix,
                 FileFault kind, uint64_t seed)
{
    namespace fs = std::filesystem;
    std::vector<std::string> candidates;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
            candidates.push_back(entry.path().string());
        }
    }
    if (candidates.empty()) {
        return util::errorf(ErrorCode::InvalidArgument,
                            "no '*%s' files in '%s' to corrupt",
                            suffix.c_str(), dir.c_str());
    }
    std::sort(candidates.begin(), candidates.end());
    FaultRng rng(seed);
    const std::string &victim = candidates[rng.below(candidates.size())];
    util::Status st = corruptFile(victim, kind, seed);
    if (!st.isOk())
        return st;
    return victim;
}

} // namespace inject
} // namespace strober
