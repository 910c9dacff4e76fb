#include "farm/result_cache.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <vector>

#include "farm/wire.h"
#include "util/file_io.h"
#include "util/logging.h"

namespace strober {
namespace farm {

namespace fs = std::filesystem;
using util::ErrorCode;
using util::errorf;
using util::Status;

namespace {

constexpr uint64_t kEntryMagic = 0x5354524252455331ull; // "STRBRES1"
constexpr uint32_t kEntryVersion = 1;
constexpr const char *kEntrySuffix = ".strbres";

/** FNV-1a over the key material, from a caller-chosen offset basis. */
uint64_t
foldKeyMaterial(uint64_t basis, const fame::SnapshotDigest &digest,
                uint64_t netlistFp, uint64_t configFp,
                uint32_t powerVersion, uint64_t stalls)
{
    uint64_t h = basis;
    auto fold = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (uint32_t c : digest.section)
        fold(c);
    fold(netlistFp);
    fold(configFp);
    fold(powerVersion);
    fold(stalls);
    return h;
}

} // namespace

std::string
CacheKey::hex() const
{
    char out[33];
    std::snprintf(out, sizeof(out), "%016llx%016llx",
                  (unsigned long long)hi, (unsigned long long)lo);
    return out;
}

std::optional<CacheKey>
CacheKey::fromHex(const std::string &hex)
{
    if (hex.size() != 32 ||
        hex.find_first_not_of("0123456789abcdef") != std::string::npos)
        return std::nullopt;
    CacheKey key;
    key.hi = std::strtoull(hex.substr(0, 16).c_str(), nullptr, 16);
    key.lo = std::strtoull(hex.substr(16).c_str(), nullptr, 16);
    return key;
}

uint64_t
replayConfigFingerprint(const core::EnergySimulator::Config &cfg)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto fold = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    fold(cfg.replayLength);
    uint64_t clockBits;
    static_assert(sizeof(clockBits) == sizeof(cfg.clockHz));
    std::memcpy(&clockBits, &cfg.clockHz, sizeof(clockBits));
    fold(clockBits);
    fold(static_cast<uint64_t>(cfg.loader));
    fold(cfg.replayTimeoutCycles);
    fold(cfg.retryFaultySnapshots ? 1 : 0);
    // Trace-stimulus identity: generated workloads fold 0, preserving
    // every pre-trace fingerprint; trace runs can never alias them.
    if (cfg.stimulusFingerprint != 0)
        fold(cfg.stimulusFingerprint);
    return h;
}

CacheKey
makeCacheKey(const fame::SnapshotDigest &digest, uint64_t netlistFingerprint,
             uint64_t configFingerprint, uint32_t powerModelVersion,
             uint64_t injectedStallCycles)
{
    CacheKey key;
    key.hi = foldKeyMaterial(0xcbf29ce484222325ull, digest,
                             netlistFingerprint, configFingerprint,
                             powerModelVersion, injectedStallCycles);
    key.lo = foldKeyMaterial(0x6c62272e07bb0142ull, digest,
                             netlistFingerprint, configFingerprint,
                             powerModelVersion, injectedStallCycles);
    return key;
}

ResultCache::ResultCache(std::string dir) : root(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(root, ec);
    if (ec) {
        openError = errorf(ErrorCode::IoError,
                           "cannot create result-cache directory '%s': %s",
                           root.c_str(), ec.message().c_str());
    }
}

std::string
ResultCache::entryPath(const CacheKey &key) const
{
    return (fs::path(root) / (key.hex() + kEntrySuffix)).string();
}

std::optional<core::ReplayRecord>
ResultCache::lookup(const CacheKey &key)
{
    std::string path = entryPath(key);
    util::Result<std::string> bytes = util::readFile(path);
    if (!bytes.isOk()) { // absent (or an unusable store)
        ++counters.misses;
        return std::nullopt;
    }
    wire::Reader r(std::move(*bytes));

    core::ReplayRecord rec;
    bool ok = true;
    ok = ok && r.u64() == kEntryMagic;
    ok = ok && r.u64() == kEntryVersion;
    if (ok) {
        rec.outcome.cycle = r.u64();
        rec.outcome.status =
            static_cast<core::SnapshotStatus>(r.u64() & 0xff);
        rec.outcome.attempts = static_cast<unsigned>(r.u64());
        rec.outcome.retriedOnAlternateLoader = r.u64() != 0;
        rec.outcome.mismatches = r.u64();
        rec.outcome.detail = r.str();
        rec.modeledLoadSeconds = r.f64();
        rec.totalWatts = r.f64();
        uint64_t groups = r.u64();
        ok = groups <= wire::kMaxDim;
        for (uint64_t i = 0; ok && i < groups; ++i) {
            std::string name = r.str();
            double watts = r.f64();
            rec.groups.emplace_back(std::move(name), watts);
        }
    }
    ok = ok && r.atEnd() &&
         rec.outcome.status == core::SnapshotStatus::Replayed;
    if (!ok) {
        // Corrupt / stale-format entry: delete it and degrade to a
        // miss — one recompute, never a wrong number, never a fault.
        ++counters.corruptEntries;
        ++counters.misses;
        warn("result cache entry %s is corrupt; treating as a miss",
             key.hex().c_str());
        std::error_code ec;
        fs::remove(path, ec);
        return std::nullopt;
    }
    rec.fromCache = true;
    ++counters.hits;
    return rec;
}

util::Status
ResultCache::store(const CacheKey &key, const core::ReplayRecord &rec)
{
    if (!openError.isOk())
        return openError;
    if (rec.outcome.status != core::SnapshotStatus::Replayed) {
        return errorf(ErrorCode::InvalidArgument,
                      "only verified replay results are cacheable; "
                      "'%s' outcomes always recompute",
                      core::snapshotStatusName(rec.outcome.status));
    }
    wire::Writer w;
    w.u64(kEntryMagic);
    w.u64(kEntryVersion);
    w.u64(rec.outcome.cycle);
    w.u64(static_cast<uint64_t>(rec.outcome.status));
    w.u64(rec.outcome.attempts);
    w.u64(rec.outcome.retriedOnAlternateLoader ? 1 : 0);
    w.u64(rec.outcome.mismatches);
    w.str(rec.outcome.detail);
    w.f64(rec.modeledLoadSeconds);
    w.f64(rec.totalWatts);
    w.u64(rec.groups.size());
    for (const auto &[name, watts] : rec.groups) {
        w.str(name);
        w.f64(watts);
    }
    Status st = util::writeFileAtomic(entryPath(key), w.sealed());
    if (st.isOk())
        ++counters.stores;
    return st;
}

ResultCache::Stats
ResultCache::stats() const
{
    Stats s;
    s.hits = counters.hits;
    s.misses = counters.misses;
    s.corruptEntries = counters.corruptEntries;
    s.stores = counters.stores;
    s.evictions = counters.evictions;
    return s;
}

size_t
ResultCache::entryCount() const
{
    size_t n = 0;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(root, ec)) {
        if (e.path().extension() == kEntrySuffix)
            ++n;
    }
    return n;
}

ResultCache::TrimResult
ResultCache::trim(const TrimPolicy &policy)
{
    struct Entry
    {
        fs::file_time_type mtime;
        uint64_t bytes;
        fs::path path;
    };
    std::vector<Entry> entries;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(root, ec)) {
        if (e.path().extension() != kEntrySuffix)
            continue;
        uint64_t sz = fs::file_size(e.path(), ec);
        if (ec)
            sz = 0;
        entries.push_back({fs::last_write_time(e.path(), ec), sz,
                           e.path()});
    }
    // Newest first: every limit retains from the front.
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.mtime > b.mtime;
              });

    TrimResult result;
    result.examined = entries.size();
    fs::file_time_type cutoff = fs::file_time_type::min();
    if (policy.maxAgeSeconds != 0) {
        cutoff = fs::file_time_type::clock::now() -
                 std::chrono::seconds(policy.maxAgeSeconds);
    }
    uint64_t keptBytes = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
        const Entry &e = entries[i];
        bool evict = i >= policy.keepCount;
        evict = evict || (policy.maxAgeSeconds != 0 && e.mtime < cutoff);
        evict = evict || (policy.maxTotalBytes != 0 &&
                          keptBytes + e.bytes > policy.maxTotalBytes);
        if (!evict) {
            keptBytes += e.bytes;
            continue;
        }
        if (fs::remove(e.path, ec)) {
            ++result.evicted;
            result.bytesEvicted += e.bytes;
        } else {
            keptBytes += e.bytes; // still on disk; count it honestly
        }
    }
    result.bytesKept = keptBytes;
    counters.evictions += result.evicted;
    return result;
}

size_t
ResultCache::trim(size_t keep)
{
    TrimPolicy policy;
    policy.keepCount = keep;
    return trim(policy).evicted;
}

} // namespace farm
} // namespace strober
