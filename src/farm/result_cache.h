/**
 * @file
 * Content-addressed store of per-snapshot replay results.
 *
 * A gate-level replay is a pure function of (snapshot content, gate
 * netlist, replay-relevant config, power model). The cache key hashes
 * exactly those inputs — the snapshot's serialized section CRCs
 * (fame::SnapshotDigest), gate::netlistFingerprint, the replay-relevant
 * EnergySimulator::Config fields, and power::kPowerModelVersion — so a
 * hit is guaranteed to be the bit-identical record a fresh replay would
 * produce, and any change to design, config or model misses cleanly.
 *
 * Entries live one-per-file in a directory ("<keyhex>.strbres"), each
 * CRC-protected and written atomically (temp + rename). A corrupt,
 * truncated or wrong-version entry is *detected and treated as a miss*
 * — it costs one recompute, never a wrong number and never a
 * quarantined snapshot (tests/test_faults.cc poisons entries to prove
 * it). Only successfully replayed (verified) results are stored:
 * failures always recompute, so a transient fault can never be
 * laundered into a persistent quarantine.
 */

#ifndef STROBER_FARM_RESULT_CACHE_H
#define STROBER_FARM_RESULT_CACHE_H

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "core/replay_executor.h"
#include "fame/snapshot_io.h"
#include "util/status.h"

namespace strober {
namespace farm {

/** 128-bit content-address of one replay result. */
struct CacheKey
{
    uint64_t hi = 0;
    uint64_t lo = 0;

    /** 32 lowercase hex chars; the cache entry's file stem. */
    std::string hex() const;
    /** Parse hex(); empty optional on malformed input. */
    static std::optional<CacheKey> fromHex(const std::string &hex);

    bool operator==(const CacheKey &o) const
    {
        return hi == o.hi && lo == o.lo;
    }
};

/**
 * Fingerprint of the EnergySimulator::Config fields a per-snapshot
 * replay result depends on (replay length, loader, clock, watchdog,
 * retry policy). Aggregation-level knobs (confidence, floors/ceilings)
 * are deliberately excluded: changing them re-aggregates cached records
 * without re-replaying anything — that is the incremental-re-estimation
 * path.
 */
uint64_t replayConfigFingerprint(const core::EnergySimulator::Config &cfg);

/** Derive the content address of one snapshot's replay result. */
CacheKey makeCacheKey(const fame::SnapshotDigest &digest,
                      uint64_t netlistFingerprint,
                      uint64_t configFingerprint,
                      uint32_t powerModelVersion,
                      uint64_t injectedStallCycles = 0);

/** On-disk result store; every method is safe to call concurrently from
 *  multiple processes (atomic writes, idempotent content). */
class ResultCache
{
  public:
    /**
     * Opens (and creates if needed) the store at @p dir. If the
     * directory cannot be created the cache is unusable but harmless:
     * every lookup() misses and every store() returns that error, so
     * callers run uncached.
     */
    explicit ResultCache(std::string dir);

    const std::string &directory() const { return root; }

    /**
     * Look up @p key. A valid entry returns the stored record (with
     * fromCache set; outcome.index is NOT meaningful — callers assign
     * their own). Absent entries are misses; corrupt entries are
     * removed, counted, and reported as misses.
     */
    std::optional<core::ReplayRecord> lookup(const CacheKey &key);

    /**
     * Store a record under @p key (atomic write). Only Replayed
     * outcomes are accepted; anything else fails with InvalidArgument.
     * An unusable store fails with IoError.
     */
    util::Status store(const CacheKey &key, const core::ReplayRecord &rec);

    /** Path the entry for @p key lives at (whether or not it exists). */
    std::string entryPath(const CacheKey &key) const;

    /** Number of entries currently on disk. */
    size_t entryCount() const;

    /**
     * Garbage-collection policy: an entry survives only if it passes
     * *every* enabled limit. Retention is always newest-first (by
     * mtime; a cache hit does not touch mtime, so "age" is time since
     * the result was computed).
     */
    struct TrimPolicy
    {
        /** Keep at most this many entries (SIZE_MAX = unlimited). */
        size_t keepCount = SIZE_MAX;
        /** Evict entries older than this many seconds (0 = no limit). */
        uint64_t maxAgeSeconds = 0;
        /** Evict oldest entries until the total size of what remains
         *  fits this budget in bytes (0 = no budget). */
        uint64_t maxTotalBytes = 0;
    };

    struct TrimResult
    {
        size_t examined = 0;      //!< entries present before the trim
        size_t evicted = 0;       //!< entries removed
        uint64_t bytesEvicted = 0;
        uint64_t bytesKept = 0;   //!< total size of surviving entries
    };

    /** Garbage-collect per @p policy; bumps Stats::evictions. */
    TrimResult trim(const TrimPolicy &policy);

    /**
     * Garbage-collect: keep the @p keep most-recently-modified entries,
     * delete the rest. @return number of entries removed.
     */
    size_t trim(size_t keep);

    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;         //!< absent entries
        uint64_t corruptEntries = 0; //!< detected + degraded to miss
        uint64_t stores = 0;
        uint64_t evictions = 0;      //!< entries removed by trim()
    };
    /** A snapshot of the counters (safe while other threads use the
     *  cache: replay engine workers share one). */
    Stats stats() const;

  private:
    std::string root;
    util::Status openError; //!< why the directory is unusable
    struct
    {
        std::atomic<uint64_t> hits{0}, misses{0}, corruptEntries{0},
            stores{0}, evictions{0};
    } counters;
};

} // namespace farm
} // namespace strober

#endif // STROBER_FARM_RESULT_CACHE_H
