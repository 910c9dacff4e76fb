/**
 * @file
 * Replay-farm orchestration (paper Section III-B: snapshot replays are
 * embarrassingly parallel, "run on multiple instances of gate-level
 * simulation in parallel" — in practice a pool of worker processes over
 * a shared filesystem).
 *
 * Two layers, both built on the determinism contract of the core
 * replay engine (records are a pure function of snapshot + design +
 * config, so the report is bit-identical however the work is executed):
 *
 *  - CachingReplayExecutor: a Config::replayExecutor store that puts a
 *    persistent content-addressed ResultCache in front of the engine's
 *    replays. A warm re-estimate of an unchanged design performs ZERO
 *    gate-level replays and still produces the bit-identical report.
 *
 *  - FarmOrchestrator: a durable multi-process run. plan() snapshots
 *    the work into per-shard manifest files, workShard() is the worker
 *    loop (lease → cache-or-replay → publish → mark done, then steal
 *    from other shards), collect() assembles the final report. Every
 *    state change is an atomic file replace, so a SIGKILL at any
 *    instant costs at most the replays that were in flight; a resumed
 *    run reproduces the uninterrupted report bit-for-bit.
 */

#ifndef STROBER_FARM_FARM_H
#define STROBER_FARM_FARM_H

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/replay_executor.h"
#include "farm/manifest.h"
#include "farm/result_cache.h"
#include "fame/fame1.h"
#include "fame/sampler.h"
#include "util/status.h"

namespace strober {
namespace farm {

class StreamFeed;
struct StreamDrainOutcome;

/**
 * The failed result-cache stores of one executor or orchestrator. A
 * cache that cannot be written fails every store the same way, so
 * instead of one warning per snapshot this logs a single warning, with
 * the count and the first failure, when it goes away. A failed store
 * never changes a number: the run just goes on uncached.
 */
class StoreFailures
{
  public:
    /** @p what names the failing operation in the warning. */
    explicit StoreFailures(const char *what) : what(what) {}
    ~StoreFailures();

    StoreFailures(const StoreFailures &) = delete;
    StoreFailures &operator=(const StoreFailures &) = delete;

    /** Count one failed store; thread-safe. */
    void note(const std::string &detail);
    uint64_t count() const;

  private:
    const char *what;
    mutable std::mutex mu;
    uint64_t failures = 0;
    std::string first; //!< detail of the first failure
};

/**
 * ResultCache adapter for EnergySimulator::Config::replayExecutor: the
 * replay engine (estimate() and estimateStreaming() alike) looks every
 * snapshot up before replaying it and stores verified results. Hits
 * never change the numbers — the key covers every replay-relevant
 * input, so a hit IS the record a fresh replay would produce. Serves
 * one engine at a time.
 */
class CachingReplayExecutor : public core::ReplayStore
{
  public:
    explicit CachingReplayExecutor(std::string cacheDir)
        : store(std::move(cacheDir))
    {
    }

    void bind(const core::ReplayContext &ctx) override;
    std::vector<core::ReplayRecord>
    fetch(const core::ReplayContext &ctx,
          const std::vector<core::ReplayUnit> &units,
          const Replay &replay) override;

    /** Gate-level replays actually performed, one per missed snapshot
     *  (0 on a fully warm cache). */
    uint64_t replaysExecuted() const { return executed; }

    ResultCache &cache() { return store; }
    ResultCache::Stats cacheStats() const { return store.stats(); }
    /** Verified results the cache could not store. */
    uint64_t storeFailures() const { return failedStores.count(); }

  private:
    ResultCache store;
    uint64_t netlistFp = 0; //!< of the bound context
    uint64_t configFp = 0;
    std::atomic<uint64_t> executed{0};
    StoreFailures failedStores{"result cache store"};
};

/** Configuration of one farm run. */
struct FarmConfig
{
    std::string dir;      //!< run directory (manifests + snapshot files)
    std::string cacheDir; //!< result cache; empty = "<dir>/cache"
    unsigned shards = 1;  //!< work-queue shards (>= worker count is best)
    core::EnergySimulator::Config sim; //!< replay + aggregation knobs
    std::string coreName;              //!< design name (worker respawn)
    std::string workloadName;          //!< informational
    /** Wall-clock lease duration: a Leased entry whose deadline passes
     *  is presumed held by a dead or wedged worker, and peers reclaim
     *  it (steal phase) without waiting for the process to exit. Must
     *  comfortably exceed the wall time of one batch of leases (up
     *  to gate::kReplayLanes replays in one pass). */
    uint64_t leaseDurationMs = 10 * 60 * 1000;
    /** Test hook: called right after an entry is leased, before its
     *  replay. Fault-injection tests raise signals here to probe the
     *  crash-only lifecycle at a deterministic point. */
    std::function<void(unsigned shard, const ManifestEntry &)> entryHook;

    /** The effective cache directory. */
    std::string effectiveCacheDir() const
    {
        return cacheDir.empty() ? dir + "/cache" : cacheDir;
    }
};

/**
 * Orchestrates a durable replay-farm run over one design. The same
 * object (or separate processes each holding one, pointed at the same
 * run directory) drives planning, working and collection.
 */
class FarmOrchestrator
{
  public:
    FarmOrchestrator(const rtl::Design &target, FarmConfig config);

    FarmOrchestrator(const FarmOrchestrator &) = delete;
    FarmOrchestrator &operator=(const FarmOrchestrator &) = delete;

    /**
     * Write the work queue: one snapshot file per sample plus one
     * manifest per shard (entries round-robin over shards). Snapshot
     * files are always rewritten (healing any corruption on disk);
     * completed entries of a previous compatible run — same design,
     * config and power-model fingerprints — keep their Done state, so
     * resuming a killed run redoes only unfinished work. Quarantined
     * entries are deliberately reset to Pending: failures always
     * recompute (mirroring the cache's only-successes policy), so a
     * transient fault never pins a stale quarantine. Fails with
     * InvalidArgument when cfg.shards is 0.
     */
    util::Status plan(const std::vector<const fame::ReplayableSnapshot *>
                          &snapshots,
                      uint64_t population);

    /**
     * Worker loop for shard @p shard: lease pending entries (one atomic
     * manifest write and one cfg.entryHook call each), mark cache hits
     * done, and replay the leased misses in batches of up to
     * gate::kReplayLanes, publishing each batch's results and writing
     * its Done/Quarantined states in one more manifest write. After
     * draining its own shard the worker steals other shards' pending
     * entries — plus entries whose lease deadline has expired (a
     * wedged peer) — in batches from the back of their lists,
     * publishing results to the cache only (never writing a foreign
     * manifest); owners and the collector observe the hits. Fails if
     * the manifest was planned against a different design/config/power
     * model.
     *
     * Honors cfg.sim.job: a cancel (drain) checkpoints — a lease taken
     * as the cancel arrives reverts to Pending, the leases already held
     * finish their batch and are recorded, and the call returns ok with
     * the rest of the queue untouched, so a later run resumes
     * bit-identically. A passed deadline turns remaining replays into
     * deterministic TimedOut quarantines (the job terminates with a
     * degraded report).
     */
    util::Status workShard(unsigned shard);

    /**
     * Assemble the final report from the manifests and the cache.
     * Entries that are still unfinished (or whose cache entry was lost
     * or corrupted) are replayed inline, gate::kReplayLanes per pass.
     * Must run after the workers have exited. The report is
     * bit-identical to a plain in-process estimate() of the same
     * sample — for any shard count, worker count, kill/resume history
     * or cache state. A cancel via cfg.sim.job, seen before a pass,
     * persists the states observed so far and returns
     * ErrorCode::Canceled instead of a report. A fully warm collect
     * never lowers the netlist.
     */
    util::Result<core::EnergyReport> collect();

    // --- Streaming (src/farm/stream.h) ----------------------------------

    /**
     * Open the incremental work feed for a streamed run: creates the
     * stream directory and its compatibility meta file, and returns
     * the producer-side observer to install on the run's sampler.
     * Call before spawning stream workers (they wait for the meta).
     * The feed borrows this orchestrator's products; it must not
     * outlive it.
     */
    util::Result<std::unique_ptr<StreamFeed>> openStreamFeed();

    /**
     * Worker side: drain the stream feed, replaying every
     * non-tombstoned entry whose result is not already cached and
     * publishing to the cache ONLY (the work-stealing discipline — no
     * manifest exists yet). Entries are taken own-partition first
     * (seq % @p slots == @p slot), then the rest, and replayed in
     * batches of up to gate::kReplayLanes; tombstones are checked
     * again after a batch's files are loaded, just before it replays.
     * Returns when the done marker exists and everything is processed,
     * when the marker says the run stopped early, or on job cancel.
     * Polls every @p pollMs; gives up with DeadlineExceeded if the meta
     * file does not appear within @p metaWaitMs.
     */
    util::Result<StreamDrainOutcome> drainStream(unsigned slot,
                                                 unsigned slots,
                                                 uint64_t pollMs = 25,
                                                 uint64_t metaWaitMs =
                                                     60 * 1000);

    /**
     * Early-stop aggregation: build the report from the completed
     * subset of @p feed's live entries (the decision set the CI bound
     * was met on) instead of plan()/collect(). The report is marked
     * earlyStopped; its sample is whatever had finished when the bound
     * was crossed.
     */
    util::Result<core::EnergyReport> collectStreamEarly(StreamFeed &feed,
                                                        uint64_t population);

    /** Work-queue state summary (for `strober-farm status`). */
    struct Progress
    {
        uint64_t pending = 0;
        uint64_t leased = 0;
        uint64_t done = 0;
        uint64_t quarantined = 0;
        uint64_t total = 0;
        uint32_t shards = 0;
    };
    util::Result<Progress> progress() const;

    /** Gate-level replays this process performed (own, stolen,
     *  streamed and collected). */
    uint64_t replaysExecuted() const { return executed; }
    /** Replayed results this process could not publish to the cache. */
    uint64_t publishFailures() const { return failedPublishes.count(); }

    ResultCache &cache() { return store; }
    const FarmConfig &config() const { return cfg; }

  private:
    const rtl::Design &target;
    FarmConfig cfg;
    ResultCache store;

    // Capture geometry (snapshots were captured from the FAME1 design).
    fame::Fame1Design fame;
    fame::ScanChains chainMeta;

    core::AsicFlow asic;

    uint64_t executed = 0;
    StoreFailures failedPublishes{"farm result publish"};
    /** Built on the first replay, so a fully warm run never lowers the
     *  netlist. */
    std::unique_ptr<core::ReplayTables> tables;

    /** One snapshot file to replay. */
    struct FileUnit
    {
        size_t index = 0;   //!< sample index: stall-plan key, outcome.index
        uint64_t cycle = 0; //!< capture cycle (for a load-failure record)
        std::string path;
        uint64_t stallCycles = 0; //!< injected stall of this snapshot
        CacheKey key;             //!< where its verified record goes
    };

    std::string manifestPath(uint32_t shard) const;
    util::Result<std::vector<ShardManifest>>
    loadAllManifests(bool reclaimLeases) const;
    util::Status checkCompatible(const ShardManifest &m);
    FileUnit unitOf(const ManifestEntry &entry) const;

    /**
     * The records of @p units (at most gate::kReplayLanes), in order:
     * each file is loaded, an unreadable one becomes its load-failure
     * quarantine record, and the rest replay in one
     * core::replaySnapshots() call under @p applied. Verified records
     * are published to the cache; a failed store only warns. If @p keep
     * is set it is asked, after loading, about each unit by its
     * position in @p units; the units it rejects are erased from
     * @p units and not replayed.
     */
    std::vector<core::ReplayRecord>
    replayAndPublish(std::vector<FileUnit> &units,
                     const core::EnergySimulator::Config &applied,
                     const std::function<bool(size_t)> &keep = nullptr);
};

/** Copy a failed replay's outcome into a manifest entry's fail fields. */
void recordFailure(ManifestEntry &entry, const core::ReplayRecord &rec);

/** Rebuild a quarantined outcome from a manifest entry's fail fields. */
core::ReplayRecord failureRecord(const ManifestEntry &entry);

} // namespace farm
} // namespace strober

#endif // STROBER_FARM_FARM_H
