/**
 * @file
 * Incremental farm work feed: streams reservoir captures to worker
 * processes WHILE the fast simulation is still running, so gate-level
 * replay overlaps phase 1 instead of waiting for it (the multi-process
 * counterpart of the in-process core::ReplayEngine).
 *
 * Shard manifests keep their single-writer discipline — the stream
 * never appends to them. Instead the producer drops one small CRC'd
 * entry file per published capture into "<run dir>/stream/", workers
 * poll the directory and replay entries straight into the
 * content-addressed result cache (exactly the work-stealing publish
 * path: cache only, no manifest writes), and when the fast sim ends the
 * producer runs the ordinary plan() + workShard() + collect() flow —
 * which now finds the cache warm. Bit-identity and kill -9 resume
 * therefore hold *by construction*: the stream only changes when
 * results enter the cache, never what they contain.
 *
 * Reservoir replacement supersedes streamed work with a tombstone file:
 * workers skip tombstoned entries they have not replayed yet, and a
 * result already published for one stays in the cache — it is
 * content-addressed and valid for any future run that samples the same
 * interval, so cancellation never poisons the cache.
 *
 * Adaptive termination (--ci-bound) rides on the same feed: the
 * producer periodically polls the cache for completed live entries,
 * folds them into stats::SampleStats, and once the CI is tight enough
 * writes an "early" done marker (workers stop draining), skipping
 * plan/collect entirely in favor of aggregating the completed subset.
 */

#ifndef STROBER_FARM_STREAM_H
#define STROBER_FARM_STREAM_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/replay_executor.h"
#include "fame/sampler.h"
#include "farm/result_cache.h"
#include "util/status.h"

namespace strober {
namespace farm {

/** Stream feed subdirectory of a farm run directory. */
std::string streamDir(const std::string &runDir);

/** Path of the feed's compatibility meta file (a header-only shard
 *  manifest: core/workload names, shard count, fingerprints). Stream
 *  workers read it to reconstruct the design before any real manifest
 *  exists. */
std::string streamMetaPath(const std::string &runDir);

/**
 * Producer: written right after plan() succeeds on a streamed run.
 * Stream workers wait for this marker before entering the manifest
 * phase — the manifests on disk before it appears may belong to a
 * stale prior run, and touching them would race the planner's
 * single-writer rewrite.
 */
util::Status writePlanMarker(const std::string &runDir);

/** Worker: has the producer planned the manifests yet? */
bool planMarkerExists(const std::string &runDir);

/**
 * Producer half of the feed. Install on the run's SnapshotSampler via
 * setObserver(); every completed capture becomes a snapshot file plus
 * an entry file in the stream directory, every eviction a tombstone.
 * Single-threaded by design: all calls (observer callbacks, polls)
 * happen on the fast-sim thread. Publish failures are sticky-warned
 * and skipped — a missing stream entry only costs overlap, never
 * correctness (the plan() phase replays it normally).
 *
 * Created by FarmOrchestrator::openStreamFeed(); must not outlive the
 * orchestrator.
 */
class StreamFeed : public fame::SampleObserver
{
  public:
    /** One published, not-yet-superseded capture. */
    struct LiveEntry
    {
        uint64_t seq = 0;
        uint64_t slot = 0;
        uint64_t generation = 0;
        uint64_t cycle = 0;
        uint64_t stallCycles = 0;
        std::string snapshotFile; //!< relative to the stream dir
        CacheKey key;
    };

    /** Optional gauge hook (service Stats): +1 per publish, -1 per
     *  supersede, -1 when pollCompleted() first observes a result.
     *  The job executor zeroes whatever remains outstanding at exit. */
    std::function<void(int64_t)> inFlightHook;

    // fame::SampleObserver
    void onSnapshotReady(size_t slot, uint64_t generation,
                         std::shared_ptr<const fame::ReplayableSnapshot>
                             snap) override;
    void onSlotEvicted(size_t slot, uint64_t generation) override;

    /** Write the done marker. @p earlyStop tells draining workers to
     *  abandon unprocessed entries instead of finishing them. */
    util::Status finish(bool earlyStop);

    /**
     * Poll @p store for live entries that completed since the last
     * call; returns the total number of live entries with a known
     * result. Cheap per new completion (one cache lookup each);
     * already-known completions are not re-read.
     */
    size_t pollCompleted(ResultCache &store);

    /**
     * Replay records of the completed live entries, slot order,
     * outcome.index rewritten to the compacted position — the
     * early-stop aggregation input.
     */
    std::vector<core::ReplayRecord> completedRecords() const;

    /**
     * Adaptive-termination check (Config::earlyStopProbe body): poll
     * @p store for new completions, then evaluate the Section III-A
     * estimate over every completed live capture. True once at least
     * max(min(30, @p reservoirSize), 2) results exist (the Eq. 8
     * n >= 30 floor), the population covers the sample, the mean is
     * positive and relativeError() < @p bound. Callers throttle —
     * each call costs one cache lookup per outstanding entry.
     */
    bool ciBoundMet(ResultCache &store, double bound, double confidence,
                    uint64_t populationSize, size_t reservoirSize);

    uint64_t published() const { return publishedCount; }
    uint64_t superseded() const { return supersededCount; }
    /** Live entries with no known result yet (gauge bookkeeping). */
    uint64_t outstanding() const;
    /** First publish error, if any (the feed keeps going without the
     *  failed entries). */
    const util::Status &status() const { return firstError; }
    const std::string &directory() const { return dir; }

  private:
    friend class FarmOrchestrator;
    StreamFeed(std::string streamDirPath, const fame::ScanChains &chains,
               const core::EnergySimulator::Config &sim, uint64_t netFp,
               uint64_t cfgFp);

    void gauge(int64_t delta);

    std::string dir;
    const fame::ScanChains &chainMeta;
    const core::EnergySimulator::Config &sim;
    uint64_t netlistFp;
    uint64_t configFp;

    uint64_t nextSeq = 0;
    uint64_t publishedCount = 0;
    uint64_t supersededCount = 0;
    std::map<uint64_t, LiveEntry> live;                //!< by slot
    std::map<uint64_t, core::ReplayRecord> completed;  //!< by slot
    util::Status firstError = util::Status::ok();
};

/** What a worker's stream-drain pass observed. */
struct StreamDrainOutcome
{
    bool sawDoneMarker = false;
    bool earlyStop = false; //!< done marker said "early": no plan phase
    bool canceled = false;  //!< job cancel; feed may still be live
    uint64_t replayed = 0;
    uint64_t cacheHits = 0;
    uint64_t tombstoned = 0;
};

} // namespace farm
} // namespace strober

#endif // STROBER_FARM_STREAM_H
