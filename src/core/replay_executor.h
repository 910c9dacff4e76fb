/**
 * @file
 * The one replay engine behind EnergySimulator::estimate() and
 * estimateStreaming() (paper Section III-B / IV-E: snapshots are
 * independent, so *how* they are replayed — one thread, P worker
 * threads, a multi-process farm with a persistent result cache — must
 * not change the numbers).
 *
 * The contract every replay path honors: records[i] is a pure function
 * of (snapshot i, design products, replay-relevant config). Aggregation
 * runs in snapshot order over the records, so any schedule that fills
 * each slot with that pure-function value yields a report bit-identical
 * to the single-threaded reference — for any worker count, any shard
 * assignment, and any cache hit pattern (tests/test_farm.cc locks this
 * down).
 */

#ifndef STROBER_CORE_REPLAY_EXECUTOR_H
#define STROBER_CORE_REPLAY_EXECUTOR_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/energy_sim.h"
#include "fame/sampler.h"
#include "gate/program.h"
#include "power/power_analysis.h"

namespace strober {
namespace core {

/** One unit of replay work: a sampled snapshot and its sample index. */
struct ReplayUnit
{
    size_t index = 0;
    const fame::ReplayableSnapshot *snap = nullptr;
};

/**
 * The per-snapshot value a replay must produce: the outcome record plus
 * the power numbers of a verified replay. `fromCache` marks results
 * served by a ReplayStore instead of a fresh gate-level replay; it
 * feeds the report's hit/miss accounting only and never changes the
 * numbers.
 */
struct ReplayRecord
{
    SnapshotOutcome outcome;
    double modeledLoadSeconds = 0;
    double totalWatts = 0;
    std::vector<std::pair<std::string, double>> groups;
    bool fromCache = false;
};

/** Everything a replay needs besides the snapshot itself. */
struct ReplayContext
{
    const rtl::Design &target;
    const gate::SynthesisResult &synth;
    const gate::Placement &placement;
    const gate::MatchTable &match;
    /** Capture geometry of the snapshots (content-digest input for
     *  result stores; replay itself does not consume it). */
    const fame::ScanChains &chains;
    const EnergySimulator::Config &cfg;
    uint64_t cycleBudget = 0; //!< resolved watchdog budget (never 0)
};

/** Quarantine status of a failed replay or snapshot load, from its
 *  error code. */
SnapshotStatus classifyReplayError(util::ErrorCode code);

/**
 * Watchdog budget for one replay: the configured value, or a generous
 * multiple of warm-up + L derived from the netlist's retiming depth so
 * only genuinely hung replays trip it.
 */
uint64_t resolveReplayBudget(const EnergySimulator::Config &cfg,
                             const gate::SynthesisResult &synth);

/**
 * Replay one snapshot with the full fault-handling path: bounded retry
 * on the alternate loader, watchdog, divergence classification,
 * exception containment, power analysis of a verified replay. The
 * single-snapshot face of replaySnapshots(), with the same attempt
 * policy and the same records.
 */
ReplayRecord replaySnapshot(gate::GateSimulator &gsim,
                            const ReplayContext &ctx,
                            const ReplayUnit &unit);

/** Per-netlist tables every batched replay of a netlist shares
 *  read-only: the lowered gate program and the power model. */
struct ReplayTables
{
    explicit ReplayTables(const ReplayContext &ctx)
        : program(ctx.synth.netlist),
          power(ctx.synth.netlist, ctx.placement)
    {
    }

    gate::GateProgram program;
    power::PowerModel power;
};

/**
 * THE per-snapshot pure function, over a batch: the record
 * replaySnapshot() would return for each of @p units, in order. Each
 * attempt is one gate::replayLanesOnGate call on @p tables over the
 * units no earlier attempt verified; past the job deadline every unit
 * takes the cut-off record. Every replay path (engine workers, farm
 * worker processes) funnels through it.
 */
std::vector<ReplayRecord>
replaySnapshots(const ReplayContext &ctx, const ReplayTables &tables,
                const std::vector<ReplayUnit> &units);

/**
 * Optional result store the engine consults (Config::replayExecutor):
 * a hit stands in for a gate-level replay, a verified miss is stored.
 * A hit must be the record a fresh replay would produce (farm::
 * CachingReplayExecutor keys a content-addressed cache on every replay
 * input), so a store never changes the numbers.
 */
class ReplayStore
{
  public:
    /** Replays a batch of units, one record per unit, in order. */
    using Replay =
        std::function<std::vector<ReplayRecord>(const std::vector<ReplayUnit> &)>;

    virtual ~ReplayStore() = default;

    /** Called once per engine, before any fetch(), with the context
     *  every following fetch() shares. */
    virtual void bind(const ReplayContext &ctx) = 0;

    /**
     * The records of @p units, in order: stored ones (fromCache set,
     * outcome.index = unit.index) for the hits, and for the misses the
     * records of one call of @p replay on them, stored when verified.
     * Called concurrently from the engine's workers.
     */
    virtual std::vector<ReplayRecord> fetch(const ReplayContext &ctx,
                                            const std::vector<ReplayUnit> &units,
                                            const Replay &replay) = 0;
};

/**
 * The replay engine: a bounded queue of (slot, generation, snapshot)
 * items drained by worker threads. A worker takes up to
 * gate::kReplayLanes items at a time (its share of the queue), asks the
 * store (if any) for them, and replays the misses through
 * replaySnapshots() on one lowering of the netlist shared by all
 * workers. Records are slot-indexed.
 *
 * The feed is the fame::SampleObserver protocol, so estimateStreaming()
 * installs the engine on the sampler and replay overlaps the fast sim:
 * an eviction dequeues the superseded capture if it has not started, or
 * discards its result if it has; either way a superseded generation
 * never reaches the report. Phased estimate() is the same stream with
 * every unit published up front and the feed closed right after.
 * Feed calls come from one producer thread; all shared state sits
 * behind one mutex (the critical sections are tiny next to a replay).
 */
class ReplayEngine : public fame::SampleObserver
{
  public:
    /** Counters of one run (report fields). */
    struct Stats
    {
        uint64_t supersededQueued = 0;  //!< evicted before replay started
        uint64_t supersededResults = 0; //!< evicted during/after replay
        double firstReplayStart = 0;    //!< monotonic s (0 = no replay)
        double lastReplayEnd = 0;

        uint64_t superseded() const
        {
            return supersededQueued + supersededResults;
        }
    };

    /**
     * @p ctx and @p store (optional) must outlive the engine. Starts
     * max(@p workers, 1) replay threads. The queue holds at most
     * @p queueBound items; publishing into a full queue blocks.
     */
    ReplayEngine(const ReplayContext &ctx, ReplayStore *store,
                 unsigned workers, size_t queueBound);
    ~ReplayEngine() override;

    ReplayEngine(const ReplayEngine &) = delete;
    ReplayEngine &operator=(const ReplayEngine &) = delete;

    // fame::SampleObserver: the feed.
    void onSnapshotReady(size_t slot, uint64_t generation,
                         std::shared_ptr<const fame::ReplayableSnapshot>
                             snap) override;
    void onSlotEvicted(size_t slot, uint64_t generation) override;

    /** Total power of every completed current-generation verified
     *  replay, slot order (the adaptive-termination input). */
    stats::SampleStats completedPower() const;

    /** Early stop: drop everything still queued. In-flight replays
     *  finish and are kept. */
    void cancelQueued();

    /** Block until nothing is queued or in flight, or @p maxWaitMs
     *  passed. @return true when idle. */
    bool waitIdle(uint64_t maxWaitMs);

    /** Close the feed, drain the queue and join the workers.
     *  Idempotent; the destructor calls it too. */
    void finish();

    /** Post-finish: move out the record of capture (@p slot,
     *  @p generation); empty if that capture never completed replay
     *  (canceled, superseded, or published after finish()). */
    std::optional<ReplayRecord> take(size_t slot, uint64_t generation);

    /** Post-finish: move out every completed current record, slot
     *  order. */
    std::vector<ReplayRecord> takeAll();

    /** Post-finish: replay @p unit on the calling thread, through the
     *  store (the streamed run's fixup tail). */
    ReplayRecord replayInline(const ReplayUnit &unit);

    Stats stats() const;

  private:
    struct Item
    {
        size_t slot;
        uint64_t generation;
        std::shared_ptr<const fame::ReplayableSnapshot> snap;
    };

    /** One reservoir slot: its live generation (0 = none) and, once
     *  replayed, that generation's record. */
    struct Slot
    {
        uint64_t live = 0;
        bool done = false;
        ReplayRecord record;
    };

    void workerMain();
    /** Records of @p units through the store (if any) and a batched
     *  replay of the misses. */
    std::vector<ReplayRecord> replay(const std::vector<ReplayUnit> &units);
    /** Built on the first miss: store hits never pay for a lowering. */
    const ReplayTables &tables();

    const ReplayContext &ctx;
    ReplayStore *store;
    size_t bound;
    const unsigned nWorkers;
    std::once_flag tablesOnce;
    std::unique_ptr<const ReplayTables> builtTables;

    mutable std::mutex mtx;
    std::condition_variable readyCv; //!< queue gained work / closed
    std::condition_variable spaceCv; //!< queue has room again
    std::condition_variable doneCv;  //!< a replay completed / went idle
    std::deque<Item> queue;
    std::vector<Slot> slots;
    Stats counters;
    unsigned inFlight = 0;
    bool closed = false;

    std::vector<std::thread> workers;
};

/**
 * Aggregate per-snapshot records into the final report (survivors feed
 * the Section III-A estimators, quarantined snapshots are accounted and
 * excluded, validity gates applied). Shared by estimate() and the farm
 * collector so both produce bit-identical reports from equal records.
 * Sets everything except replayWallSeconds (a wall-clock the caller
 * owns).
 */
EnergyReport aggregateReplayRecords(std::vector<ReplayRecord> records,
                                    uint64_t population,
                                    const EnergySimulator::Config &cfg);

} // namespace core
} // namespace strober

#endif // STROBER_CORE_REPLAY_EXECUTOR_H
