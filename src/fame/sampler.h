/**
 * @file
 * Reservoir-sampled snapshot capture over a running token simulation
 * (paper Section III-B).
 *
 * The population is the stream of disjoint L-cycle intervals of the
 * target's execution; its length is unknown a priori, so the sampler
 * keeps a uniform n-subset via reservoir sampling. Each recorded interval
 * costs one scan-chain read-out plus L cycles of I/O tracing; element k
 * is recorded with probability n/k, so the overhead fades as the run
 * grows (Table III).
 *
 * Streaming: an optional SampleObserver receives every snapshot the
 * moment its L-cycle trace completes, plus an eviction notice whenever
 * reservoir replacement supersedes a previously published capture. This
 * is the seam the in-process replay engine (core::ReplayEngine) and
 * the farm stream feed (src/farm/stream.h) hang off so replay can
 * overlap the ongoing fast simulation. Slots hold shared_ptrs so an
 * in-flight replay of an evicted snapshot stays valid after the slot is
 * recaptured; with no observer installed the slot object is reused in
 * place, exactly the historical behavior.
 */

#ifndef STROBER_FAME_SAMPLER_H
#define STROBER_FAME_SAMPLER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "fame/scan_chain.h"
#include "fame/token_sim.h"
#include "stats/sampling.h"

namespace strober {
namespace fame {

/**
 * Receives streamed reservoir events. Generations count captures into a
 * slot (first capture = 1): a (slot, generation) pair names one capture
 * uniquely for the whole run, so consumers can match eviction notices
 * against work they queued. Callbacks run on the fast-sim thread inside
 * SnapshotSampler::poll(); keep them cheap.
 */
class SampleObserver
{
  public:
    virtual ~SampleObserver() = default;

    /** @p snap finished recording its L-cycle trace (complete == true).
     *  Published exactly once per capture, in capture order. The
     *  observer shares ownership; the pointer outlives any later
     *  eviction of the slot. */
    virtual void onSnapshotReady(size_t slot, uint64_t generation,
                                 std::shared_ptr<const ReplayableSnapshot>
                                     snap) = 0;

    /** The slot was recaptured: generation @p generation is superseded
     *  and must not contribute to the final report. Fired before the
     *  replacement capture begins. */
    virtual void onSlotEvicted(size_t slot, uint64_t generation) = 0;
};

/** Captures a reservoir of replayable snapshots from a TokenSimulator. */
class SnapshotSampler
{
  public:
    struct Config
    {
        size_t sampleSize = 30;       //!< n
        unsigned replayLength = 128;  //!< L
        uint64_t seed = 0x5eed5eedULL;
        bool enabled = true;          //!< false = measure-only runs
    };

    SnapshotSampler(const Fame1Design &fame, Config config)
        : cfg(config), chainMeta(fame.design),
          reservoir(config.sampleSize, config.seed)
    {
    }

    /**
     * Install (or clear, with nullptr) the streaming observer. Must not
     * change mid-recording; install before the run, clear after
     * flushPending(). The reservoir's record/replace decisions are
     * observer-independent, so a streamed run samples the identical
     * reservoir a phased run would.
     */
    void setObserver(SampleObserver *obs) { observer = obs; }

    /**
     * Call once per host cycle, *before* TokenSimulator::tryStep(). At
     * each L-cycle interval boundary this offers the interval to the
     * reservoir and, when recorded, captures a snapshot into its slot.
     */
    void
    poll(TokenSimulator &tsim)
    {
        if (!cfg.enabled)
            return;
        uint64_t cycle = tsim.targetCycles();
        uint64_t interval = cycle / cfg.replayLength;
        if (cycle % cfg.replayLength != 0 || interval < nextInterval)
            return;
        // A capture started at the previous boundary has recorded
        // exactly L fired cycles by now — publish it before this
        // boundary's offer can evict anything.
        flushPending();
        nextInterval = interval + 1;
        long slot = reservoir.offer();
        if (slot < 0)
            return;
        size_t s = static_cast<size_t>(slot);
        if (slotGen.size() <= s)
            slotGen.resize(s + 1, 0);
        auto &slotPtr = reservoir.sample()[s];
        if (slotPtr && observer) {
            // Streaming: the old capture may be queued or replaying
            // downstream. Hand consumers the eviction notice and give
            // the slot a fresh object so their shared_ptr stays valid.
            observer->onSlotEvicted(s, slotGen[s]);
            slotPtr.reset();
        }
        if (!slotPtr)
            slotPtr = std::make_shared<ReplayableSnapshot>();
        ++slotGen[s];
        if (observer) {
            pendingSlot = s;
            pendingGen = slotGen[s];
            pendingValid = true;
        }
        tsim.captureSnapshot(chainMeta, slotPtr.get(), cfg.replayLength);
    }

    /**
     * Publish the pending capture if its trace has completed. poll()
     * calls this at every boundary; call it once more after the run so
     * a capture that completed exactly at the final cycle is streamed.
     * Idempotent; a trailing *incomplete* capture is simply dropped
     * (snapshots() never returned it either).
     */
    void
    flushPending()
    {
        if (!pendingValid)
            return;
        const auto &ptr = reservoir.sample()[pendingSlot];
        if (observer && ptr && ptr->complete &&
            pendingGen == slotGen[pendingSlot]) {
            observer->onSnapshotReady(
                pendingSlot, pendingGen,
                std::shared_ptr<const ReplayableSnapshot>(ptr));
            pendingValid = false;
        } else if (ptr && ptr->complete) {
            pendingValid = false;
        }
    }

    const ScanChains &chains() const { return chainMeta; }
    const Config &config() const { return cfg; }

    /** Complete snapshots collected (incomplete trailing trace dropped). */
    std::vector<const ReplayableSnapshot *>
    snapshots() const
    {
        std::vector<const ReplayableSnapshot *> out;
        for (const auto &p : reservoir.sample()) {
            if (p && p->complete)
                out.push_back(p.get());
        }
        return out;
    }

    /**
     * Reservoir slot index of each snapshots() element, same order.
     * Streaming consumers join this against their (slot, generation)
     * keyed results to map final compacted sample indices back to the
     * work they replayed.
     */
    std::vector<size_t>
    completeSlots() const
    {
        std::vector<size_t> out;
        const auto &sample = reservoir.sample();
        for (size_t s = 0; s < sample.size(); ++s) {
            if (sample[s] && sample[s]->complete)
                out.push_back(s);
        }
        return out;
    }

    /** Capture generation currently occupying @p slot (0 = never). */
    uint64_t
    generationOf(size_t slot) const
    {
        return slot < slotGen.size() ? slotGen[slot] : 0;
    }

    /**
     * Mutable view of the complete snapshots, in the same order as
     * snapshots(). Exists for the fault-injection harness (src/inject),
     * which corrupts captured snapshots in place to prove the replay
     * pipeline quarantines them; production code has no business
     * mutating the reservoir.
     */
    std::vector<ReplayableSnapshot *>
    mutableSnapshots()
    {
        std::vector<ReplayableSnapshot *> out;
        for (auto &p : reservoir.sample()) {
            if (p && p->complete)
                out.push_back(p.get());
        }
        return out;
    }

    /** Number of record events (Table III "Record Counts"). */
    uint64_t recordCount() const { return reservoir.recordCount(); }
    /** Number of interval boundaries offered so far. */
    uint64_t intervalsSeen() const { return reservoir.elementsSeen(); }

  private:
    Config cfg;
    ScanChains chainMeta;
    stats::ReservoirSampler<std::shared_ptr<ReplayableSnapshot>> reservoir;
    uint64_t nextInterval = 0;

    SampleObserver *observer = nullptr;
    std::vector<uint64_t> slotGen; //!< captures into each slot so far
    size_t pendingSlot = 0;        //!< capture awaiting completion
    uint64_t pendingGen = 0;
    bool pendingValid = false;
};

} // namespace fame
} // namespace strober

#endif // STROBER_FAME_SAMPLER_H
