/**
 * @file
 * Streaming sampling pipeline tests (core::ReplayEngine behind
 * estimateStreaming(), plus the fame::SampleObserver seam): replay
 * overlapping the fast simulation must never change the answer.
 *
 * Contracts under test:
 *  - The observer protocol: every capture published exactly once, in
 *    capture order; eviction notices precede the replacement capture;
 *    generations name captures uniquely; the trailing flush publishes a
 *    capture that completed exactly at the final cycle.
 *  - Bit-identity: with no early stop, estimateStreaming() produces the
 *    byte-identical report (deterministic rendering included) to
 *    run() + estimate(), for any worker count, with and without
 *    fault-injection degradation.
 *  - Eviction cancel semantics: superseded generations never reach the
 *    final report, and the superseded count is exactly the reservoir's
 *    replacement count.
 *  - Adaptive termination: a ci-bound stops the run early with a valid
 *    report over the completed subset.
 */

#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/energy_sim.h"
#include "core/harness.h"
#include "farm/farm.h"
#include "farm/report.h"
#include "fame/sampler.h"
#include "inject/fault_injector.h"
#include "rtl/builder.h"
#include "stats/rng.h"

namespace strober {
namespace core {
namespace {

using rtl::Builder;
using rtl::Design;
using rtl::MemHandle;
using rtl::Scope;
using rtl::Signal;

/** Same small DUT the farm tests use: regs + async/sync memories. */
Design
makeDut()
{
    Builder b("dut");
    Signal in = b.input("in", 8);
    Signal wen = b.input("wen", 1);
    Signal acc, back, tdata;
    {
        Scope core(b, "engine");
        acc = b.reg("acc", 16, 0);
        b.next(acc, acc + b.pad(in, 16));
        MemHandle scratch = b.mem("scratch", 8, 32, false);
        Signal ptr = b.reg("ptr", 5, 0);
        b.next(ptr, ptr + b.lit(1, 5), wen);
        b.memWrite(scratch, ptr, in, wen);
        back = b.memRead(scratch, ptr);
        MemHandle table = b.mem("table", 16, 16, true);
        tdata = b.memReadSync(table, acc.bits(3, 0));
        b.memWrite(table, acc.bits(3, 0), acc, wen);
    }
    b.output("acc", acc);
    b.output("back", back);
    b.output("tdata", tdata);
    return b.finish();
}

class NoiseDriver : public HostDriver
{
  public:
    NoiseDriver(uint64_t seed, uint64_t cycles) : rng(seed), budget(cycles)
    {
    }

    void
    drive(TargetHarness &h) override
    {
        h.setInput(0, rng.nextBounded(256));
        h.setInput(1, rng.nextBounded(2));
        --budget;
    }

    bool done() const override { return budget == 0; }

  private:
    stats::Rng rng;
    uint64_t budget;
};

EnergySimulator::Config
standardConfig()
{
    EnergySimulator::Config cfg;
    cfg.sampleSize = 10;
    cfg.replayLength = 64;
    return cfg;
}

EnergyReport
phasedReport(const Design &d, EnergySimulator::Config cfg,
             uint64_t cycles, RunStats *outRun = nullptr)
{
    EnergySimulator es(d, cfg);
    NoiseDriver driver(42, cycles);
    RunStats run = es.run(driver, UINT64_MAX);
    if (outRun)
        *outRun = run;
    return es.estimate();
}

// ---------------------------------------------------------------------------
// Observer protocol
// ---------------------------------------------------------------------------

/** Records every streamed event for later inspection. */
class RecordingObserver : public fame::SampleObserver
{
  public:
    struct Event
    {
        bool evict = false;
        size_t slot = 0;
        uint64_t generation = 0;
        std::shared_ptr<const fame::ReplayableSnapshot> snap;
    };
    std::vector<Event> events;

    void
    onSnapshotReady(size_t slot, uint64_t generation,
                    std::shared_ptr<const fame::ReplayableSnapshot>
                        snap) override
    {
        events.push_back(Event{false, slot, generation, std::move(snap)});
    }

    void
    onSlotEvicted(size_t slot, uint64_t generation) override
    {
        events.push_back(Event{true, slot, generation, nullptr});
    }
};

TEST(SampleObserver, PublishOnceEvictBeforeReplaceAndTrailingFlush)
{
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();
    EnergySimulator es(d, cfg);
    RecordingObserver obs;
    es.sampler().setObserver(&obs);
    NoiseDriver driver(42, 10'000);
    RunStats run = es.run(driver, UINT64_MAX);
    es.sampler().flushPending();
    es.sampler().flushPending(); // idempotent
    es.sampler().setObserver(nullptr);

    // Every (slot, generation) published exactly once, every eviction
    // names a previously published capture, and generations per slot
    // count up from 1 without gaps.
    std::set<std::pair<size_t, uint64_t>> published, evicted;
    std::vector<uint64_t> lastGen;
    for (const RecordingObserver::Event &e : obs.events) {
        auto key = std::make_pair(e.slot, e.generation);
        if (e.evict) {
            EXPECT_TRUE(published.count(key))
                << "eviction of a never-published capture";
            EXPECT_TRUE(evicted.insert(key).second)
                << "double eviction of slot " << e.slot;
        } else {
            EXPECT_TRUE(published.insert(key).second)
                << "double publish of slot " << e.slot;
            EXPECT_TRUE(e.snap && e.snap->complete);
            if (lastGen.size() <= e.slot)
                lastGen.resize(e.slot + 1, 0);
            EXPECT_EQ(e.generation, lastGen[e.slot] + 1)
                << "generation gap in slot " << e.slot;
            lastGen[e.slot] = e.generation;
        }
    }

    // The set difference published - evicted is exactly the final
    // reservoir: same slots, same generations, complete snapshots.
    std::vector<size_t> slots = es.sampler().completeSlots();
    EXPECT_EQ(published.size() - evicted.size(), slots.size());
    for (size_t slot : slots) {
        auto key = std::make_pair(slot, es.sampler().generationOf(slot));
        EXPECT_TRUE(published.count(key));
        EXPECT_FALSE(evicted.count(key));
    }

    // Every record event was streamed (the trailing capture completed
    // at the final boundary and must have been flushed).
    EXPECT_EQ(published.size(), run.recordCount);
}

TEST(SampleObserver, EvictedSnapshotPointerStaysValid)
{
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();
    cfg.sampleSize = 4; // high replacement pressure
    EnergySimulator es(d, cfg);
    RecordingObserver obs;
    es.sampler().setObserver(&obs);
    NoiseDriver driver(7, 6'000);
    es.run(driver, UINT64_MAX);
    es.sampler().flushPending();
    es.sampler().setObserver(nullptr);

    // A downstream consumer may hold a published snapshot long after
    // its slot was recaptured; the shared_ptr must still dereference to
    // the ORIGINAL complete capture.
    size_t evictions = 0;
    for (const RecordingObserver::Event &e : obs.events)
        evictions += e.evict;
    ASSERT_GT(evictions, 0u);
    for (const RecordingObserver::Event &e : obs.events) {
        if (!e.evict) {
            ASSERT_TRUE(e.snap);
            EXPECT_TRUE(e.snap->complete);
        }
    }
}

// ---------------------------------------------------------------------------
// Bit-identity: streamed == phased
// ---------------------------------------------------------------------------

/** Field-by-field bit-identity, minus wall clocks (which always differ). */
void
expectBitIdentical(const EnergyReport &a, const EnergyReport &b)
{
    EXPECT_EQ(a.averagePower.mean, b.averagePower.mean);
    EXPECT_EQ(a.averagePower.halfWidth, b.averagePower.halfWidth);
    EXPECT_EQ(a.population, b.population);
    EXPECT_EQ(a.snapshots, b.snapshots);
    EXPECT_EQ(a.droppedSnapshots, b.droppedSnapshots);
    EXPECT_EQ(a.replayMismatches, b.replayMismatches);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.statusMessage, b.statusMessage);
    // The deterministic rendering is the real contract: it is what the
    // CI smoke `cmp`s between streamed and phased farm runs.
    EXPECT_EQ(farm::renderReportDeterministic(a),
              farm::renderReportDeterministic(b));
}

TEST(StreamingPipeline, BitIdenticalToPhasedForAnyWorkerCount)
{
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();
    EnergyReport phased = phasedReport(d, cfg, 10'000);
    ASSERT_TRUE(phased.valid);

    for (unsigned workers : {1u, 2u, 8u}) {
        EnergySimulator::Config scfg = cfg;
        scfg.parallelReplays = workers;
        EnergySimulator es(d, scfg);
        NoiseDriver driver(42, 10'000);
        EnergyReport streamed = es.estimateStreaming(driver, UINT64_MAX);
        EXPECT_FALSE(streamed.earlyStopped);
        expectBitIdentical(phased, streamed);
    }
}

TEST(StreamingPipeline, BitIdenticalUnderFaultInjection)
{
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();
    // Stall plan keyed by final sample index: the streamed path must
    // re-replay any record whose provisional (slot) index differs from
    // its final compacted index, or the reports diverge.
    inject::StallPlan plan;
    for (size_t i = 0; i < cfg.sampleSize; i += 3)
        plan.stallSnapshot(i, 100'000);
    cfg.stallPlan = &plan;
    cfg.replayTimeoutCycles = 2'000; // stalled replays time out -> degrade
    cfg.maxDroppedSnapshots = cfg.sampleSize;

    EnergyReport phased = phasedReport(d, cfg, 10'000);
    for (unsigned workers : {1u, 4u}) {
        EnergySimulator::Config scfg = cfg;
        scfg.parallelReplays = workers;
        EnergySimulator es(d, scfg);
        NoiseDriver driver(42, 10'000);
        EnergyReport streamed = es.estimateStreaming(driver, UINT64_MAX);
        expectBitIdentical(phased, streamed);
    }
}

TEST(StreamingPipeline, CachedStreamedRunsMatchPhasedAndWarmTheCache)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() /
                   ("strober_streaming_cache_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();
    cfg.parallelReplays = 4;
    std::string phased =
        farm::renderReportDeterministic(phasedReport(d, cfg, 10'000));

    farm::CachingReplayExecutor exec(dir.string());
    cfg.replayExecutor = &exec;

    // Cold: the streamed run fills the cache and still reports the
    // phased uncached bytes.
    EnergySimulator cold(d, cfg);
    NoiseDriver coldDriver(42, 10'000);
    EnergyReport coldRep = cold.estimateStreaming(coldDriver, UINT64_MAX);
    EXPECT_EQ(farm::renderReportDeterministic(coldRep), phased);
    EXPECT_EQ(coldRep.cacheMisses, coldRep.snapshots);

    // Warm streamed rerun: every surviving capture is a cache hit.
    EnergySimulator warm(d, cfg);
    NoiseDriver warmDriver(42, 10'000);
    EnergyReport warmRep = warm.estimateStreaming(warmDriver, UINT64_MAX);
    EXPECT_EQ(warmRep.cacheHits, warmRep.snapshots);
    EXPECT_EQ(farm::renderReportDeterministic(warmRep), phased);

    // A phased estimate() of the same sample replays nothing.
    uint64_t before = exec.replaysExecuted();
    EnergyReport rephased = warm.estimate();
    EXPECT_EQ(exec.replaysExecuted() - before, 0u);
    EXPECT_EQ(rephased.cacheHits, rephased.snapshots);
    EXPECT_EQ(farm::renderReportDeterministic(rephased), phased);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Eviction cancel semantics
// ---------------------------------------------------------------------------

TEST(StreamingPipeline, SupersededCountMatchesReservoirReplacements)
{
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();
    cfg.parallelReplays = 2;
    EnergySimulator es(d, cfg);
    NoiseDriver driver(42, 10'000);
    RunStats run;
    EnergyReport streamed = es.estimateStreaming(driver, UINT64_MAX, &run);
    ASSERT_TRUE(streamed.valid);

    // Every capture is published (flushPending covers the final
    // boundary), so replacements == records - survivors; each one was
    // canceled in the queue or discarded after replay, never reported.
    EXPECT_GT(run.recordCount, streamed.snapshots);
    EXPECT_EQ(streamed.supersededReplays,
              run.recordCount - streamed.snapshots);

    // And cancellation never changed the answer.
    EnergyReport phased = phasedReport(d, cfg, 10'000);
    expectBitIdentical(phased, streamed);
}

// ---------------------------------------------------------------------------
// Adaptive termination
// ---------------------------------------------------------------------------

TEST(StreamingPipeline, CiBoundStopsEarlyWithValidSubsetReport)
{
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();
    cfg.sampleSize = 40;     // above the Eq. 8 floor of 30
    // Short intervals + one worker: captures outpace replay, so the
    // bound is crossed while part of the reservoir is still unreplayed
    // — the decision set is a strict subset.
    cfg.replayLength = 32;
    cfg.parallelReplays = 1;
    cfg.ciBound = 0.95;      // loose: stop as soon as the floor is met
    EnergySimulator es(d, cfg);
    const uint64_t cycles = 400'000;
    NoiseDriver driver(42, cycles);
    RunStats run;
    EnergyReport rep = es.estimateStreaming(driver, UINT64_MAX, &run);

    ASSERT_TRUE(rep.earlyStopped);
    EXPECT_TRUE(rep.valid);
    // The decision set is the completed subset: at least the floor, at
    // most the configured reservoir. (A strict subset is not guaranteed
    // on a single-core host — the worker can burst from under the floor
    // to a fully-replayed reservoir within one scheduling quantum — so
    // the strict fewer-than-reservoir property is asserted by the farm
    // streaming smoke, where replay is heavyweight.)
    EXPECT_GE(rep.snapshots, 30u);
    EXPECT_LE(rep.snapshots, cfg.sampleSize);
    EXPECT_GT(rep.averagePower.mean, 0.0);
    EXPECT_LT(rep.averagePower.relativeError(), cfg.ciBound);
    // The fast sim stopped before the driver ran out.
    EXPECT_LT(run.targetCycles, cycles);
    // And the rendering records the stop.
    std::string text = farm::renderReportDeterministic(rep);
    EXPECT_NE(text.find("early-stopped 1"), std::string::npos);
}

TEST(StreamingPipeline, CiBoundZeroNeverStopsEarly)
{
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();
    cfg.parallelReplays = 4;
    EnergySimulator es(d, cfg);
    NoiseDriver driver(42, 10'000);
    RunStats run;
    EnergyReport rep = es.estimateStreaming(driver, UINT64_MAX, &run);
    EXPECT_FALSE(rep.earlyStopped);
    // The driver ran to its budget.
    EXPECT_EQ(run.targetCycles, 10'000u);
    std::string text = farm::renderReportDeterministic(rep);
    EXPECT_NE(text.find("early-stopped 0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Phase wall clocks
// ---------------------------------------------------------------------------

TEST(StreamingPipeline, ReportsPhaseWallClocks)
{
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();
    cfg.parallelReplays = 2;
    EnergySimulator es(d, cfg);
    NoiseDriver driver(42, 10'000);
    EnergyReport streamed = es.estimateStreaming(driver, UINT64_MAX);
    EXPECT_GT(streamed.fastSimWallSeconds, 0.0);
    EXPECT_GT(streamed.replayWallSeconds, 0.0);
    EXPECT_GE(streamed.overlapWallSeconds, 0.0);
    EXPECT_LE(streamed.overlapWallSeconds,
              std::min(streamed.fastSimWallSeconds,
                       streamed.replayWallSeconds) +
                  1e-9);

    // The phased path fills its clocks too (no overlap by definition).
    EnergyReport phased = phasedReport(d, cfg, 10'000);
    EXPECT_GT(phased.fastSimWallSeconds, 0.0);
    EXPECT_GT(phased.replayWallSeconds, 0.0);
    EXPECT_EQ(phased.overlapWallSeconds, 0.0);

    // Wall clocks are excluded from the deterministic rendering.
    EXPECT_EQ(farm::renderReportDeterministic(phased),
              farm::renderReportDeterministic(streamed));
}

} // namespace
} // namespace core
} // namespace strober
