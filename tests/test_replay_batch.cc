/**
 * @file
 * Lane-parallel gate replay: batching must never change the answer.
 *
 * Contracts under test:
 *  - gate::replayLanesOnGate hands each clean lane exactly the
 *    GateReplayResult gate::replayOnGate returns for that snapshot alone
 *    (toggles, macro accesses, load accounting), for every lane width
 *    and for batch sizes 1, W-1, W and W+1.
 *  - Lane isolation: a batch mixing good lanes with a stall-injected lane
 *    that times out, a lane with a geometry mismatch and a lane whose
 *    state diverges yields, per lane, the ReplayRecord replaySnapshot()
 *    produces for that snapshot alone.
 *  - The engine's reports are byte-identical (deterministic rendering)
 *    to the single-lane records for 1, 2 and 4 workers, and a result
 *    store still counts one replay per missed snapshot.
 */

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "cores/soc.h"
#include "cores/soc_driver.h"
#include "core/energy_sim.h"
#include "core/replay_executor.h"
#include "farm/farm.h"
#include "farm/report.h"
#include "gate/lane_sim.h"
#include "gate/replay.h"
#include "inject/fault_injector.h"
#include "stats/rng.h"
#include "util/bits.h"
#include "workloads/workloads.h"

namespace strober {
namespace core {
namespace {

namespace fs = std::filesystem;

constexpr unsigned W = gate::kReplayLanes;

/** A rocket towers run sampled into more than W snapshots (the rocket
 *  multiplier is a retimed region, so warm-up is exercised too). */
class LaneReplay : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        soc = new rtl::Design(cores::buildSoc(cores::SocConfig::rocket()));
        EnergySimulator::Config cfg;
        cfg.sampleSize = W + 4;
        cfg.replayLength = 48;
        es = new EnergySimulator(*soc, cfg);
        workloads::Workload wl = workloads::towers();
        cores::SocDriver driver(*soc, wl.program);
        es->run(driver, wl.maxCycles);
    }

    static void
    TearDownTestSuite()
    {
        delete es;
        delete soc;
    }

    static ReplayContext
    context(const EnergySimulator::Config &cfg)
    {
        return ReplayContext{*soc,
                             es->synthesis(),
                             es->placement(),
                             es->matchTable(),
                             es->sampler().chains(),
                             cfg,
                             resolveReplayBudget(cfg, es->synthesis())};
    }

    static std::vector<const fame::ReplayableSnapshot *>
    snapshots()
    {
        return es->sampler().snapshots();
    }

    static rtl::Design *soc;
    static EnergySimulator *es;
};

rtl::Design *LaneReplay::soc = nullptr;
EnergySimulator *LaneReplay::es = nullptr;

void
expectSameResult(const gate::GateReplayResult &a,
                 const gate::GateReplayResult &b, size_t lane)
{
    EXPECT_EQ(a.cyclesReplayed, b.cyclesReplayed) << "lane " << lane;
    EXPECT_EQ(a.outputMismatches, b.outputMismatches) << "lane " << lane;
    EXPECT_EQ(a.load.commands, b.load.commands) << "lane " << lane;
    EXPECT_EQ(a.load.modeledSeconds, b.load.modeledSeconds) << "lane " << lane;
    EXPECT_EQ(a.load.skippedRetimed, b.load.skippedRetimed) << "lane " << lane;
    EXPECT_EQ(a.activity.cycles, b.activity.cycles) << "lane " << lane;
    EXPECT_EQ(a.activity.netToggles, b.activity.netToggles) << "lane " << lane;
    ASSERT_EQ(a.activity.macroAccesses.size(), b.activity.macroAccesses.size());
    for (size_t m = 0; m < a.activity.macroAccesses.size(); ++m) {
        EXPECT_EQ(a.activity.macroAccesses[m].reads,
                  b.activity.macroAccesses[m].reads)
            << "lane " << lane << " macro " << m;
        EXPECT_EQ(a.activity.macroAccesses[m].writes,
                  b.activity.macroAccesses[m].writes)
            << "lane " << lane << " macro " << m;
    }
}

void
expectSameRecord(const ReplayRecord &a, const ReplayRecord &b)
{
    const SnapshotOutcome &x = a.outcome;
    const SnapshotOutcome &y = b.outcome;
    EXPECT_EQ(x.index, y.index);
    EXPECT_EQ(x.cycle, y.cycle) << "snapshot " << x.index;
    EXPECT_EQ(x.status, y.status) << "snapshot " << x.index;
    EXPECT_EQ(x.attempts, y.attempts) << "snapshot " << x.index;
    EXPECT_EQ(x.retriedOnAlternateLoader, y.retriedOnAlternateLoader)
        << "snapshot " << x.index;
    EXPECT_EQ(x.mismatches, y.mismatches) << "snapshot " << x.index;
    EXPECT_EQ(x.detail, y.detail) << "snapshot " << x.index;
    EXPECT_EQ(a.modeledLoadSeconds, b.modeledLoadSeconds)
        << "snapshot " << x.index;
    EXPECT_EQ(a.totalWatts, b.totalWatts) << "snapshot " << x.index;
    EXPECT_EQ(a.groups, b.groups) << "snapshot " << x.index;
    EXPECT_EQ(a.fromCache, b.fromCache) << "snapshot " << x.index;
}

TEST_F(LaneReplay, CleanLanesMatchSingleLaneReplayAtEveryWidth)
{
    std::vector<const fame::ReplayableSnapshot *> snaps = snapshots();
    ASSERT_GE(snaps.size(), W + 1);
    const gate::GateNetlist &nl = es->synthesis().netlist;
    ASSERT_FALSE(nl.retime().empty());
    gate::GateProgram program(nl);
    gate::GateSimulator gsim(nl);

    std::vector<gate::GateReplayResult> alone;
    for (const fame::ReplayableSnapshot *s : snaps) {
        util::Result<gate::GateReplayResult> r =
            gate::replayOnGate(gsim, *soc, es->matchTable(), *s);
        ASSERT_TRUE(r.isOk()) << r.status().toString();
        ASSERT_TRUE(r->ok()) << r->firstMismatch;
        alone.push_back(std::move(*r));
    }

    for (unsigned width : {8u, 16u, 32u, 64u}) {
        for (size_t batch : {size_t(1), size_t(W - 1), size_t(W),
                             size_t(W + 1)}) {
            std::vector<gate::ReplayLane> lanes;
            for (size_t i = 0; i < batch; ++i)
                lanes.push_back(gate::ReplayLane{snaps[i], {}});
            std::vector<size_t> seen;
            std::vector<bool> clean = gate::replayLanesOnGate(
                program, nl, *soc, es->matchTable(), lanes,
                [&](size_t k, const gate::GateReplayResult &r) {
                    seen.push_back(k);
                    expectSameResult(alone[k], r, k);
                },
                width);
            EXPECT_EQ(seen.size(), batch)
                << "width " << width << " batch " << batch;
            for (size_t i = 0; i < batch; ++i)
                EXPECT_TRUE(clean[i]) << "width " << width << " lane " << i;
        }
    }
}

TEST_F(LaneReplay, LanesStayIsolatedUnderPerLaneStimulus)
{
    // Every lane of a 13-lane evaluator runs its own random stimulus;
    // each must match a one-lane simulator fed the same stream, values
    // and per-net toggle counts alike, past a counter flush.
    const gate::GateNetlist &nl = es->synthesis().netlist;
    gate::GateProgram program(nl);
    constexpr unsigned kUsed = 13;
    gate::LaneSimulator<uint16_t> lanes(nl, program, kUsed);
    std::vector<std::unique_ptr<gate::GateSimulator>> alone;
    for (unsigned k = 0; k < kUsed; ++k)
        alone.push_back(std::make_unique<gate::GateSimulator>(nl));
    stats::Rng rng(7);
    uint64_t in[16] = {};
    uint64_t out[16] = {};
    for (int cycle = 0; cycle < 300; ++cycle) {
        for (size_t i = 0; i < nl.inputs().size(); ++i) {
            for (unsigned k = 0; k < kUsed; ++k) {
                in[k] = truncate(rng.next(), nl.inputs()[i].bits.size());
                alone[k]->pokePort(i, in[k]);
            }
            lanes.pokePort(i, in);
        }
        for (size_t o = 0; o < nl.outputs().size(); ++o) {
            lanes.peekPort(o, out);
            for (unsigned k = 0; k < kUsed; ++k)
                ASSERT_EQ(out[k], alone[k]->peekPort(o))
                    << "cycle " << cycle << " lane " << k << " output " << o;
        }
        lanes.step();
        for (auto &g : alone)
            g->step();
    }
    std::vector<uint64_t> toggles;
    for (unsigned k = 0; k < kUsed; ++k) {
        lanes.toggleCounts(k, toggles);
        EXPECT_EQ(toggles, alone[k]->toggleCounts()) << "lane " << k;
        const std::vector<gate::MacroStats> &acc = alone[k]->macroStats();
        for (size_t m = 0; m < acc.size(); ++m) {
            EXPECT_EQ(lanes.macroStats(k)[m].reads, acc[m].reads);
            EXPECT_EQ(lanes.macroStats(k)[m].writes, acc[m].writes);
        }
    }
}

TEST_F(LaneReplay, FaultedLanesMatchTheirSingleLaneRecords)
{
    std::vector<const fame::ReplayableSnapshot *> snaps = snapshots();
    ASSERT_GE(snaps.size(), W + 1);
    const size_t kStalled = 1, kMisShaped = 4, kDiverged = 6;

    // A geometry mismatch: one trace cycle carries an extra input.
    fame::ReplayableSnapshot misShaped = *snaps[kMisShaped];
    misShaped.inputTrace[5].push_back(0);
    snaps[kMisShaped] = &misShaped;

    EnergySimulator::Config cfg = es->config();
    cfg.retryFaultySnapshots = true;
    inject::StallPlan stalls;
    stalls.stallSnapshot(kStalled, 1'000'000); // over any budget
    cfg.stallPlan = &stalls;
    ReplayContext ctx = context(cfg);

    // A flipped state bit that the trace exposes: the first register
    // bit whose flip makes the replay diverge.
    fame::ReplayableSnapshot flipped = *snaps[kDiverged];
    gate::GateSimulator probe(es->synthesis().netlist);
    bool diverges = false;
    for (size_t i = 0; i < flipped.state.regValues.size() && !diverges;
         ++i) {
        if (es->matchTable().regRetimed[i])
            continue;
        flipped.state.regValues[i] ^= 1;
        util::Result<gate::GateReplayResult> r =
            gate::replayOnGate(probe, *soc, es->matchTable(), flipped);
        diverges = r.isOk() && !r->ok();
        if (!diverges)
            flipped.state.regValues[i] ^= 1;
    }
    ASSERT_TRUE(diverges);
    snaps[kDiverged] = &flipped;

    std::vector<ReplayRecord> alone;
    gate::GateSimulator gsim(es->synthesis().netlist);
    for (size_t i = 0; i < snaps.size(); ++i)
        alone.push_back(replaySnapshot(gsim, ctx, ReplayUnit{i, snaps[i]}));
    EXPECT_EQ(alone[kStalled].outcome.status, SnapshotStatus::TimedOut);
    EXPECT_EQ(alone[kMisShaped].outcome.status, SnapshotStatus::LoadFailed);
    EXPECT_EQ(alone[kDiverged].outcome.status, SnapshotStatus::Diverged);
    EXPECT_EQ(alone[kDiverged].outcome.attempts, 2u);

    ReplayTables tables(ctx);
    for (size_t batch :
         {size_t(1), size_t(W - 1), size_t(W), size_t(W + 1)}) {
        // Size 1 replays each faulted snapshot on its own.
        std::vector<std::vector<size_t>> groups;
        if (batch == 1)
            groups = {{kStalled}, {kMisShaped}, {kDiverged}, {0}};
        else {
            groups.emplace_back();
            for (size_t i = 0; i < batch; ++i)
                groups.back().push_back(i);
        }
        for (const std::vector<size_t> &group : groups) {
            std::vector<ReplayUnit> units;
            for (size_t i : group)
                units.push_back(ReplayUnit{i, snaps[i]});
            std::unique_ptr<gate::GateSimulator> fallback;
            std::vector<ReplayRecord> got =
                replaySnapshots(ctx, tables, fallback, units);
            ASSERT_EQ(got.size(), units.size());
            for (size_t u = 0; u < units.size(); ++u)
                expectSameRecord(alone[units[u].index], got[u]);
        }
    }
}

TEST_F(LaneReplay, EngineReportsMatchSingleLaneForAnyWorkerCount)
{
    std::vector<const fame::ReplayableSnapshot *> snaps = snapshots();
    EnergySimulator::Config cfg = es->config();
    ReplayContext ctx = context(cfg);
    std::vector<ReplayRecord> alone;
    gate::GateSimulator gsim(es->synthesis().netlist);
    for (size_t i = 0; i < snaps.size(); ++i)
        alone.push_back(replaySnapshot(gsim, ctx, ReplayUnit{i, snaps[i]}));
    EnergyReport reference = es->estimate();
    std::string expected = farm::renderReportDeterministic(
        aggregateReplayRecords(alone, reference.population, cfg));
    EXPECT_EQ(farm::renderReportDeterministic(reference), expected);

    std::string cacheDir =
        (fs::temp_directory_path() /
         ("strober-lanes-" + std::to_string(getpid())))
            .string();
    for (unsigned workers : {1u, 2u, 4u}) {
        fs::remove_all(cacheDir);
        farm::CachingReplayExecutor cache(cacheDir);
        EnergySimulator::Config wcfg = cfg;
        wcfg.parallelReplays = workers;
        wcfg.replayExecutor = &cache;
        ReplayContext wctx = context(wcfg);
        for (int pass = 0; pass < 2; ++pass) {
            uint64_t before = cache.replaysExecuted();
            ReplayEngine engine(wctx, &cache, workers, snaps.size());
            for (size_t i = 0; i < snaps.size(); ++i) {
                engine.onSnapshotReady(
                    i, 1,
                    std::shared_ptr<const fame::ReplayableSnapshot>(
                        std::shared_ptr<void>(), snaps[i]));
            }
            engine.finish();
            std::vector<ReplayRecord> records = engine.takeAll();
            ASSERT_EQ(records.size(), snaps.size());
            EXPECT_EQ(farm::renderReportDeterministic(aggregateReplayRecords(
                          records, reference.population, wcfg)),
                      expected)
                << workers << " workers, pass " << pass;
            // One replay per missed snapshot: all cold, none warm.
            EXPECT_EQ(cache.replaysExecuted() - before,
                      pass == 0 ? snaps.size() : 0u)
                << workers << " workers, pass " << pass;
        }
    }
    fs::remove_all(cacheDir);
}

} // namespace
} // namespace core
} // namespace strober
