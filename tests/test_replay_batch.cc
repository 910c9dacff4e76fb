/**
 * @file
 * Lane-parallel gate replay: batching must never change the answer.
 *
 * Contracts under test:
 *  - gate::replayOnGate's status for every snapshot-borne fault, in its
 *    order of precedence, is pinned to a golden code and message.
 *  - gate::replayLanesOnGate hands every lane exactly the Result
 *    gate::replayOnGate returns for that snapshot alone (status, or
 *    toggles, macro accesses, load accounting and mismatches), for
 *    every lane width and for batch sizes 1, W-1, W and W+1. A
 *    zero-cycle trace and a broken match table are statuses, and the
 *    former a quarantined record, never a process exit.
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

    /** @p snap with the first state bit flipped whose flip the trace
     *  exposes (a replay that diverges); no state at all if none is. */
    static fame::ReplayableSnapshot
    diverging(const fame::ReplayableSnapshot &snap)
    {
        fame::ReplayableSnapshot flipped = snap;
        gate::GateSimulator probe(es->synthesis().netlist);
        for (size_t i = 0; i < flipped.state.regValues.size(); ++i) {
            if (es->matchTable().regRetimed[i])
                continue;
            flipped.state.regValues[i] ^= 1;
            util::Result<gate::GateReplayResult> r =
                gate::replayOnGate(probe, *soc, es->matchTable(), flipped);
            if (r.isOk() && !r->ok())
                return flipped;
            flipped.state.regValues[i] ^= 1;
        }
        flipped.state = fame::StateSnapshot();
        return flipped;
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

/** A snapshot, and the options it replays under, that trips one or
 *  more of replayOnGate's checks. */
struct LaneCase
{
    std::string name;
    fame::ReplayableSnapshot snap;
    gate::ReplayOptions options;
};

/**
 * One case per check replayOnGate makes, in its order of precedence,
 * plus cases where two faults meet and the earlier check must win.
 * @p good is a clean snapshot of a trace of at least 24 cycles;
 * @p maxLat the netlist's deepest retimed region (at least 2).
 */
std::vector<LaneCase>
faultCases(const fame::ReplayableSnapshot &good, unsigned maxLat)
{
    std::vector<LaneCase> cases;
    auto add = [&](std::string name) -> LaneCase & {
        cases.push_back(LaneCase{std::move(name), good, {}});
        return cases.back();
    };
    auto budget = [](LaneCase &c, uint64_t budget, uint64_t stalls) {
        c.options.cycleBudget = budget;
        c.options.injectedStallCycles = stalls;
    };
    add("incomplete").snap.complete = false;
    add("trace-lengths").snap.outputTrace.pop_back();
    budget(add("stalled"), 100, 101);
    add("history-count").snap.retimeHistory.emplace_back();
    add("history-row-width").snap.retimeHistory[0][0].push_back(0);
    budget(add("warmup-budget"), 10, 9);
    {
        LaneCase &c = add("row-width-before-warmup-budget");
        c.snap.retimeHistory[0][0].push_back(0);
        budget(c, 10, 10);
    }
    {
        // Row 1 is first read in the second warm-up step.
        LaneCase &c = add("warmup-budget-before-late-row");
        c.snap.retimeHistory[0][1].push_back(0);
        budget(c, 10, 10);
    }
    {
        LaneCase &c = add("late-row-before-warmup-budget");
        c.snap.retimeHistory[0][1].push_back(0);
        budget(c, 10, 9);
    }
    add("state-registers").snap.state.regValues.pop_back();
    add("state-memory").snap.state.memContents[0].pop_back();
    {
        LaneCase &c = add("history-count-before-state");
        c.snap.retimeHistory.emplace_back();
        c.snap.state.regValues.pop_back();
    }
    {
        LaneCase &c = add("warmup-budget-before-state");
        c.snap.state.regValues.pop_back();
        budget(c, 10, 10);
    }
    add("input-width").snap.inputTrace[5].push_back(0);
    add("output-width").snap.outputTrace[5].push_back(0);
    {
        LaneCase &c = add("input-before-output-width");
        c.snap.inputTrace[5].push_back(0);
        c.snap.outputTrace[5].push_back(0);
    }
    {
        LaneCase &c = add("state-before-trace-width");
        c.snap.state.regValues.pop_back();
        c.snap.inputTrace[0].pop_back();
    }
    budget(add("trace-budget"), maxLat + 10, 0);
    budget(add("trace-budget-with-stalls"), maxLat + 10, 4);
    {
        LaneCase &c = add("width-before-trace-budget");
        c.snap.outputTrace[10].push_back(0);
        budget(c, maxLat + 10, 0);
    }
    {
        LaneCase &c = add("trace-budget-before-late-width");
        c.snap.inputTrace[11].push_back(0);
        budget(c, maxLat + 10, 0);
    }
    budget(add("exact-budget"), maxLat + good.inputTrace.size() + 3, 3);
    return cases;
}

/** replayOnGate's status for each of faultCases(), in order: code, then
 *  message ("" for a replay that succeeds). */
const std::vector<std::pair<util::ErrorCode, std::string>> &
goldenStatuses()
{
    using util::ErrorCode;
    static const std::vector<std::pair<ErrorCode, std::string>> golden = {
        {ErrorCode::InvalidArgument, "replaying an incomplete snapshot"},
        {ErrorCode::GeometryMismatch,
         "snapshot trace has 48 input cycles but 47 output cycles"},
        {ErrorCode::Timeout, "replay stalled: 101 cycles consumed before "
                             "any progress (budget 100)"},
        {ErrorCode::GeometryMismatch,
         "snapshot carries 2 retime histories, netlist has 1 regions"},
        {ErrorCode::GeometryMismatch,
         "retime region 0 history row has 4 values, region has 3 inputs"},
        {ErrorCode::Timeout, "replay exceeded its cycle budget during "
                             "retiming warm-up (11 consumed, budget 10)"},
        {ErrorCode::GeometryMismatch,
         "retime region 0 history row has 4 values, region has 3 inputs"},
        {ErrorCode::Timeout, "replay exceeded its cycle budget during "
                             "retiming warm-up (11 consumed, budget 10)"},
        {ErrorCode::GeometryMismatch,
         "retime region 0 history row has 4 values, region has 3 inputs"},
        {ErrorCode::GeometryMismatch, "state load failed: snapshot has 88 "
                                      "register values, design has 89"},
        {ErrorCode::GeometryMismatch,
         "state load failed: snapshot memory 0 holds 2047 words, design "
         "needs 2048"},
        {ErrorCode::GeometryMismatch,
         "snapshot carries 2 retime histories, netlist has 1 regions"},
        {ErrorCode::Timeout, "replay exceeded its cycle budget during "
                             "retiming warm-up (11 consumed, budget 10)"},
        {ErrorCode::GeometryMismatch,
         "snapshot trace has 4 inputs, netlist has 3"},
        {ErrorCode::GeometryMismatch,
         "snapshot trace has 16 outputs, netlist has 15"},
        {ErrorCode::GeometryMismatch,
         "snapshot trace has 4 inputs, netlist has 3"},
        {ErrorCode::GeometryMismatch, "state load failed: snapshot has 88 "
                                      "register values, design has 89"},
        {ErrorCode::Timeout, "replay exceeded its cycle budget after 11 of "
                             "48 trace cycles (budget 13)"},
        {ErrorCode::Timeout, "replay exceeded its cycle budget after 7 of "
                             "48 trace cycles (budget 13)"},
        {ErrorCode::GeometryMismatch,
         "snapshot trace has 16 outputs, netlist has 15"},
        {ErrorCode::Timeout, "replay exceeded its cycle budget after 11 of "
                             "48 trace cycles (budget 13)"},
        {ErrorCode::Ok, ""},
    };
    return golden;
}

TEST_F(LaneReplay, ReplayOnGateStatusesArePinned)
{
    std::vector<const fame::ReplayableSnapshot *> snaps = snapshots();
    const gate::GateNetlist &nl = es->synthesis().netlist;
    unsigned maxLat = 0;
    for (const gate::RetimeNetInfo &r : nl.retime())
        maxLat = std::max(maxLat, r.latency);
    ASSERT_GE(maxLat, 2u);
    ASSERT_GE(snaps[0]->retimeHistory[0].size(), 2u);
    std::vector<LaneCase> cases = faultCases(*snaps[0], maxLat);
    const auto &golden = goldenStatuses();
    ASSERT_EQ(cases.size(), golden.size());
    gate::GateSimulator gsim(nl);
    for (size_t i = 0; i < cases.size(); ++i) {
        util::Result<gate::GateReplayResult> r = gate::replayOnGate(
            gsim, *soc, es->matchTable(), cases[i].snap, cases[i].options);
        EXPECT_EQ(r.status().code(), golden[i].first) << cases[i].name;
        EXPECT_EQ(r.isOk() ? std::string() : r.status().message(),
                  golden[i].second)
            << cases[i].name;
        if (r.isOk()) {
            EXPECT_TRUE(r->ok()) << cases[i].name;
        }
    }
}

/** Expect @p got to be @p want: the same status, or the same result. */
void
expectSameOutcome(const util::Result<gate::GateReplayResult> &want,
                  const util::Result<gate::GateReplayResult> &got,
                  const std::string &what)
{
    EXPECT_EQ(got.status().code(), want.status().code()) << what;
    EXPECT_EQ(got.status().message(), want.status().message()) << what;
    if (!want.isOk() || !got.isOk())
        return;
    EXPECT_EQ(got->firstMismatch, want->firstMismatch) << what;
    expectSameResult(*want, *got, 0);
}

TEST_F(LaneReplay, BatchedLanesGetReplayOnGatesResult)
{
    std::vector<const fame::ReplayableSnapshot *> snaps = snapshots();
    const gate::GateNetlist &nl = es->synthesis().netlist;
    unsigned maxLat = 0;
    for (const gate::RetimeNetInfo &r : nl.retime())
        maxLat = std::max(maxLat, r.latency);
    std::vector<LaneCase> cases = faultCases(*snaps[0], maxLat);
    cases.push_back(LaneCase{"diverged", diverging(*snaps[1]), {}});
    ASSERT_FALSE(cases.back().snap.state.regValues.empty());
    {
        LaneCase &c = cases.emplace_back(LaneCase{"empty", *snaps[2], {}});
        c.snap.inputTrace.clear();
        c.snap.outputTrace.clear();
    }
    // Every fault between clean lanes, so each pass mixes the two.
    std::vector<LaneCase> all;
    for (size_t i = 0; i < cases.size(); ++i) {
        all.push_back(std::move(cases[i]));
        const fame::ReplayableSnapshot &good = *snaps[i % snaps.size()];
        all.push_back(LaneCase{"clean " + std::to_string(i), good, {}});
    }

    gate::GateSimulator gsim(nl);
    std::vector<util::Result<gate::GateReplayResult>> alone;
    for (const LaneCase &c : all) {
        alone.push_back(gate::replayOnGate(gsim, *soc, es->matchTable(),
                                           c.snap, c.options));
    }
    // The divergence, as replayOnGate reported it before the lane pass
    // became its body.
    ASSERT_EQ(alone[all.size() - 4].status().code(), util::ErrorCode::Ok);
    EXPECT_EQ(alone[all.size() - 4]->outputMismatches, 279u);
    EXPECT_EQ(alone[all.size() - 4]->firstMismatch,
              "cycle +1 output 'mmio_addr': got 0x103 expected 0x410");
    EXPECT_EQ(alone[all.size() - 2].status().toString(),
              "invalid-argument: snapshot trace has no cycles");

    gate::GateProgram program(nl);
    for (size_t batch :
         {size_t(1), size_t(W - 1), size_t(W), size_t(W + 1)}) {
        for (size_t first = 0; first < all.size(); first += batch) {
            size_t end = std::min(all.size(), first + batch);
            std::vector<gate::ReplayLane> lanes;
            for (size_t i = first; i < end; ++i)
                lanes.push_back(gate::ReplayLane{&all[i].snap, all[i].options});
            std::vector<bool> seen(lanes.size(), false);
            gate::replayLanesOnGate(
                program, nl, *soc, es->matchTable(), lanes,
                [&](size_t k, util::Result<gate::GateReplayResult> &r) {
                    EXPECT_FALSE(seen[k]);
                    seen[k] = true;
                    expectSameOutcome(alone[first + k], r,
                                      all[first + k].name + ", batch " +
                                          std::to_string(batch));
                },
                static_cast<unsigned>(batch));
            for (size_t k = 0; k < lanes.size(); ++k)
                EXPECT_TRUE(seen[k]) << all[first + k].name;
        }
    }
}

TEST_F(LaneReplay, InconsistentMatchTableIsALoadFailure)
{
    // No snapshot can break the table, but a broken one must still be a
    // status, batched, alone and from loadState, not an exception or an
    // exit.
    std::vector<const fame::ReplayableSnapshot *> snaps = snapshots();
    const gate::GateNetlist &nl = es->synthesis().netlist;
    std::vector<gate::MatchTable> broken(2, es->matchTable());
    ASSERT_FALSE(broken[0].memToMacro.empty());
    broken[0].memToMacro[0] = static_cast<int>(nl.macros().size());
    size_t reg = 0;
    while (reg < broken[1].regRetimed.size() && broken[1].regRetimed[reg])
        ++reg;
    ASSERT_LT(reg, broken[1].regToDff.size());
    broken[1].regToDff[reg][0] = nl.inputs()[0].bits[0]; // not a DFF
    gate::GateSimulator gsim(nl);
    gate::GateProgram program(nl);
    for (const gate::MatchTable &table : broken) {
        util::Result<gate::GateReplayResult> alone =
            gate::replayOnGate(gsim, *soc, table, *snaps[0]);
        EXPECT_EQ(alone.status().code(), util::ErrorCode::LoadFailure);
        EXPECT_EQ(alone.status().message().rfind("state load failed: ", 0),
                  0u)
            << alone.status().message();
        size_t handed = 0;
        gate::replayLanesOnGate(
            program, nl, *soc, table, {gate::ReplayLane{snaps[0], {}}},
            [&](size_t, util::Result<gate::GateReplayResult> &r) {
                ++handed;
                expectSameOutcome(alone, r, "batched");
            });
        EXPECT_EQ(handed, 1u);
        util::Result<gate::LoadReport> load = gate::loadState(
            gsim, *soc, table, snaps[0]->state, gate::LoaderKind::FastVpi);
        EXPECT_EQ(load.status().code(), util::ErrorCode::LoadFailure);
    }
}

TEST_F(LaneReplay, ZeroCycleTraceIsQuarantinedNotFatal)
{
    fame::ReplayableSnapshot empty = *snapshots()[0];
    empty.inputTrace.clear();
    empty.outputTrace.clear();
    EnergySimulator::Config cfg = es->config();
    ReplayContext ctx = context(cfg);
    gate::GateSimulator gsim(es->synthesis().netlist);
    ReplayRecord alone = replaySnapshot(gsim, ctx, ReplayUnit{3, &empty});
    EXPECT_FALSE(alone.outcome.replayed());
    EXPECT_EQ(alone.outcome.status, SnapshotStatus::ReplayError);
    EXPECT_EQ(alone.outcome.detail,
              "invalid-argument: snapshot trace has no cycles");
    ReplayTables tables(ctx);
    std::vector<ReplayRecord> batched =
        replaySnapshots(ctx, tables,
                        {ReplayUnit{3, &empty},
                         ReplayUnit{4, snapshots()[1]}});
    ASSERT_EQ(batched.size(), 2u);
    expectSameRecord(alone, batched[0]);
    EXPECT_TRUE(batched[1].outcome.replayed());
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
            gate::replayLanesOnGate(
                program, nl, *soc, es->matchTable(), lanes,
                [&](size_t k, util::Result<gate::GateReplayResult> &r) {
                    seen.push_back(k);
                    ASSERT_TRUE(r.isOk()) << r.status().toString();
                    EXPECT_EQ(r->outputMismatches, 0u) << "lane " << k;
                    expectSameResult(alone[k], *r, k);
                },
                width);
            // Every lane, once, in lane order.
            ASSERT_EQ(seen.size(), batch)
                << "width " << width << " batch " << batch;
            for (size_t i = 0; i < batch; ++i)
                EXPECT_EQ(seen[i], i) << "width " << width;
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

    fame::ReplayableSnapshot flipped = diverging(*snaps[kDiverged]);
    ASSERT_FALSE(flipped.state.regValues.empty());
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
            std::vector<ReplayRecord> got =
                replaySnapshots(ctx, tables, units);
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
