/**
 * @file
 * Differential tests between the Simulator backends — the lock-down
 * for the activity-driven optimization, the compiled backend, and the
 * partitioned compiled-parallel backend.
 * Backend::InterpretedFull is the naive reference sweep;
 * Backend::InterpretedActivity, Backend::Compiled and
 * Backend::CompiledParallel must be observationally equivalent on
 * *every* design and stimulus:
 *   - 50 randomized designs (shared fuzz generator, tests/fuzz_designs.h)
 *     driven for 1000+ cycles of random pokes, with cycle-by-cycle output
 *     equality and periodic whole-state sweeps (every node value, every
 *     register, every memory word, every sync read latch) — four-way,
 *     all backends in lockstep;
 *   - reset() mid-run, repeated evalComb(), and partially-driven cycles
 *     (undriven inputs hold their values, creating the low-activity
 *     cycles the optimization exists for);
 *   - direct state writes between edges (setRegValue, setMemWord,
 *     setSyncReadData, loadMem, ScanChains restore, reset) on a
 *     hand-built commit-corner design and on fuzz designs — the inputs
 *     the activity backend's gated commit edge must not miss;
 *   - end-to-end: full Strober flows on the Rocket and BOOM SoCs, one
 *     per backend, must produce identical run statistics, identical
 *     sampled snapshots and *identical* energy estimates;
 *   - the compiled-parallel backend's boom2w energy report is
 *     byte-identical to the compiled backend's, and the set of chunks
 *     it executes is pinned through its evaluation counters.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/energy_sim.h"
#include "cores/soc.h"
#include "cores/soc_driver.h"
#include "fame/scan_chain.h"
#include "rtl/builder.h"
#include "sim/simulator.h"
#include "stats/rng.h"
#include "workloads/workloads.h"

#include "fuzz_designs.h"

namespace strober {
namespace {

using rtl::Design;
using sim::Backend;
using sim::Simulator;
using strober::testing::randomDesign;

/** Assert every piece of observable state matches the reference. */
void
expectStateEqual(const Design &d, Simulator &ref, Simulator &alt,
                 uint64_t seed, int cycle)
{
    const char *name = sim::backendName(alt.requestedBackend());
    for (size_t n = 0; n < d.numNodes(); ++n) {
        rtl::NodeId id = static_cast<rtl::NodeId>(n);
        ASSERT_EQ(alt.peek(id), ref.peek(id))
            << name << " seed " << seed << " cycle " << cycle << " node "
            << n;
    }
    for (size_t r = 0; r < d.regs().size(); ++r)
        ASSERT_EQ(alt.regValue(r), ref.regValue(r))
            << name << " seed " << seed << " cycle " << cycle << " reg "
            << r;
    for (size_t m = 0; m < d.mems().size(); ++m) {
        const rtl::MemInfo &mem = d.mems()[m];
        for (uint64_t a = 0; a < mem.depth; ++a)
            ASSERT_EQ(alt.memWord(m, a), ref.memWord(m, a))
                << name << " seed " << seed << " cycle " << cycle
                << " mem " << m << " addr " << a;
        if (mem.syncRead) {
            for (size_t p = 0; p < mem.reads.size(); ++p)
                ASSERT_EQ(alt.syncReadData(m, p), ref.syncReadData(m, p))
                    << name << " seed " << seed << " cycle " << cycle
                    << " mem " << m << " port " << p;
        }
    }
}

class Differential : public ::testing::TestWithParam<uint64_t> {};

/**
 * The core equivalence property: under identical random stimulus, the
 * activity-driven, compiled and compiled-parallel simulators are
 * cycle-for-cycle indistinguishable from the full sweep — a four-way
 * lockstep.
 * Roughly a quarter of the pokes are withheld each cycle so inputs
 * frequently hold their values — the low-activity condition the
 * dirty-propagation machinery actually optimizes — and a burst of
 * completely undriven cycles exercises the near-zero activity path.
 */
TEST_P(Differential, RandomDesignLockstep)
{
    const uint64_t seed = GetParam();
    Design d = randomDesign(seed);
    // The reference sweep runs on the *unstrengthened* plan (dataflow
    // folding disabled), so every seed also differentially checks the
    // known-bits EvalPlan strengthening the other three backends use
    // by default against a plan that never consulted the facts.
    setenv("STROBER_SIM_NO_DATAFLOW", "1", 1);
    Simulator full(d, Backend::InterpretedFull);
    unsetenv("STROBER_SIM_NO_DATAFLOW");
    Simulator act(d, Backend::InterpretedActivity);
    Simulator comp(d, Backend::Compiled);
    Simulator par(d, Backend::CompiledParallel);
    ASSERT_EQ(full.backend(), Backend::InterpretedFull);
    ASSERT_EQ(act.backend(), Backend::InterpretedActivity);
    ASSERT_EQ(comp.requestedBackend(), Backend::Compiled);
    ASSERT_EQ(par.requestedBackend(), Backend::CompiledParallel);

    Simulator *sims[] = {&full, &act, &comp, &par};
    stats::Rng rng(seed * 7919 + 13);
    for (int cycle = 0; cycle < 1000; ++cycle) {
        bool quiet = cycle >= 600 && cycle < 620;
        for (rtl::NodeId in : d.inputs()) {
            // Withhold ~1/4 of the pokes (and all of them during the
            // quiet burst): undriven inputs hold their previous value.
            if (quiet || rng.nextBounded(4) == 0)
                continue;
            uint64_t v = rng.next();
            for (Simulator *s : sims)
                s->poke(in, v);
        }
        for (size_t o = 0; o < d.outputs().size(); ++o) {
            uint64_t refv = full.peek(d.outputs()[o].node);
            ASSERT_EQ(act.peek(d.outputs()[o].node), refv)
                << "activity seed " << seed << " cycle " << cycle
                << " output " << o;
            ASSERT_EQ(comp.peek(d.outputs()[o].node), refv)
                << "compiled seed " << seed << " cycle " << cycle
                << " output " << o;
            ASSERT_EQ(par.peek(d.outputs()[o].node), refv)
                << "compiled-parallel seed " << seed << " cycle "
                << cycle << " output " << o;
        }
        if (cycle % 97 == 0) {
            ASSERT_NO_FATAL_FAILURE(
                expectStateEqual(d, full, act, seed, cycle));
            ASSERT_NO_FATAL_FAILURE(
                expectStateEqual(d, full, comp, seed, cycle));
            ASSERT_NO_FATAL_FAILURE(
                expectStateEqual(d, full, par, seed, cycle));
        }
        for (Simulator *s : sims)
            s->step();
    }
    ASSERT_NO_FATAL_FAILURE(expectStateEqual(d, full, act, seed, 1000));
    ASSERT_NO_FATAL_FAILURE(expectStateEqual(d, full, comp, seed, 1000));
    ASSERT_NO_FATAL_FAILURE(expectStateEqual(d, full, par, seed, 1000));
    EXPECT_EQ(full.cycle(), act.cycle());
    EXPECT_EQ(full.cycle(), comp.cycle());
    EXPECT_EQ(full.cycle(), par.cycle());
    EXPECT_EQ(full.nodeEvalsSkipped(), 0u);
}

/** reset() must restore every backend to the same initial state. */
TEST_P(Differential, ResetMidRunStaysEquivalent)
{
    const uint64_t seed = GetParam();
    Design d = randomDesign(seed);
    Simulator full(d, Backend::InterpretedFull);
    Simulator act(d, Backend::InterpretedActivity);
    // Every fifth seed also resets the compiled backend mid-run (and
    // a different fifth the compiled-parallel one); bounding the JIT
    // invocations keeps the suite fast while still covering reset()
    // on compiled state across varied designs.
    std::unique_ptr<Simulator> comp;
    if (seed % 5 == 0)
        comp = std::make_unique<Simulator>(d, Backend::Compiled);
    else if (seed % 5 == 2)
        comp = std::make_unique<Simulator>(d, Backend::CompiledParallel);
    stats::Rng rng(seed + 0xabcd);

    auto drive = [&](int cycles) {
        for (int c = 0; c < cycles; ++c) {
            for (rtl::NodeId in : d.inputs()) {
                uint64_t v = rng.next();
                full.poke(in, v);
                act.poke(in, v);
                if (comp)
                    comp->poke(in, v);
            }
            // Repeated evalComb() between pokes must be idempotent.
            if (c % 13 == 0) {
                full.evalComb();
                act.evalComb();
                if (comp)
                    comp->evalComb();
            }
            for (const rtl::OutputPort &out : d.outputs()) {
                ASSERT_EQ(act.peek(out.node), full.peek(out.node))
                    << "seed " << seed << " cycle " << c;
                if (comp) {
                    ASSERT_EQ(comp->peek(out.node), full.peek(out.node))
                        << "compiled seed " << seed << " cycle " << c;
                }
            }
            full.step();
            act.step();
            if (comp)
                comp->step();
        }
    };
    drive(80);
    full.reset();
    act.reset();
    if (comp)
        comp->reset();
    ASSERT_NO_FATAL_FAILURE(expectStateEqual(d, full, act, seed, -1));
    if (comp) {
        ASSERT_NO_FATAL_FAILURE(expectStateEqual(d, full, *comp, seed, -1));
    }
    drive(80);
    ASSERT_NO_FATAL_FAILURE(expectStateEqual(d, full, act, seed, -2));
    if (comp) {
        ASSERT_NO_FATAL_FAILURE(expectStateEqual(d, full, *comp, seed, -2));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential,
                         ::testing::Range<uint64_t>(1, 51));

/**
 * $STROBER_SIM_NO_DATAFLOW pins the exact property the known-bits
 * strengthening must preserve: two interpreters differing *only* in
 * whether buildEvalPlan consulted the dataflow facts are
 * observationally indistinguishable — every node peek, every register,
 * every memory word — while the strengthened plan really is smaller
 * on a design with provably-constant logic.
 */
TEST(Differential, DataflowStrengtheningIsObservationallyInvisible)
{
    rtl::Builder b("df_invisible");
    rtl::Signal in = b.input("in", 4);
    rtl::Signal wide = b.pad(in, 16);
    // Provably dead logic: high bits of a 4-bit value, an always-true
    // bound check steering a mux.
    rtl::Signal hi = shru(wide, b.lit(4, 16));
    rtl::Signal inBounds = ltu(wide, b.lit(100, 16));
    b.output("sum", b.mux(inBounds, wide + b.lit(3, 16), hi));
    b.output("hi", hi);
    rtl::Signal acc = b.reg("acc", 16, 0);
    b.next(acc, acc + wide);
    b.output("acc", acc);
    Design d = b.finish();

    setenv("STROBER_SIM_NO_DATAFLOW", "1", 1);
    Simulator plain(d, Backend::InterpretedFull);
    unsetenv("STROBER_SIM_NO_DATAFLOW");
    Simulator strong(d, Backend::InterpretedFull);
    EXPECT_GT(plain.plan().hotProgram.size(),
              strong.plan().hotProgram.size());
    EXPECT_GT(strong.plan().stats.dfFolded + strong.plan().stats.dfAliased +
                  strong.plan().stats.dfMuxPruned,
              0u);
    EXPECT_EQ(plain.plan().stats.dfFolded, 0u);

    stats::Rng rng(20260808);
    for (int cycle = 0; cycle < 200; ++cycle) {
        uint64_t v = rng.nextBounded(16);
        plain.poke("in", v);
        strong.poke("in", v);
        ASSERT_NO_FATAL_FAILURE(
            expectStateEqual(d, plain, strong, 0, cycle));
        plain.step();
        strong.step();
    }
}

/**
 * The whole point of InterpretedActivity: combinational cones whose
 * inputs are stable are not re-evaluated. A deep pure-input cone plus a
 * free running counter makes the skip guaranteed and deterministic: with
 * the input held, only the counter's cone re-evaluates each cycle.
 */
TEST(Differential, ActivitySkipsStableCones)
{
    rtl::Builder b("skip");
    rtl::Signal in = b.input("in", 32);
    rtl::Signal x = in;
    for (unsigned i = 0; i < 16; ++i)
        x = x + b.lit(i + 1, 32);
    b.output("cone", x);
    rtl::Signal cnt = b.reg("cnt", 8, 0);
    b.next(cnt, cnt + b.lit(1, 8));
    b.output("cnt", cnt);
    Design d = b.finish();

    Simulator sim(d, Backend::InterpretedActivity);
    sim.poke("in", 5);
    sim.step(); // first sweep after reset is a full one
    uint64_t skippedAfterFirst = sim.nodeEvalsSkipped();
    sim.step(10); // input stable: the 16-adder cone must be skipped
    EXPECT_GT(sim.nodeEvalsSkipped(), skippedAfterFirst);
    EXPECT_LT(sim.activityFactor(), 1.0);
    // ...while results stay exact.
    EXPECT_EQ(sim.peek("cnt"), 11u);
    EXPECT_EQ(sim.peek("cone"), 5u + 136u); // 5 + sum(1..16)

    // The reference backend never skips and reports unit activity.
    Simulator ref(d, Backend::InterpretedFull);
    ref.poke("in", 5);
    ref.step(11);
    EXPECT_EQ(ref.nodeEvalsSkipped(), 0u);
    EXPECT_EQ(ref.activityFactor(), 1.0);
    EXPECT_EQ(std::string(sim::backendName(sim.backend())), "activity");
    EXPECT_EQ(std::string(sim::backendName(ref.backend())), "full");
}

/**
 * The commit-edge twin of ActivitySkipsStableCones: a bank of 256
 * registers that load only under an enable held low is idle, so on
 * InterpretedActivity each idle edge re-latches just the free-running
 * counter — while every output still matches the full sweep, which
 * latches every register on every edge.
 */
TEST(Differential, ActivitySkipsStableCommits)
{
    constexpr unsigned kBank = 256;
    rtl::Builder b("idle_bank");
    rtl::Signal in = b.input("in", 16);
    rtl::Signal load = b.input("load", 1);
    rtl::Signal fold = b.lit(0, 16);
    for (unsigned i = 0; i < kBank; ++i) {
        const std::string idx = std::to_string(i);
        rtl::Signal r = b.reg("bank" + idx, 16, i);
        b.next(r, in + b.lit(i, 16), load);
        fold = fold ^ r;
    }
    b.output("fold", fold);
    rtl::Signal cnt = b.reg("cnt", 8, 0);
    b.next(cnt, cnt + b.lit(1, 8));
    b.output("cnt", cnt);
    Design d = b.finish();
    const uint64_t units = d.regs().size();

    Simulator act(d, Backend::InterpretedActivity);
    Simulator full(d, Backend::InterpretedFull);
    for (Simulator *s : {&act, &full}) {
        s->poke("in", 5);
        s->poke("load", 1);
        s->step(); // the first edge after reset commits every unit
        s->poke("load", 0);
        s->step(); // the enable fell: the whole bank is re-latched once
    }
    EXPECT_EQ(act.commitEvals(), 2 * units);
    const uint64_t evalsBefore = act.commitEvals();
    const uint64_t skippedBefore = act.commitsSkipped();

    constexpr uint64_t kIdle = 100;
    for (uint64_t c = 0; c < kIdle; ++c) {
        act.step();
        full.step();
        ASSERT_EQ(act.peek("fold"), full.peek("fold")) << "cycle " << c;
        ASSERT_EQ(act.peek("cnt"), full.peek("cnt")) << "cycle " << c;
    }
    // Only the counter changes, so only it is re-latched.
    EXPECT_EQ(act.commitEvals() - evalsBefore, kIdle);
    EXPECT_EQ(act.commitsSkipped() - skippedBefore, kIdle * (units - 1));
    for (size_t r = 0; r < d.regs().size(); ++r)
        EXPECT_EQ(act.regValue(r), full.regValue(r)) << "reg " << r;

    // The reference commits every unit on every edge and skips none.
    EXPECT_EQ(full.commitEvals(), (kIdle + 2) * units);
    EXPECT_EQ(full.commitsSkipped(), 0u);
}

/**
 * Hand-built corners of the activity-gated commit edge:
 *   - two write ports on one memory that often collide on an address
 *     (the last port must win);
 *   - a sync-read port whose address and enable are constant, so only
 *     writes to the memory under it change what it latches;
 *   - a register with a constant next, a self-holding register, a
 *     register whose enable toggles while its next is held, and one
 *     fed straight from a sync-read port.
 */
Design
commitCornerDesign()
{
    rtl::Builder b("commit_corners");
    rtl::Signal wa = b.input("wa", 4);
    rtl::Signal wb = b.input("wb", 4);
    rtl::Signal collide = b.input("collide", 1);
    rtl::Signal wd0 = b.input("wd0", 8);
    rtl::Signal wd1 = b.input("wd1", 8);
    rtl::Signal we0 = b.input("we0", 1);
    rtl::Signal we1 = b.input("we1", 1);
    rtl::Signal ra = b.input("ra", 4);
    rtl::Signal ren = b.input("ren", 1);
    rtl::Signal en = b.input("en", 1);
    rtl::Signal x = b.input("x", 8);

    rtl::MemHandle m = b.mem("m", 8, 16, true);
    b.memWrite(m, wa, wd0, we0);
    b.memWrite(m, b.mux(collide, wa, wb), wd1, we1);
    rtl::Signal rd = b.memReadSync(m, ra, ren);
    rtl::Signal fixed = b.memReadSync(m, b.lit(3, 4), b.lit(1, 1));

    rtl::Signal konst = b.reg("konst", 8, 0);
    b.next(konst, b.lit(42, 8));
    rtl::Signal hold = b.reg("hold", 8, 7);
    b.next(hold, hold);
    rtl::Signal gated = b.reg("gated", 8, 0);
    b.next(gated, x, en);
    rtl::Signal shadow = b.reg("shadow", 8, 0);
    b.next(shadow, fixed);
    rtl::Signal cnt = b.reg("cnt", 4, 0);
    b.next(cnt, cnt + b.lit(1, 4));

    b.output("rd", rd);
    b.output("fixed", fixed);
    b.output("konst", konst);
    b.output("hold", hold);
    b.output("gated", gated);
    b.output("shadow", shadow);
    b.output("mix", (rd ^ shadow) + (konst ^ hold) + b.pad(cnt, 8));
    return b.finish();
}

/**
 * Four-way lockstep with direct state writes between edges: at random
 * cycles setRegValue, setMemWord, setSyncReadData, loadMem, a
 * ScanChains restore of an earlier capture, or reset() hit all four
 * backends alike — sometimes before, sometimes after the outputs were
 * observed. After every edge the outputs, every register and every
 * sync-read latch must agree. This is what the commit gating can get
 * wrong: a write that bypasses the comb sweep must still make the
 * units it feeds commit candidates.
 */
void
stateWriteLockstep(const Design &d, uint64_t seed, int cycles)
{
    Simulator full(d, Backend::InterpretedFull);
    Simulator act(d, Backend::InterpretedActivity);
    Simulator comp(d, Backend::Compiled);
    Simulator par(d, Backend::CompiledParallel);
    Simulator *sims[] = {&full, &act, &comp, &par};
    fame::ScanChains chains(d);
    fame::StateSnapshot saved = chains.capture(full, 0);
    stats::Rng rng(seed * 104729 + 7);

    std::vector<std::pair<size_t, size_t>> syncPorts;
    for (size_t mi = 0; mi < d.mems().size(); ++mi)
        if (d.mems()[mi].syncRead)
            for (size_t p = 0; p < d.mems()[mi].reads.size(); ++p)
                syncPorts.emplace_back(mi, p);

    auto perturb = [&]() {
        switch (rng.nextBounded(12)) {
          case 0: {
            size_t r = rng.nextBounded(d.regs().size());
            uint64_t v = rng.next();
            for (Simulator *s : sims)
                s->setRegValue(r, v);
            break;
          }
          case 1: {
            if (d.mems().empty())
                break;
            size_t mi = rng.nextBounded(d.mems().size());
            // Bias towards address 3, the fixed read address above.
            uint64_t a = rng.nextBounded(2) == 0
                             ? std::min<uint64_t>(3, d.mems()[mi].depth - 1)
                             : rng.nextBounded(d.mems()[mi].depth);
            uint64_t v = rng.next();
            for (Simulator *s : sims)
                s->setMemWord(mi, a, v);
            break;
          }
          case 2: {
            if (syncPorts.empty())
                break;
            auto [mi, p] = syncPorts[rng.nextBounded(syncPorts.size())];
            uint64_t v = rng.next();
            for (Simulator *s : sims)
                s->setSyncReadData(mi, p, v);
            break;
          }
          case 3: {
            if (d.mems().empty())
                break;
            size_t mi = rng.nextBounded(d.mems().size());
            uint64_t depth = d.mems()[mi].depth;
            uint64_t base = rng.nextBounded(depth);
            std::vector<uint64_t> words(
                1 + rng.nextBounded(depth - base));
            for (uint64_t &w : words)
                w = rng.next();
            for (Simulator *s : sims)
                s->loadMem(mi, base, words);
            break;
          }
          case 4:
            for (Simulator *s : sims)
                chains.restore(*s, saved);
            break;
          case 5:
            saved = chains.capture(full, full.cycle());
            break;
          case 6:
            if (rng.nextBounded(8) == 0)
                for (Simulator *s : sims)
                    s->reset();
            break;
          default:
            break; // most cycles leave the state alone
        }
    };

    const char *names[] = {"full", "activity", "compiled",
                           "compiled-parallel"};
    for (int cycle = 0; cycle < cycles; ++cycle) {
        for (rtl::NodeId in : d.inputs()) {
            // A quarter of the pokes are withheld, and "x" is driven
            // only one cycle in sixteen: registers then see a held next
            // value under a toggling enable.
            bool rare = d.node(in).name == "x";
            if (rare ? rng.nextBounded(16) != 0 : rng.nextBounded(4) == 0)
                continue;
            uint64_t v = rng.next();
            for (Simulator *s : sims)
                s->poke(in, v);
        }
        perturb();
        for (const rtl::OutputPort &out : d.outputs()) {
            uint64_t refv = full.peek(out.node);
            for (size_t i = 1; i < 4; ++i)
                ASSERT_EQ(sims[i]->peek(out.node), refv)
                    << names[i] << " seed " << seed << " cycle " << cycle
                    << " output " << out.name;
        }
        perturb(); // after the sweep: the comb values are now stale
        for (Simulator *s : sims)
            s->step();
        for (size_t i = 1; i < 4; ++i) {
            for (const rtl::OutputPort &out : d.outputs())
                ASSERT_EQ(sims[i]->peek(out.node), full.peek(out.node))
                    << names[i] << " seed " << seed << " after edge "
                    << cycle << " output " << out.name;
            for (size_t r = 0; r < d.regs().size(); ++r)
                ASSERT_EQ(sims[i]->regValue(r), full.regValue(r))
                    << names[i] << " seed " << seed << " after edge "
                    << cycle << " reg " << r;
            for (auto [mi, p] : syncPorts)
                ASSERT_EQ(sims[i]->syncReadData(mi, p),
                          full.syncReadData(mi, p))
                    << names[i] << " seed " << seed << " after edge "
                    << cycle << " mem " << mi << " port " << p;
        }
        if (cycle % 101 == 0) {
            for (size_t i = 1; i < 4; ++i) {
                ASSERT_NO_FATAL_FAILURE(
                    expectStateEqual(d, full, *sims[i], seed, cycle));
            }
        }
    }
    for (size_t i = 1; i < 4; ++i) {
        ASSERT_NO_FATAL_FAILURE(
            expectStateEqual(d, full, *sims[i], seed, cycles));
    }
}

TEST(Differential, CommitCornersUnderStateWrites)
{
    Design d = commitCornerDesign();
    ASSERT_EQ(d.mems().size(), 1u);
    ASSERT_EQ(d.mems()[0].writes.size(), 2u);
    ASSERT_EQ(d.mems()[0].reads.size(), 2u);
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(seed);
        ASSERT_NO_FATAL_FAILURE(stateWriteLockstep(d, seed, 1500));
    }
}

class StateWrites : public ::testing::TestWithParam<uint64_t> {};

/** The same lockstep over fuzz designs (tests/fuzz_designs.h). */
TEST_P(StateWrites, RandomDesignLockstep)
{
    const uint64_t seed = GetParam();
    stateWriteLockstep(randomDesign(seed), seed, 600);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StateWrites,
                         ::testing::Range<uint64_t>(1, 11));

/** Shared body: run the full Strober flow once per backend on one SoC
 *  and require bit-identical estimates. */
void
expectFlowIdenticalAcrossBackends(const rtl::Design &soc,
                                  const workloads::Workload &wl,
                                  size_t sampleSize)
{
    struct FlowResult
    {
        core::RunStats run;
        core::EnergyReport rep;
        std::vector<uint64_t> snapCycles;
        bool done = false;
        int exitCode = -1;
    };
    auto runFlow = [&](Backend backend) {
        core::EnergySimulator::Config cfg;
        cfg.sampleSize = sampleSize;
        cfg.replayLength = 64;
        cfg.backend = backend;
        core::EnergySimulator strober(soc, cfg);
        cores::SocDriver driver(soc, wl.program);
        FlowResult r;
        r.run = strober.run(driver, wl.maxCycles);
        r.done = driver.done();
        r.exitCode = driver.exitCode();
        for (const fame::ReplayableSnapshot *s :
             strober.sampler().snapshots())
            r.snapCycles.push_back(s->cycle());
        r.rep = strober.estimate();
        return r;
    };

    FlowResult full = runFlow(Backend::InterpretedFull);
    for (Backend backend :
         {Backend::InterpretedActivity, Backend::Compiled,
          Backend::CompiledParallel}) {
        SCOPED_TRACE(sim::backendName(backend));
        FlowResult alt = runFlow(backend);

        // Phase 1 behaved identically...
        EXPECT_TRUE(full.done);
        EXPECT_TRUE(alt.done);
        EXPECT_EQ(full.exitCode, alt.exitCode);
        EXPECT_EQ(full.run.targetCycles, alt.run.targetCycles);
        EXPECT_EQ(full.run.hostCycles, alt.run.hostCycles);
        EXPECT_EQ(full.run.recordCount, alt.run.recordCount);
        EXPECT_EQ(full.run.intervalsSeen, alt.run.intervalsSeen);
        EXPECT_EQ(full.snapCycles, alt.snapCycles);

        // ...and the estimates are bit-identical, not merely close.
        ASSERT_EQ(full.rep.replayMismatches, 0u);
        ASSERT_EQ(alt.rep.replayMismatches, 0u);
        EXPECT_EQ(full.rep.snapshots, alt.rep.snapshots);
        EXPECT_EQ(full.rep.population, alt.rep.population);
        EXPECT_EQ(full.rep.averagePower.mean, alt.rep.averagePower.mean);
        EXPECT_EQ(full.rep.averagePower.halfWidth,
                  alt.rep.averagePower.halfWidth);
        ASSERT_EQ(full.rep.groups.size(), alt.rep.groups.size());
        for (size_t g = 0; g < full.rep.groups.size(); ++g) {
            EXPECT_EQ(full.rep.groups[g].group, alt.rep.groups[g].group);
            EXPECT_EQ(full.rep.groups[g].power.mean,
                      alt.rep.groups[g].power.mean)
                << "group " << full.rep.groups[g].group;
        }
    }
}

/**
 * End-to-end: the complete Strober flow (FAME1 fast sim + reservoir
 * sampling -> replay -> power aggregation) on the Rocket SoC must
 * produce identical results whichever simulator backend drives phase 1.
 * Everything downstream of phase 1 consumes only the sampled snapshots,
 * so equality here means the backends agreed on every sampled state bit
 * and every I/O trace word across the whole workload.
 */
TEST(Differential, RocketEnergyEstimateIdenticalAcrossBackends)
{
    rtl::Design soc = cores::buildSoc(cores::SocConfig::rocket());
    expectFlowIdenticalAcrossBackends(soc, workloads::towers(), 10);
}

/** Same property on the superscalar BOOM variants: wider datapaths,
 *  more retiming regions, bigger compiled translation units. */
TEST(Differential, BoomEnergyEstimateIdenticalAcrossBackends)
{
    for (const char *core : {"boom1w", "boom2w"}) {
        SCOPED_TRACE(core);
        cores::SocConfig cfg = std::string(core) == "boom1w"
                                   ? cores::SocConfig::boom1w()
                                   : cores::SocConfig::boom2w();
        rtl::Design soc = cores::buildSoc(cfg);
        expectFlowIdenticalAcrossBackends(soc, workloads::vvadd(), 5);
    }
}

/**
 * Serialize every field of a flow result to exact bytes — doubles in
 * hex-float form, so two reports compare equal iff they are
 * bit-identical, not merely close.
 */
std::string
serializeReport(const core::RunStats &run, const core::EnergyReport &rep,
                const std::vector<uint64_t> &snapCycles)
{
    std::string out;
    char buf[128];
    auto num = [&](const char *k, double v) {
        std::snprintf(buf, sizeof buf, "%s=%a\n", k, v);
        out += buf;
    };
    auto u64 = [&](const char *k, unsigned long long v) {
        std::snprintf(buf, sizeof buf, "%s=%llu\n", k, v);
        out += buf;
    };
    u64("targetCycles", run.targetCycles);
    u64("hostCycles", run.hostCycles);
    u64("recordCount", run.recordCount);
    u64("intervalsSeen", run.intervalsSeen);
    for (uint64_t c : snapCycles)
        u64("snapCycle", c);
    num("mean", rep.averagePower.mean);
    num("halfWidth", rep.averagePower.halfWidth);
    num("confidence", rep.averagePower.confidence);
    u64("population", rep.population);
    u64("snapshots", rep.snapshots);
    u64("dropped", rep.droppedSnapshots);
    u64("mismatches", rep.replayMismatches);
    num("modeledLoadSeconds", rep.modeledLoadSeconds);
    u64("cacheHits", rep.cacheHits);
    u64("cacheMisses", rep.cacheMisses);
    u64("degraded", rep.degraded ? 1 : 0);
    u64("valid", rep.valid ? 1 : 0);
    out += "status=" + rep.statusMessage + "\n";
    for (const core::GroupEstimate &g : rep.groups) {
        out += "group=" + g.group + "\n";
        num("groupMean", g.power.mean);
        num("groupHalfWidth", g.power.halfWidth);
    }
    for (const core::SnapshotOutcome &oc : rep.outcomes) {
        u64("ocIndex", oc.index);
        u64("ocCycle", oc.cycle);
        out += std::string("ocStatus=") +
               core::snapshotStatusName(oc.status) + "\n";
        u64("ocAttempts", oc.attempts);
        u64("ocRetried", oc.retriedOnAlternateLoader ? 1 : 0);
        u64("ocMismatches", oc.mismatches);
        out += "ocDetail=" + oc.detail + "\n";
    }
    return out;
}

/**
 * The boom2w energy report from the compiled-parallel backend is
 * byte-identical — every double bit-for-bit — to the compiled
 * backend's, and its evaluation counters pin the set of chunks it
 * executes: 151648763 of the 1207352586 steps a full sweep of this
 * flow evaluates.
 */
TEST(Differential, Boom2wCompiledParallelReportMatchesCompiled)
{
    rtl::Design soc = cores::buildSoc(cores::SocConfig::boom2w());
    workloads::Workload wl = workloads::vvadd();

    struct Flow
    {
        std::string report;
        Backend effective = Backend::InterpretedFull;
        uint64_t evals = 0;
        uint64_t skipped = 0;
    };
    auto runFlow = [&](Backend backend) {
        core::EnergySimulator::Config cfg;
        cfg.sampleSize = 5;
        cfg.replayLength = 64;
        cfg.backend = backend;
        core::EnergySimulator strober(soc, cfg);
        cores::SocDriver driver(soc, wl.program);
        core::RunStats run = strober.run(driver, wl.maxCycles);
        EXPECT_TRUE(driver.done());
        Flow flow;
        const Simulator &fast = strober.harness().tokenSim().simulator();
        flow.effective = fast.backend();
        flow.evals = fast.nodeEvals();
        flow.skipped = fast.nodeEvalsSkipped();
        std::vector<uint64_t> snapCycles;
        for (const fame::ReplayableSnapshot *s :
             strober.sampler().snapshots())
            snapCycles.push_back(s->cycle());
        flow.report = serializeReport(run, strober.estimate(), snapCycles);
        return flow;
    };

    Flow compiled = runFlow(Backend::Compiled);
    Flow parallel = runFlow(Backend::CompiledParallel);
    EXPECT_EQ(parallel.report, compiled.report);
    if (parallel.effective != Backend::CompiledParallel)
        return; // no JIT toolchain: the activity fallback counts steps
    EXPECT_EQ(compiled.evals, 1207352586u);
    EXPECT_EQ(parallel.evals, 151648763u);
    EXPECT_EQ(parallel.skipped, 1055703823u);
}

} // namespace
} // namespace strober
