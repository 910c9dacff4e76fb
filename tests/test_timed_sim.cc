/**
 * @file
 * Tests for the event-driven delay-annotated gate simulator: functional
 * equivalence with the zero-delay evaluator, and glitch visibility
 * (timed toggle counts strictly dominate the zero-delay counts on
 * glitch-prone logic such as ripple-carry adders).
 */

#include <gtest/gtest.h>

#include "core/harness.h"
#include "cores/soc.h"
#include "cores/soc_driver.h"
#include "gate/gate_sim.h"
#include "gate/synthesis.h"
#include "gate/timed_sim.h"
#include "rtl/builder.h"
#include "sim/simulator.h"
#include "stats/rng.h"
#include "workloads/workloads.h"

namespace strober {
namespace gate {
namespace {

using rtl::Builder;
using rtl::Design;
using rtl::Signal;

Design
makeAdderChain()
{
    // Three chained ripple adders: classic carry-glitch generator.
    Builder b("chain");
    Signal a = b.input("a", 16);
    Signal x = b.input("x", 16);
    Signal y = b.input("y", 16);
    Signal s1 = a + x;
    Signal s2 = s1 + y;
    Signal s3 = s2 + a;
    b.output("sum", s3);
    b.output("cmp", ltu(s2, a));
    return b.finish();
}

Design
makeSeq()
{
    Builder b("seq");
    Signal in = b.input("in", 8);
    Signal wen = b.input("wen", 1);
    Signal acc = b.reg("acc", 16, 7);
    b.next(acc, acc + b.pad(in, 16));
    rtl::MemHandle m = b.mem("ram", 8, 16, false);
    Signal ptr = b.reg("ptr", 4, 0);
    b.next(ptr, ptr + b.lit(1, 4), wen);
    b.memWrite(m, ptr, in, wen);
    b.output("acc", acc);
    b.output("rd", b.memRead(m, ptr));
    rtl::MemHandle t = b.mem("tab", 16, 8, true);
    b.memWrite(t, acc.bits(2, 0), acc, wen);
    b.output("td", b.memReadSync(t, acc.bits(2, 0)));
    return b.finish();
}

/** FNV-1a 64 over each count's eight little-endian bytes, in net order. */
uint64_t
hashCounts(const std::vector<uint64_t> &counts)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint64_t c : counts) {
        for (int i = 0; i < 8; ++i) {
            h ^= (c >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

uint64_t
sumCounts(const std::vector<uint64_t> &counts)
{
    uint64_t total = 0;
    for (uint64_t c : counts)
        total += c;
    return total;
}

/** Drives a TimedGateSimulator through the harness protocol, sampling
 *  every output before each clock edge. */
class TimedHarness : public core::TargetHarness
{
  public:
    TimedHarness(TimedGateSimulator &s, size_t numOutputs)
        : sim(s), outs(numOutputs, 0)
    {
    }
    void setInput(size_t port, uint64_t v) override { sim.pokePort(port, v); }
    uint64_t getOutput(size_t port) const override { return outs[port]; }
    void
    clock() override
    {
        for (size_t o = 0; o < outs.size(); ++o)
            outs[o] = sim.peekPort(o);
        sim.step();
    }
    uint64_t cycles() const override { return sim.cycle(); }

  private:
    TimedGateSimulator &sim;
    std::vector<uint64_t> outs;
};

TEST(TimedSim, FunctionallyIdenticalToZeroDelay)
{
    Design d = makeSeq();
    SynthesisResult synth = synthesize(d);
    GateSimulator fast(synth.netlist);
    TimedGateSimulator timed(synth.netlist);
    stats::Rng rng(21);
    for (int cycle = 0; cycle < 250; ++cycle) {
        uint64_t in = rng.nextBounded(256), wen = rng.nextBounded(2);
        fast.pokePort(0, in);
        fast.pokePort(1, wen);
        timed.pokePort(0, in);
        timed.pokePort(1, wen);
        for (size_t o = 0; o < synth.netlist.outputs().size(); ++o) {
            ASSERT_EQ(timed.peekPort(o), fast.peekPort(o))
                << "cycle " << cycle << " output " << o;
        }
        fast.step();
        timed.step();
    }
}

TEST(TimedSim, CombinationalLockstepWithRtl)
{
    Design d = makeAdderChain();
    SynthesisResult synth = synthesize(d);
    sim::Simulator rtlSim(d);
    TimedGateSimulator timed(synth.netlist);
    stats::Rng rng(5);
    for (int i = 0; i < 200; ++i) {
        uint64_t a = rng.nextBounded(1 << 16);
        uint64_t x = rng.nextBounded(1 << 16);
        uint64_t y = rng.nextBounded(1 << 16);
        rtlSim.poke("a", a);
        rtlSim.poke("x", x);
        rtlSim.poke("y", y);
        timed.pokePort(0, a);
        timed.pokePort(1, x);
        timed.pokePort(2, y);
        ASSERT_EQ(timed.peekPort(0), rtlSim.peek("sum"));
        ASSERT_EQ(timed.peekPort(1), rtlSim.peek("cmp"));
    }
}

TEST(TimedSim, GlitchesIncreaseToggleCounts)
{
    Design d = makeAdderChain();
    SynthesisResult synth = synthesize(d);
    GateSimulator fast(synth.netlist);
    TimedGateSimulator timed(synth.netlist);
    stats::Rng rng(13);
    fast.clearActivity();
    timed.clearActivity();
    for (int i = 0; i < 300; ++i) {
        uint64_t a = rng.nextBounded(1 << 16);
        uint64_t x = rng.nextBounded(1 << 16);
        uint64_t y = rng.nextBounded(1 << 16);
        fast.pokePort(0, a);
        fast.pokePort(1, x);
        fast.pokePort(2, y);
        timed.pokePort(0, a);
        timed.pokePort(1, x);
        timed.pokePort(2, y);
        fast.peekPort(0);
        timed.peekPort(0);
        fast.step();
        timed.step();
    }
    uint64_t fastToggles = 0, timedToggles = 0;
    for (NetId id = 0; id < synth.netlist.numNodes(); ++id) {
        fastToggles += fast.toggleCounts()[id];
        timedToggles += timed.toggleCounts()[id];
        // Per net, timed can only see MORE transitions.
        ASSERT_GE(timed.toggleCounts()[id], fast.toggleCounts()[id])
            << "net " << id;
    }
    // Carry chains glitch: expect a measurable surplus.
    EXPECT_GT(timedToggles, fastToggles * 105 / 100);
    EXPECT_GT(timed.eventsProcessed(), 0u);
}

TEST(TimedSim, QuiescentInputsCauseNoActivity)
{
    Design d = makeAdderChain();
    SynthesisResult synth = synthesize(d);
    TimedGateSimulator timed(synth.netlist);
    timed.pokePort(0, 123);
    timed.pokePort(1, 456);
    timed.pokePort(2, 789);
    timed.step(3);
    timed.clearActivity();
    timed.step(50); // same inputs: pure combinational logic is silent
    uint64_t total = 0;
    for (uint64_t t : timed.toggleCounts())
        total += t;
    EXPECT_EQ(total, 0u);
}

// Golden activity: the glitch counts of a fixed stimulus, net by net.
// They pin the event order (same-time events run in net-id order, one
// event per async read data bit), the async read re-evaluation after
// each clock edge, and the per-cell delays.
TEST(TimedSim, SeqActivityGolden)
{
    Design d = makeSeq();
    SynthesisResult synth = synthesize(d);
    TimedGateSimulator timed(synth.netlist);
    stats::Rng rng(21);
    for (int cycle = 0; cycle < 250; ++cycle) {
        timed.pokePort(0, rng.nextBounded(256));
        timed.pokePort(1, rng.nextBounded(2));
        for (size_t o = 0; o < synth.netlist.outputs().size(); ++o)
            timed.peekPort(o);
        timed.step();
    }
    EXPECT_EQ(sumCounts(timed.toggleCounts()), 12399u);
    EXPECT_EQ(hashCounts(timed.toggleCounts()), 0x7bb2d322b38b9c08ull);
    ASSERT_EQ(timed.macroStats().size(), 2u);
    EXPECT_EQ(timed.macroStats()[0].reads, 250u);
    EXPECT_EQ(timed.macroStats()[0].writes, 146u);
    EXPECT_EQ(timed.macroStats()[1].reads, 250u);
    EXPECT_EQ(timed.macroStats()[1].writes, 146u);
    EXPECT_EQ(timed.activityCycles(), 250u);
}

// The glitch-power ablation's window: rocket running dgemm for 2000
// cycles under the SoC driver's stimulus.
TEST(TimedSim, RocketDgemmActivityGolden)
{
    rtl::Design soc = cores::buildSoc(cores::SocConfig::rocket());
    workloads::Workload wl = workloads::dgemm();
    SynthesisResult synth = synthesize(soc);
    cores::SocDriver driver(soc, wl.program);
    TimedGateSimulator timed(synth.netlist);
    timed.clearActivity();
    TimedHarness harness(timed, synth.netlist.outputs().size());
    core::runLoop(harness, driver, 2000);

    const std::vector<uint64_t> &counts = timed.toggleCounts();
    EXPECT_EQ(sumCounts(counts), 49116u);
    EXPECT_EQ(hashCounts(counts), 0x682c49848a704290ull);
    std::vector<uint64_t> macroCounts;
    for (const MacroStats &m : timed.macroStats()) {
        macroCounts.push_back(m.reads);
        macroCounts.push_back(m.writes);
    }
    EXPECT_EQ(macroCounts,
              (std::vector<uint64_t>{2000, 15, 2000, 15, 2000, 15, 2000, 15,
                                     4000, 24, 2000, 2, 2000, 2, 2000, 2,
                                     2000, 2}));
    EXPECT_EQ(timed.activityCycles(), 2000u);
}

} // namespace
} // namespace gate
} // namespace strober
