/**
 * @file
 * Randomized cross-checks over arbitrary generated RTL — the "arbitrary"
 * in the paper's title. A generator (tests/fuzz_designs.h, shared with
 * test_differential.cc) builds random synchronous designs (random word
 * widths, the full op set, registers, async + sync memories); each
 * design is then checked for:
 *   - synthesis equivalence: gate netlist lock-steps with the RTL
 *     interpreter under random stimulus;
 *   - FAME1 transparency: the transformed design with host_en held high
 *     behaves identically to the target;
 *   - snapshot round-trip: scan-out/restore reproduces identical
 *     forward behaviour;
 *   - end-to-end snapshot replay at gate level.
 */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "fame/fame1.h"
#include "fame/replay.h"
#include "fame/scan_chain.h"
#include "fame/token_sim.h"
#include "gate/gate_sim.h"
#include "gate/lane_sim.h"
#include "gate/matching.h"
#include "gate/replay.h"
#include "gate/synthesis.h"
#include "rtl/builder.h"
#include "sim/simulator.h"
#include "stats/rng.h"

#include "fuzz_designs.h"

namespace strober {
namespace {

using rtl::Design;
using strober::testing::randomDesign;

class Fuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Fuzz, GateNetlistLockstepsWithRtl)
{
    Design d = randomDesign(GetParam());
    gate::SynthesisResult synth = gate::synthesize(d);
    gate::MatchTable table =
        gate::matchDesigns(d, synth.netlist, synth.guide);
    EXPECT_TRUE(table.outputsEquivalent);
    EXPECT_EQ(table.verifiedRegs, d.regs().size());

    sim::Simulator rtl(d);
    gate::GateSimulator gates(synth.netlist);
    stats::Rng rng(GetParam() * 31 + 7);
    for (int cycle = 0; cycle < 150; ++cycle) {
        for (size_t i = 0; i < d.inputs().size(); ++i) {
            uint64_t v = rng.next();
            rtl.poke(d.inputs()[i], v);
            gates.pokePort(i, truncate(v, d.node(d.inputs()[i]).width));
        }
        for (size_t o = 0; o < d.outputs().size(); ++o) {
            ASSERT_EQ(gates.peekPort(o), rtl.peek(d.outputs()[o].node))
                << "seed " << GetParam() << " cycle " << cycle
                << " output " << o;
        }
        rtl.step();
        gates.step();
    }

    // The lane evaluator: every lane its own stimulus and RTL reference.
    constexpr unsigned kLanes = gate::kReplayLanes - 1;
    gate::GateProgram program(synth.netlist);
    gate::LaneSimulator<uint16_t> lanes(synth.netlist, program, kLanes);
    std::vector<std::unique_ptr<sim::Simulator>> refs;
    std::vector<stats::Rng> streams;
    for (unsigned k = 0; k < kLanes; ++k) {
        refs.push_back(std::make_unique<sim::Simulator>(d));
        streams.emplace_back(GetParam() * 131 + k);
    }
    uint64_t in[16] = {};
    uint64_t out[16] = {};
    for (int cycle = 0; cycle < 150; ++cycle) {
        for (size_t i = 0; i < d.inputs().size(); ++i) {
            for (unsigned k = 0; k < kLanes; ++k) {
                uint64_t v = streams[k].next();
                refs[k]->poke(d.inputs()[i], v);
                in[k] = truncate(v, d.node(d.inputs()[i]).width);
            }
            lanes.pokePort(i, in);
        }
        for (size_t o = 0; o < d.outputs().size(); ++o) {
            lanes.peekPort(o, out);
            for (unsigned k = 0; k < kLanes; ++k) {
                ASSERT_EQ(out[k], refs[k]->peek(d.outputs()[o].node))
                    << "seed " << GetParam() << " cycle " << cycle
                    << " lane " << k << " output " << o;
            }
        }
        for (auto &r : refs)
            r->step();
        lanes.step();
    }
}

TEST_P(Fuzz, Fame1TransparentWhenEnabled)
{
    Design d = randomDesign(GetParam());
    fame::Fame1Design fd = fame::fame1Transform(d);
    sim::Simulator target(d);
    sim::Simulator famed(fd.design);
    famed.poke(fd.hostEnable, 1);
    stats::Rng rng(GetParam() + 99);
    for (int cycle = 0; cycle < 120; ++cycle) {
        for (size_t i = 0; i < d.inputs().size(); ++i) {
            uint64_t v = rng.next();
            target.poke(d.inputs()[i], v);
            famed.poke(fd.targetInputs[i].node, v);
        }
        for (size_t o = 0; o < d.outputs().size(); ++o) {
            ASSERT_EQ(famed.peek(fd.targetOutputs[o].node),
                      target.peek(d.outputs()[o].node))
                << "seed " << GetParam() << " cycle " << cycle;
        }
        target.step();
        famed.step();
    }
}

TEST_P(Fuzz, SnapshotRoundTripPreservesBehaviour)
{
    Design d = randomDesign(GetParam());
    fame::ScanChains chains(d);
    sim::Simulator a(d);
    stats::Rng rng(GetParam() + 1);
    for (int i = 0; i < 70; ++i) {
        for (rtl::NodeId in : d.inputs())
            a.poke(in, rng.next());
        a.step();
    }
    fame::StateSnapshot snap = chains.capture(a, 70);
    // Bitstream round trip.
    EXPECT_EQ(chains.encode(snap), chains.scanOut(a));

    sim::Simulator c(d);
    chains.restore(c, snap);
    for (int i = 0; i < 60; ++i) {
        uint64_t v = rng.next();
        for (rtl::NodeId in : d.inputs()) {
            a.poke(in, v);
            c.poke(in, v);
        }
        for (size_t o = 0; o < d.outputs().size(); ++o) {
            ASSERT_EQ(c.peek(d.outputs()[o].node),
                      a.peek(d.outputs()[o].node))
                << "seed " << GetParam() << " cycle +" << i;
        }
        a.step();
        c.step();
    }
}

TEST_P(Fuzz, EndToEndGateReplay)
{
    Design d = randomDesign(GetParam());
    fame::Fame1Design fd = fame::fame1Transform(d);
    fame::TokenSimulator ts(fd);
    fame::ScanChains chains(fd.design);
    stats::Rng rng(GetParam() + 5);

    auto drive = [&](int cycles) {
        for (int i = 0; i < cycles; ++i) {
            for (size_t p = 0; p < ts.numInputs(); ++p)
                ts.enqueueInput(p, rng.next());
            ASSERT_TRUE(ts.tryStep());
            for (size_t o = 0; o < ts.numOutputs(); ++o)
                ts.dequeueOutput(o);
        }
    };
    drive(90);
    // Snapshots at several points, replayed alone and in one batch.
    std::vector<fame::ReplayableSnapshot> snaps(5);
    for (fame::ReplayableSnapshot &snap : snaps) {
        ts.captureSnapshot(chains, &snap, 48);
        drive(48);
        ASSERT_TRUE(snap.complete);
    }

    gate::SynthesisResult synth = gate::synthesize(d);
    gate::MatchTable table =
        gate::matchDesigns(d, synth.netlist, synth.guide);
    gate::GateSimulator gsim(synth.netlist);
    std::vector<gate::GateReplayResult> alone;
    std::vector<gate::ReplayLane> lanes;
    for (const fame::ReplayableSnapshot &snap : snaps) {
        util::Result<gate::GateReplayResult> r =
            gate::replayOnGate(gsim, d, table, snap);
        ASSERT_TRUE(r.isOk()) << "seed " << GetParam() << ": "
                              << r.status().toString();
        EXPECT_TRUE(r->ok()) << "seed " << GetParam() << ": "
                             << r->firstMismatch;
        alone.push_back(std::move(*r));
        lanes.push_back(gate::ReplayLane{&snap, {}});
    }

    gate::GateProgram program(synth.netlist);
    size_t handed = 0;
    gate::replayLanesOnGate(
        program, synth.netlist, d, table, lanes,
        [&](size_t k, util::Result<gate::GateReplayResult> &rk) {
            ++handed;
            ASSERT_TRUE(rk.isOk()) << rk.status().toString();
            const gate::GateReplayResult &r = *rk;
            EXPECT_EQ(r.outputMismatches, 0u);
            EXPECT_EQ(r.cyclesReplayed, alone[k].cyclesReplayed);
            EXPECT_EQ(r.activity.cycles, alone[k].activity.cycles);
            EXPECT_EQ(r.activity.netToggles, alone[k].activity.netToggles)
                << "seed " << GetParam() << " lane " << k;
            for (size_t m = 0; m < r.activity.macroAccesses.size(); ++m) {
                EXPECT_EQ(r.activity.macroAccesses[m].reads,
                          alone[k].activity.macroAccesses[m].reads);
                EXPECT_EQ(r.activity.macroAccesses[m].writes,
                          alone[k].activity.macroAccesses[m].writes);
            }
        });
    EXPECT_EQ(handed, snaps.size()) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz,
                         ::testing::Range<uint64_t>(1, 16));

} // namespace
} // namespace strober
