/**
 * @file
 * Gate-level simulator with switching-activity collection — the
 * repository's substitute for VCS driving a post-layout netlist (paper
 * Figure 5). Deliberately detailed (every net of every bit-blasted gate
 * is evaluated and toggle-counted each cycle), which is what makes it
 * orders of magnitude slower than the word-level fast simulator and
 * reproduces the speed gap the sampling methodology exploits.
 *
 * Activity semantics: zero-delay, one evaluation per cycle; a net's
 * toggle count increments whenever its settled value differs from the
 * previous cycle's settled value. SRAM macros count read and write
 * accesses instead (their energy is per-access, as in real flows).
 *
 * This is the one-lane face of the lane evaluator (gate/lane_sim.h):
 * the netlist is lowered once per simulator and run over byte-wide lane
 * words of which lane 0 is used.
 */

#ifndef STROBER_GATE_GATE_SIM_H
#define STROBER_GATE_GATE_SIM_H

#include <cstdint>
#include <vector>

#include "gate/lane_sim.h"
#include "gate/netlist.h"
#include "gate/program.h"

namespace strober {
namespace gate {

/** Cycle-based two-valued gate-level simulator. */
class GateSimulator
{
  public:
    explicit GateSimulator(const GateNetlist &netlist);
    /** The evaluator refers to this simulator's own program. */
    GateSimulator(const GateSimulator &) = delete;
    GateSimulator &operator=(const GateSimulator &) = delete;

    const GateNetlist &netlist() const { return sim.netlist(); }

    /** DFFs to their init values, macros to zero, counters cleared. */
    void reset() { sim.reset(); }

    /** Drive input port @p idx with @p value (bit-sliced onto PI nets). */
    void pokePort(size_t idx, uint64_t value) { sim.pokePort(idx, &value); }
    /** Read output port @p idx (evaluates if stale). */
    uint64_t
    peekPort(size_t idx)
    {
        uint64_t v = 0;
        sim.peekPort(idx, &v);
        return v;
    }

    void evalComb() { sim.evalComb(); }
    void step(uint64_t n = 1) { sim.step(n); }
    uint64_t cycle() const { return sim.cycle(); }

    /** Per-net toggle counts since the last clearActivity(). */
    const std::vector<uint64_t> &toggleCounts() const;
    const std::vector<MacroStats> &macroStats() const
    {
        return sim.macroStats(0);
    }
    /** Cycles elapsed since the last clearActivity(). */
    uint64_t activityCycles() const { return sim.activityCycles(); }
    void clearActivity() { sim.clearActivity(); }

    /** Collect per-net time-at-1 (SAIF T0/T1); costs ~one pass/cycle. */
    void enableDutyTracking() { sim.enableDutyTracking(); }
    /** Cycles each net spent at 1 since clearActivity (empty unless
     *  duty tracking is enabled). */
    const std::vector<uint64_t> &highCycles() const
    {
        return sim.highCycles();
    }

    // --- State access (verification) -------------------------------------
    bool dffValue(NetId net) const { return sim.netValue(net, 0); }
    uint64_t
    macroWord(size_t macroIdx, uint64_t addr) const
    {
        return sim.macroWord(macroIdx, 0, addr);
    }

    /** The evaluator behind this face: replay and the state loader
     *  drive it as one lane. */
    LaneSimulator<uint8_t> &lanes() { return sim; }

  private:
    GateProgram program;
    LaneSimulator<uint8_t> sim;
    mutable std::vector<uint64_t> toggles;
    mutable uint64_t togglesVersion = ~0ull; //!< sim version of toggles
};

} // namespace gate
} // namespace strober

#endif // STROBER_GATE_GATE_SIM_H
