/**
 * @file
 * Event-driven, delay-annotated gate-level simulation. The paper's
 * gate-level runs use a commercial simulator on the post-layout netlist,
 * "accounting for detailed timing" — which captures glitches (multiple
 * transitions of a net within one cycle) that a zero-delay evaluator
 * like GateSimulator cannot see. This simulator propagates events
 * through per-cell propagation delays inside each cycle, so its toggle
 * counts include glitch activity; it is correspondingly slower, which is
 * also faithful.
 *
 * Functional results (settled values, state updates) are identical to
 * GateSimulator; only the activity differs: toggles(timed) >=
 * toggles(zero-delay), and the difference is the glitch power the
 * ablation bench quantifies.
 *
 * It settles a byte-per-net shadow of the values by running the lowered
 * program's ops (gate/program.h) in event order. A one-lane
 * LaneSimulator over the same program holds all state and takes the
 * clock edge, so sources (inputs, flip-flops, sync read data) and macro
 * accesses count there and combinational nets count here.
 */

#ifndef STROBER_GATE_TIMED_SIM_H
#define STROBER_GATE_TIMED_SIM_H

#include <array>
#include <cstdint>
#include <vector>

#include "gate/lane_sim.h"
#include "gate/netlist.h"
#include "gate/program.h"

namespace strober {
namespace gate {

/** Event-driven two-valued simulator with per-cell delays. */
class TimedGateSimulator
{
  public:
    explicit TimedGateSimulator(const GateNetlist &netlist);
    /** The state simulator refers to this simulator's own program. */
    TimedGateSimulator(const TimedGateSimulator &) = delete;
    TimedGateSimulator &operator=(const TimedGateSimulator &) = delete;

    void reset();
    void pokePort(size_t idx, uint64_t value);
    uint64_t peekPort(size_t idx);
    void step(uint64_t n = 1);
    uint64_t cycle() const { return state.cycle(); }

    /** Per-net transition counts *including glitches*. */
    const std::vector<uint64_t> &toggleCounts() const;
    const std::vector<MacroStats> &macroStats() const
    {
        return state.macroStats(0);
    }
    uint64_t activityCycles() const { return state.activityCycles(); }
    void clearActivity();

    /** Events processed (a measure of the extra timing detail). */
    uint64_t eventsProcessed() const { return eventCount; }

  private:
    /** A combinational net's op, and its data bit if an async read. */
    struct Driver
    {
        uint32_t op = 0;
        uint32_t bit = 0;
    };

    const GateNetlist &nl;
    GateProgram prog;
    LaneSimulator<uint8_t> state;
    std::array<uint32_t, kGateOps> delayPs;
    std::vector<Driver> drivers;       //!< per net
    std::vector<uint32_t> fanoutStart; //!< CSR over nets: the ops
    std::vector<uint32_t> fanoutOps;   //!< reading each net
    std::vector<NetId> edgeNets;       //!< DFFs and sync read data

    std::vector<uint8_t> shadow; //!< settling values, one byte per net
    /** Transitions of combinational nets. The state simulator never
     *  evaluates them, so its counts of them stay 0 and toggleCounts()
     *  is the sum of both. */
    std::vector<uint64_t> toggles;
    mutable std::vector<uint64_t> counts;
    std::vector<NetId> pendingSources; //!< sources changed since settle
    uint64_t eventCount = 0;
    bool settled = false;

    void settle();
    /** Set source @p net's shadow. @return whether it changed. */
    bool setSource(NetId net, uint8_t v);
    /** The word @p port reads at the shadow's address. */
    uint64_t readWord(const AsyncReadPort &port) const;
    uint64_t busValue(const std::vector<NetId> &bits) const;
};

} // namespace gate
} // namespace strober

#endif // STROBER_GATE_TIMED_SIM_H
