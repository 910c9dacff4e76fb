/**
 * @file
 * The gate-level evaluator: a GateProgram run over lane words, where bit
 * k of a net's word is that net's value in lane k. Every lane is an
 * independent simulation of the same netlist (one replayed snapshot), so
 * one pass over the op list advances up to 8 * sizeof(Lane) snapshots.
 * GateSimulator is its one-lane face; replay (gate/replay.h) drives it
 * at every width, a single replay being the one-lane case.
 *
 * Activity: a net's toggles in each lane come from bit-sliced (vertical)
 * counters over old ^ new: kPlanes lane words per net, plane p holding
 * bit p of every lane's count. Counters are flushed into per-lane 64-bit
 * totals before any of them can overflow, so counts are exact for any
 * run length. Each macro keeps per-lane contents that start out borrowed
 * (the reset image, or a snapshot's words) and are copied on first
 * write.
 */

#ifndef STROBER_GATE_LANE_SIM_H
#define STROBER_GATE_LANE_SIM_H

#include <cstdint>
#include <vector>

#include "gate/netlist.h"
#include "gate/program.h"

namespace strober {
namespace gate {

/** Per-macro access counters. */
struct MacroStats
{
    uint64_t reads = 0;
    uint64_t writes = 0;
};

template <typename Lane>
class LaneSimulator
{
  public:
    static constexpr unsigned kLanes = 8 * sizeof(Lane);
    /** Counter bits per net and lane before a flush. */
    static constexpr unsigned kPlanes = 8;

    /** Simulates @p lanes (1..kLanes) lanes; @p program must be the
     *  lowering of @p netlist and outlive the simulator. */
    LaneSimulator(const GateNetlist &netlist, const GateProgram &program,
                  unsigned lanes);

    const GateNetlist &netlist() const { return nl; }

    /** DFFs to their init values, macros to their reset image, forces
     *  released, counters cleared. */
    void reset();

    /** Drive input port @p idx: lane k gets @p laneValues[k]. */
    void pokePort(size_t idx, const uint64_t *laneValues);
    /** Read output port @p idx of every lane into @p laneValues
     *  (evaluates if stale). */
    void peekPort(size_t idx, uint64_t *laneValues);

    void evalComb();
    void step(uint64_t n = 1);
    uint64_t cycle() const { return cycleCount; }

    void clearActivity();
    uint64_t activityCycles() const { return cycleCount - activityStart; }
    /** Lane @p lane's per-net toggle counts since clearActivity(). */
    void toggleCounts(unsigned lane, std::vector<uint64_t> &out) const;
    const std::vector<MacroStats> &macroStats(unsigned lane) const
    {
        return macroAcc[lane];
    }
    /** Bumped whenever any toggle count may have changed. */
    uint64_t activityVersion() const { return version; }

    /** Collect lane 0's per-net time-at-1 (SAIF T0/T1). */
    void enableDutyTracking() { dutyTracking = true; }
    const std::vector<uint64_t> &highCycles() const { return highTime; }

    // --- Per-lane state access --------------------------------------------
    bool netValue(NetId net, unsigned lane) const
    {
        return (values[net] >> lane) & 1;
    }
    void setDff(NetId net, unsigned lane, bool value);
    uint64_t macroWord(size_t macroIdx, unsigned lane, uint64_t addr) const;
    /**
     * Replace lane @p lane's contents of macro @p macroIdx with @p words
     * (one per address). With @p borrow the lane reads @p words in place
     * until its first write, so they must outlive that use and already
     * fit the macro's width; otherwise they are copied and truncated.
     */
    void loadMacro(size_t macroIdx, unsigned lane,
                   const std::vector<uint64_t> &words, bool borrow);
    /** Set the registered read data of a sync macro port. */
    void setMacroReadData(size_t macroIdx, size_t port, unsigned lane,
                          uint64_t value);

    /** Take @p settled as every net's value instead of evaluating: the
     *  event-driven TimedGateSimulator settles the combinational nets
     *  itself. Its sources must equal this simulator's. */
    void
    adoptValues(const std::vector<Lane> &settled)
    {
        values = settled;
        combStale = false;
    }

    // --- Forcing (retiming warm-up) ---------------------------------------
    /** Override a net's value in one lane until released. */
    void forceNet(NetId net, unsigned lane, bool value);
    void releaseForces();

  private:
    /** One lane's contents of one macro: borrowed, or its own copy. */
    struct LaneMem
    {
        const uint64_t *words = nullptr;
        std::vector<uint64_t> own;
    };

    const GateNetlist &nl;
    const GateProgram &prog;
    const unsigned nLanes;
    const Lane laneMask; //!< the lanes in use

    std::vector<Lane> values;
    std::vector<Lane> counters; //!< [net * kPlanes + plane]
    /** Per-lane totals of flushed counters (allocated on first flush). */
    std::vector<std::vector<uint64_t>> flushed;
    /** Upper bounds on any counter's value since the last flush, per
     *  phase that counts: comb evaluation, state commit, each port. */
    unsigned combBound = 0;
    unsigned stateBound = 0;
    std::vector<unsigned> portBound;
    uint64_t version = 0;

    std::vector<uint64_t> highTime;
    bool dutyTracking = false;

    std::vector<Lane> forceMask; //!< allocated on first force
    std::vector<Lane> forceValue;
    std::vector<NetId> forcedNets;

    std::vector<LaneMem> mems; //!< [lane * macros + macro]
    std::vector<std::vector<MacroStats>> macroAcc; //!< [lane][macro]
    std::vector<Lane> dffPending;
    std::vector<std::vector<Lane>> syncReadPending; //!< [macro][port*w+b]

    uint64_t cycleCount = 0;
    uint64_t activityStart = 0;
    bool combStale = true;

    template <bool Forced>
    void evalPass();
    template <bool Forced>
    void evalAsyncRead(const AsyncReadPort &port);
    /** Commit @p next to @p net, counting the lanes that changed. */
    void commit(NetId net, Lane next);
    void count(NetId net, Lane toggled);
    /** Make room for one more count in the phase bounded by @p bound. */
    void reserveCount(unsigned &bound);
    /** Move every counter into the per-lane totals. */
    void flush();
    /** Zero every count (counters and totals). */
    void clearCounts();
    /** The lanes in use where enable net @p en (kNoNet = always) is 1. */
    Lane
    enabled(NetId en) const
    {
        return static_cast<Lane>((en == kNoNet ? Lane(~Lane(0)) : values[en]) &
                                 laneMask);
    }
    /** Each lane's value of the bus @p bits into @p out[lane]. */
    void gather(const std::vector<NetId> &bits, uint64_t *out) const;
    const uint64_t *memWords(unsigned lane, size_t macroIdx) const
    {
        return mems[lane * nl.macros().size() + macroIdx].words;
    }
    uint64_t *ownWords(unsigned lane, size_t macroIdx);
};

extern template class LaneSimulator<uint8_t>;
extern template class LaneSimulator<uint16_t>;
extern template class LaneSimulator<uint32_t>;
extern template class LaneSimulator<uint64_t>;

} // namespace gate
} // namespace strober

#endif // STROBER_GATE_LANE_SIM_H
