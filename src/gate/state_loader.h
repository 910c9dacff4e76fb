/**
 * @file
 * Snapshot state loaders for gate-level simulation (paper Section
 * IV-C2). The paper found that driving the simulator's command
 * interface one register at a time ran at ~400 commands/second (40
 * minutes per design load) and replaced it with a VPI-based bulk loader
 * at ~20000 commands/second (54 seconds). Both are implemented here:
 * they perform identical state transfers but model the respective
 * command costs, so the bench for that engineering point can report the
 * contrast.
 */

#ifndef STROBER_GATE_STATE_LOADER_H
#define STROBER_GATE_STATE_LOADER_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fame/scan_chain.h"
#include "gate/gate_sim.h"
#include "gate/lane_sim.h"
#include "gate/matching.h"
#include "util/bits.h"
#include "util/status.h"

namespace strober {
namespace gate {

/** Loader accounting. */
struct LoadReport
{
    uint64_t commands = 0;
    double modeledSeconds = 0.0;
    uint64_t skippedRetimed = 0; //!< register bits left to warm-up
};

enum class LoaderKind
{
    SlowScript, //!< simulator command scripts: ~400 cmds/s
    FastVpi,    //!< compiled VPI loader: ~20000 cmds/s
};

/** @return the other loader (bounded-retry fallback in the estimator). */
LoaderKind alternateLoader(LoaderKind kind);

/** @return the modeled command rate for @p kind (commands per second). */
double loaderCommandRate(LoaderKind kind);

/**
 * Check that @p state can be loaded into @p nl through @p table before
 * anything is written. GeometryMismatch when the state's shape
 * (register count, memory depths, sync-read ports) does not match
 * @p target; LoadFailure when the table does not fit the netlist (one
 * flip-flop per bit of every register retiming left in place, and a
 * macro of the same depth, sync-read with enough ports where the memory
 * is, for every memory).
 */
util::Status checkLoad(const GateNetlist &nl, const rtl::Design &target,
                       const MatchTable &table,
                       const fame::StateSnapshot &state);

/** The accounting of one load of @p target's state with @p kind (the
 *  same for every snapshot of the design). */
LoadReport loadAccounting(const rtl::Design &target,
                          const MatchTable &table, LoaderKind kind);

/**
 * Write @p state, which passed checkLoad(), into lane @p lane of @p sim
 * through the match table. Registers dissolved by retiming are skipped
 * (replay warm-up recovers them). With @p borrow, memory words that fit
 * their macro's width are read in place until the lane first writes
 * them, so @p state must outlive that use; otherwise they are copied.
 */
template <typename Lane>
void
writeLaneState(LaneSimulator<Lane> &sim, unsigned lane,
               const rtl::Design &target, const MatchTable &table,
               const fame::StateSnapshot &state, bool borrow)
{
    for (size_t i = 0; i < target.regs().size(); ++i) {
        if (table.regRetimed[i])
            continue;
        unsigned width = target.node(target.regs()[i].node).width;
        for (unsigned b = 0; b < width; ++b)
            sim.setDff(table.regToDff[i][b], lane, bit(state.regValues[i], b));
    }
    for (size_t mi = 0; mi < target.mems().size(); ++mi) {
        const rtl::MemInfo &m = target.mems()[mi];
        size_t macro = static_cast<size_t>(table.memToMacro[mi]);
        const std::vector<uint64_t> &words = state.memContents[mi];
        uint64_t high = ~bitMask(sim.netlist().macros()[macro].width);
        sim.loadMacro(macro, lane, words,
                      borrow && std::none_of(words.begin(), words.end(),
                                             [&](uint64_t w) {
                                                 return (w & high) != 0;
                                             }));
        if (m.syncRead) {
            for (size_t p = 0; p < m.reads.size(); ++p)
                sim.setMacroReadData(macro, p, lane, state.syncReadData[mi][p]);
        }
    }
}

/**
 * Load @p state into @p gsim using the match table: checkLoad(), then a
 * copying writeLaneState(). Commands are one per flip-flop bit plus one
 * per memory word.
 */
util::Result<LoadReport> loadState(GateSimulator &gsim,
                                   const rtl::Design &target,
                                   const MatchTable &table,
                                   const fame::StateSnapshot &state,
                                   LoaderKind kind);

} // namespace gate
} // namespace strober

#endif // STROBER_GATE_STATE_LOADER_H
