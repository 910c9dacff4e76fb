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

#include <cstdint>

#include "fame/scan_chain.h"
#include "gate/gate_sim.h"
#include "gate/matching.h"
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
 * Check that @p state's shape (register count, memory depths, sync-read
 * ports) matches @p target: GeometryMismatch otherwise.
 */
util::Status checkStateShape(const rtl::Design &target,
                             const fame::StateSnapshot &state);

/** The accounting of one load of @p target's state with @p kind (the
 *  same for every snapshot of the design). */
LoadReport loadAccounting(const rtl::Design &target,
                          const MatchTable &table, LoaderKind kind);

/**
 * Load @p state into @p gsim using the match table. Registers dissolved
 * by retiming are skipped (replay warm-up recovers them). Commands are
 * one per flip-flop bit plus one per memory word. Fails with
 * GeometryMismatch when the snapshot state's shape (register count,
 * memory depths, sync-read ports) does not match the target design —
 * the simulator may be partially written at that point, so the caller
 * must treat the attempt as failed and not replay.
 */
util::Result<LoadReport> loadState(GateSimulator &gsim,
                                   const rtl::Design &target,
                                   const MatchTable &table,
                                   const fame::StateSnapshot &state,
                                   LoaderKind kind);

} // namespace gate
} // namespace strober

#endif // STROBER_GATE_STATE_LOADER_H
