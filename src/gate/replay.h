/**
 * @file
 * Gate-level snapshot replay (paper Sections III-B, IV-C): warm the
 * retimed regions by forcing their inputs from the captured history,
 * load the RTL state through the matching table, drive the recorded
 * input tokens for L cycles while verifying every output token, and
 * collect the switching activity the power analysis consumes.
 *
 * One body does this for any number of snapshots: lanes of one
 * LaneSimulator, a single replay being the one-lane case. Replay
 * failures (geometry mismatches, load failures, watchdog timeouts) are
 * decided up front by one check and returned as util::Status values so
 * a farm can quarantine the one bad snapshot and keep going; output
 * divergence is reported as data in GateReplayResult and classified by
 * the caller.
 */

#ifndef STROBER_GATE_REPLAY_H
#define STROBER_GATE_REPLAY_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fame/token_sim.h"
#include "gate/gate_sim.h"
#include "gate/matching.h"
#include "gate/program.h"
#include "gate/state_loader.h"
#include "util/status.h"

namespace strober {
namespace gate {

/** Activity extracted from one replay (the "SAIF" of this flow). */
struct ActivityReport
{
    std::vector<uint64_t> netToggles;
    std::vector<MacroStats> macroAccesses;
    uint64_t cycles = 0;
};

/** Result of replaying one snapshot at gate level. */
struct GateReplayResult
{
    uint64_t cyclesReplayed = 0;
    uint64_t outputMismatches = 0;
    std::string firstMismatch;
    LoadReport load;
    ActivityReport activity;

    bool ok() const { return outputMismatches == 0; }
};

/** Knobs for one replay attempt. */
struct ReplayOptions
{
    LoaderKind loader = LoaderKind::FastVpi;
    /**
     * Watchdog: total simulator steps (retiming warm-up + trace cycles
     * + injected stalls) this replay may consume before it is declared
     * hung and fails with ErrorCode::Timeout. 0 disables the watchdog.
     */
    uint64_t cycleBudget = 0;
    /**
     * Fault injection: phantom cycles a hung gate-level simulator burns
     * before making progress. Counted against the watchdog budget;
     * tests use this to prove the timeout path quarantines cleanly.
     */
    uint64_t injectedStallCycles = 0;
};

/** One snapshot of a batched replay. */
struct ReplayLane
{
    const fame::ReplayableSnapshot *snap = nullptr;
    ReplayOptions options;
};

/**
 * The one definition of a failed replay: OK when @p snap replays on
 * @p nl through its whole trace under @p options, else the error its
 * replay returns. Every step's budget is known up front, so this
 * simulates nothing (see DESIGN.md, "Batched gate replay", for the
 * order of precedence).
 */
util::Status checkLane(const GateNetlist &nl, const rtl::Design &target,
                       const MatchTable &table,
                       const fame::ReplayableSnapshot &snap,
                       const ReplayOptions &options);

/**
 * Replay @p snap on @p gsim: checkLane(), then the lane pass of
 * replayLanesOnGate() on the simulator's one lane, after a reset.
 * Snapshots are independent, so callers may reuse one simulator across
 * replays. On error the simulator is untouched; after a replay it holds
 * its own copy of the snapshot's memories.
 */
util::Result<GateReplayResult> replayOnGate(
    GateSimulator &gsim, const rtl::Design &target, const MatchTable &table,
    const fame::ReplayableSnapshot &snap, const ReplayOptions &options = {});

/**
 * Snapshots one batched pass replays in lockstep at most: the lane width
 * measured fastest that keeps a replay worker's footprint small (see
 * DESIGN.md, "Batched gate replay").
 */
constexpr unsigned kReplayLanes = 16;

/** Called once per lane with the result replayOnGate would return for
 *  it alone. The result is only valid during the call; the callee may
 *  move from it. */
using LaneResultFn =
    std::function<void(size_t lane, util::Result<GateReplayResult> &result)>;

/**
 * Replay @p lanes on @p netlist (lowered as @p program). A lane that
 * fails checkLane() is handed its error first. The rest replay in
 * lockstep passes of up to @p maxLanes snapshots of one trace length:
 * warm-up through per-lane force masks, per-lane state load, then the
 * I/O trace with every lane's output mismatches counted. Every lane
 * reaches @p onLane exactly once, a pass's lanes in lane order.
 */
void replayLanesOnGate(const GateProgram &program, const GateNetlist &netlist,
                       const rtl::Design &target, const MatchTable &table,
                       const std::vector<ReplayLane> &lanes,
                       const LaneResultFn &onLane,
                       unsigned maxLanes = kReplayLanes);

} // namespace gate
} // namespace strober

#endif // STROBER_GATE_REPLAY_H
