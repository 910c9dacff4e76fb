#include "gate/replay.h"

#include <algorithm>
#include <map>
#include <optional>

#include "gate/lane_sim.h"
#include "util/bits.h"
#include "util/logging.h"

namespace strober {
namespace gate {

namespace {

unsigned
maxRetimeLatency(const GateNetlist &nl)
{
    unsigned maxLat = 0;
    for (const RetimeNetInfo &r : nl.retime())
        maxLat = std::max(maxLat, r.latency);
    return maxLat;
}

/**
 * The history row a region of latency @p lat forces in warm-up cycle
 * @p t of @p maxLat: the last `lat` cycles carry its history, earlier
 * cycles hold its oldest value. @p rows > 0.
 */
size_t
warmupRow(size_t rows, unsigned lat, unsigned t, unsigned maxLat)
{
    if (t + lat < maxLat)
        return 0;
    return std::min(rows - 1, static_cast<size_t>(t + lat - maxLat));
}

} // namespace

util::Status
checkLane(const GateNetlist &nl, const rtl::Design &target,
          const MatchTable &table, const fame::ReplayableSnapshot &snap,
          const ReplayOptions &options)
{
    using util::ErrorCode;

    if (!snap.complete) {
        return util::errorf(ErrorCode::InvalidArgument,
                            "replaying an incomplete snapshot");
    }
    const size_t cycles = snap.inputTrace.size();
    if (snap.outputTrace.size() != cycles) {
        return util::errorf(ErrorCode::GeometryMismatch,
                            "snapshot trace has %zu input cycles but %zu "
                            "output cycles",
                            cycles, snap.outputTrace.size());
    }
    if (cycles == 0) {
        // Nothing to verify and no activity window to analyze.
        return util::errorf(ErrorCode::InvalidArgument,
                            "snapshot trace has no cycles");
    }

    // Watchdog bookkeeping: every simulator step (and every injected
    // stall cycle) consumes budget; exceeding it means the replay hung.
    uint64_t consumed = options.injectedStallCycles;
    auto overBudget = [&]() {
        return options.cycleBudget != 0 && consumed > options.cycleBudget;
    };
    if (overBudget()) {
        return util::errorf(ErrorCode::Timeout,
                            "replay stalled: %llu cycles consumed before "
                            "any progress (budget %llu)",
                            (unsigned long long)consumed,
                            (unsigned long long)options.cycleBudget);
    }

    // Retiming warm-up: one step per cycle of the deepest region.
    const unsigned maxLat = maxRetimeLatency(nl);
    if (maxLat > 0 && snap.retimeHistory.size() != nl.retime().size()) {
        return util::errorf(ErrorCode::GeometryMismatch,
                            "snapshot carries %zu retime histories, "
                            "netlist has %zu regions",
                            snap.retimeHistory.size(), nl.retime().size());
    }
    for (unsigned t = 0; t < maxLat; ++t) {
        for (size_t ri = 0; ri < nl.retime().size(); ++ri) {
            const RetimeNetInfo &region = nl.retime()[ri];
            const auto &history = snap.retimeHistory[ri];
            if (history.empty())
                continue;
            const std::vector<uint64_t> &values = history[warmupRow(
                history.size(), region.latency, t, maxLat)];
            if (values.size() != region.inputNets.size()) {
                return util::errorf(
                    ErrorCode::GeometryMismatch,
                    "retime region %zu history row has %zu values, "
                    "region has %zu inputs",
                    ri, values.size(), region.inputNets.size());
            }
        }
        ++consumed;
        if (overBudget()) {
            return util::errorf(
                ErrorCode::Timeout,
                "replay exceeded its cycle budget during retiming "
                "warm-up (%llu consumed, budget %llu)",
                (unsigned long long)consumed,
                (unsigned long long)options.cycleBudget);
        }
    }

    util::Status load = checkLoad(nl, target, table, snap.state);
    if (!load.isOk())
        return util::Status(load.code(),
                            "state load failed: " + load.message());

    // The I/O trace: one step per cycle.
    for (size_t t = 0; t < cycles; ++t) {
        if (snap.inputTrace[t].size() != nl.inputs().size()) {
            return util::errorf(ErrorCode::GeometryMismatch,
                                "snapshot trace has %zu inputs, netlist "
                                "has %zu",
                                snap.inputTrace[t].size(),
                                nl.inputs().size());
        }
        if (snap.outputTrace[t].size() != nl.outputs().size()) {
            return util::errorf(ErrorCode::GeometryMismatch,
                                "snapshot trace has %zu outputs, netlist "
                                "has %zu",
                                snap.outputTrace[t].size(),
                                nl.outputs().size());
        }
        ++consumed;
        if (overBudget()) {
            return util::errorf(ErrorCode::Timeout,
                                "replay exceeded its cycle budget after "
                                "%zu of %zu trace cycles (budget %llu)",
                                t + 1, cycles,
                                (unsigned long long)options.cycleBudget);
        }
    }
    return util::Status();
}

namespace {

/**
 * One lockstep pass of @p sim, freshly reset, over the lanes @p which
 * of @p lanes (lane k of @p sim replays lanes[which[k]]; all pass
 * checkLane() and share one trace length). @p borrow lets lanes read
 * the snapshots' memory words in place.
 */
template <typename Lane>
void
replayPass(LaneSimulator<Lane> &sim, const rtl::Design &target,
           const MatchTable &table, const std::vector<ReplayLane> &lanes,
           const std::vector<size_t> &which, bool borrow,
           const LaneResultFn &onLane)
{
    const GateNetlist &nl = sim.netlist();
    const unsigned n = static_cast<unsigned>(which.size());
    const unsigned maxLat = maxRetimeLatency(nl);
    auto snap = [&](unsigned k) -> const fame::ReplayableSnapshot & {
        return *lanes[which[k]].snap;
    };

    // --- Retiming warm-up (Section IV-C3): force every region's inputs
    // with each lane's captured history so the moved registers reach the
    // values they must hold at the capture cycle.
    for (unsigned t = 0; t < maxLat; ++t) {
        for (size_t ri = 0; ri < nl.retime().size(); ++ri) {
            const RetimeNetInfo &region = nl.retime()[ri];
            for (unsigned k = 0; k < n; ++k) {
                const auto &history = snap(k).retimeHistory[ri];
                if (history.empty())
                    continue;
                const std::vector<uint64_t> &values = history[warmupRow(
                    history.size(), region.latency, t, maxLat)];
                for (size_t in = 0; in < region.inputNets.size(); ++in) {
                    const std::vector<NetId> &nets = region.inputNets[in];
                    for (size_t b = 0; b < nets.size(); ++b)
                        sim.forceNet(nets[b], k, bit(values[in], b));
                }
            }
        }
        sim.step();
    }
    sim.releaseForces();

    // --- Per-lane state load.
    for (unsigned k = 0; k < n; ++k)
        writeLaneState(sim, k, target, table, snap(k).state, borrow);

    // --- Drive the I/O trace and check every lane's outputs.
    sim.clearActivity();
    std::vector<uint64_t> mismatches(n, 0);
    std::vector<std::string> firstMismatch(n);
    uint64_t io[LaneSimulator<Lane>::kLanes];
    const size_t cycles = snap(0).inputTrace.size();
    for (size_t t = 0; t < cycles; ++t) {
        for (size_t i = 0; i < nl.inputs().size(); ++i) {
            for (unsigned k = 0; k < n; ++k)
                io[k] = snap(k).inputTrace[t][i];
            sim.pokePort(i, io);
        }
        for (size_t o = 0; o < nl.outputs().size(); ++o) {
            sim.peekPort(o, io);
            for (unsigned k = 0; k < n; ++k) {
                uint64_t expected = snap(k).outputTrace[t][o];
                if (io[k] != expected && mismatches[k]++ == 0) {
                    firstMismatch[k] = strfmt(
                        "cycle +%zu output '%s': got 0x%llx expected 0x%llx",
                        t, nl.outputs()[o].name.c_str(),
                        (unsigned long long)io[k],
                        (unsigned long long)expected);
                }
            }
        }
        sim.step();
    }

    // --- Hand out one lane's result at a time.
    util::Result<GateReplayResult> result{GateReplayResult()};
    for (unsigned k = 0; k < n; ++k) {
        GateReplayResult &r = *result;
        r.cyclesReplayed = cycles;
        r.outputMismatches = mismatches[k];
        r.firstMismatch = std::move(firstMismatch[k]);
        r.load = loadAccounting(target, table, lanes[which[k]].options.loader);
        sim.toggleCounts(k, r.activity.netToggles);
        r.activity.macroAccesses = sim.macroStats(k);
        r.activity.cycles = sim.activityCycles();
        onLane(which[k], result);
    }
}

/** replayPass() on a fresh evaluator whose lane word is @p Lane. */
template <typename Lane>
void
replayFresh(const GateProgram &program, const GateNetlist &nl,
            const rtl::Design &target, const MatchTable &table,
            const std::vector<ReplayLane> &lanes,
            const std::vector<size_t> &which, const LaneResultFn &onLane)
{
    LaneSimulator<Lane> sim(nl, program, static_cast<unsigned>(which.size()));
    replayPass(sim, target, table, lanes, which, /*borrow=*/true, onLane);
}

} // namespace

util::Result<GateReplayResult>
replayOnGate(GateSimulator &gsim, const rtl::Design &target,
             const MatchTable &table, const fame::ReplayableSnapshot &snap,
             const ReplayOptions &options)
{
    util::Status check =
        checkLane(gsim.netlist(), target, table, snap, options);
    if (!check.isOk())
        return check;
    LaneSimulator<uint8_t> &sim = gsim.lanes();
    sim.reset();
    std::optional<GateReplayResult> out;
    // Copy the memories: the caller's simulator outlives this call, the
    // snapshot need not.
    replayPass(sim, target, table, {ReplayLane{&snap, options}}, {0},
               /*borrow=*/false,
               [&](size_t, util::Result<GateReplayResult> &r) {
                   out = std::move(*r);
               });
    return std::move(*out);
}

void
replayLanesOnGate(const GateProgram &program, const GateNetlist &nl,
                  const rtl::Design &target, const MatchTable &table,
                  const std::vector<ReplayLane> &lanes,
                  const LaneResultFn &onLane, unsigned maxLanes)
{
    maxLanes = std::clamp(maxLanes, 1u, 64u);

    // Lockstep needs one trace length per pass.
    std::map<size_t, std::vector<size_t>> byLength;
    for (size_t i = 0; i < lanes.size(); ++i) {
        util::Status check = checkLane(nl, target, table, *lanes[i].snap,
                                       lanes[i].options);
        if (check.isOk()) {
            byLength[lanes[i].snap->inputTrace.size()].push_back(i);
        } else {
            util::Result<GateReplayResult> failed(std::move(check));
            onLane(i, failed);
        }
    }
    for (const auto &[length, group] : byLength) {
        for (size_t first = 0; first < group.size(); first += maxLanes) {
            std::vector<size_t> which(
                group.begin() + first,
                group.begin() + std::min(group.size(), first + maxLanes));
            // The narrowest lane word that holds the pass.
            if (which.size() <= 8)
                replayFresh<uint8_t>(program, nl, target, table, lanes,
                                     which, onLane);
            else if (which.size() <= 16)
                replayFresh<uint16_t>(program, nl, target, table, lanes,
                                      which, onLane);
            else if (which.size() <= 32)
                replayFresh<uint32_t>(program, nl, target, table, lanes,
                                      which, onLane);
            else
                replayFresh<uint64_t>(program, nl, target, table, lanes,
                                      which, onLane);
        }
    }
}

} // namespace gate
} // namespace strober
