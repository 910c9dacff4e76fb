#include "gate/replay.h"

#include <algorithm>
#include <map>

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

util::Result<GateReplayResult>
replayOnGate(GateSimulator &gsim, const rtl::Design &target,
             const MatchTable &table, const fame::ReplayableSnapshot &snap,
             const ReplayOptions &options)
{
    using util::ErrorCode;

    if (!snap.complete) {
        return util::errorf(ErrorCode::InvalidArgument,
                            "replaying an incomplete snapshot");
    }
    const GateNetlist &nl = gsim.netlist();
    if (snap.outputTrace.size() != snap.inputTrace.size()) {
        return util::errorf(ErrorCode::GeometryMismatch,
                            "snapshot trace has %zu input cycles but %zu "
                            "output cycles",
                            snap.inputTrace.size(), snap.outputTrace.size());
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

    GateReplayResult result;
    gsim.reset();

    // --- Retiming warm-up (Section IV-C3) --------------------------------
    // Force every region's inputs with its captured history so the moved
    // registers reach the values they must hold at the capture cycle.
    unsigned maxLat = maxRetimeLatency(nl);
    if (maxLat > 0) {
        if (snap.retimeHistory.size() != nl.retime().size()) {
            return util::errorf(ErrorCode::GeometryMismatch,
                                "snapshot carries %zu retime histories, "
                                "netlist has %zu regions",
                                snap.retimeHistory.size(),
                                nl.retime().size());
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
                for (size_t in = 0; in < region.inputNets.size(); ++in) {
                    const std::vector<NetId> &nets = region.inputNets[in];
                    uint64_t v = values[in];
                    for (size_t b = 0; b < nets.size(); ++b)
                        gsim.forceNet(nets[b], bit(v, b));
                }
            }
            gsim.step();
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
        gsim.releaseForces();
    }

    // --- State loading ----------------------------------------------------
    util::Result<LoadReport> load =
        loadState(gsim, target, table, snap.state, options.loader);
    if (!load.isOk()) {
        const util::Status &st = load.status();
        return util::Status(st.code() == ErrorCode::GeometryMismatch
                                ? ErrorCode::GeometryMismatch
                                : ErrorCode::LoadFailure,
                            "state load failed: " + st.message());
    }
    result.load = *load;

    // --- Drive the I/O trace and verify outputs --------------------------
    gsim.clearActivity();
    for (size_t t = 0; t < snap.inputTrace.size(); ++t) {
        const auto &inputs = snap.inputTrace[t];
        if (inputs.size() != nl.inputs().size()) {
            return util::errorf(ErrorCode::GeometryMismatch,
                                "snapshot trace has %zu inputs, netlist "
                                "has %zu",
                                inputs.size(), nl.inputs().size());
        }
        for (size_t i = 0; i < inputs.size(); ++i)
            gsim.pokePort(i, inputs[i]);

        const auto &expected = snap.outputTrace[t];
        if (expected.size() != nl.outputs().size()) {
            return util::errorf(ErrorCode::GeometryMismatch,
                                "snapshot trace has %zu outputs, netlist "
                                "has %zu",
                                expected.size(), nl.outputs().size());
        }
        for (size_t o = 0; o < nl.outputs().size(); ++o) {
            uint64_t got = gsim.peekPort(o);
            if (got != expected[o]) {
                ++result.outputMismatches;
                if (result.firstMismatch.empty()) {
                    result.firstMismatch = strfmt(
                        "cycle +%zu output '%s': got 0x%llx expected 0x%llx",
                        t, nl.outputs()[o].name.c_str(),
                        (unsigned long long)got,
                        (unsigned long long)expected[o]);
                }
            }
        }
        gsim.step();
        ++result.cyclesReplayed;
        ++consumed;
        if (overBudget()) {
            return util::errorf(ErrorCode::Timeout,
                                "replay exceeded its cycle budget after "
                                "%llu of %zu trace cycles (budget %llu)",
                                (unsigned long long)result.cyclesReplayed,
                                snap.inputTrace.size(),
                                (unsigned long long)options.cycleBudget);
        }
    }

    result.activity.netToggles = gsim.toggleCounts();
    result.activity.macroAccesses = gsim.macroStats();
    result.activity.cycles = gsim.activityCycles();
    return result;
}

namespace {

/** Whether @p lane passes every check replayOnGate (and the loader)
 *  would make, and fits its cycle budget. */
bool
replaysCleanly(const GateNetlist &nl, const rtl::Design &target,
               const MatchTable &table, const ReplayLane &lane,
               unsigned maxLat)
{
    const fame::ReplayableSnapshot &snap = *lane.snap;
    if (!snap.complete || snap.outputTrace.size() != snap.inputTrace.size())
        return false;
    const ReplayOptions &opt = lane.options;
    if (opt.cycleBudget != 0 &&
        opt.injectedStallCycles + maxLat + snap.inputTrace.size() >
            opt.cycleBudget)
        return false;
    if (maxLat > 0) {
        if (snap.retimeHistory.size() != nl.retime().size())
            return false;
        for (size_t ri = 0; ri < nl.retime().size(); ++ri) {
            for (const std::vector<uint64_t> &row : snap.retimeHistory[ri]) {
                if (row.size() != nl.retime()[ri].inputNets.size())
                    return false;
            }
        }
    }
    if (!checkStateShape(target, snap.state).isOk())
        return false;
    for (size_t mi = 0; mi < target.mems().size(); ++mi) {
        const rtl::MemInfo &m = target.mems()[mi];
        int macro = table.memToMacro[mi];
        if (macro < 0 || static_cast<size_t>(macro) >= nl.macros().size())
            return false;
        const MacroMem &mm = nl.macros()[macro];
        if (mm.depth != m.depth ||
            (m.syncRead && (!mm.syncRead || mm.reads.size() < m.reads.size())))
            return false;
    }
    for (size_t t = 0; t < snap.inputTrace.size(); ++t) {
        if (snap.inputTrace[t].size() != nl.inputs().size() ||
            snap.outputTrace[t].size() != nl.outputs().size())
            return false;
    }
    return true;
}

/** Whether every word of @p words fits @p width bits. */
bool
fitsWidth(const std::vector<uint64_t> &words, unsigned width)
{
    uint64_t high = ~bitMask(width);
    for (uint64_t w : words) {
        if (w & high)
            return false;
    }
    return true;
}

/** One lockstep pass over the lanes @p which (all of trace length L). */
template <typename Lane>
void
replayPass(const GateProgram &program, const GateNetlist &nl,
           const rtl::Design &target, const MatchTable &table,
           const std::vector<ReplayLane> &lanes,
           const std::vector<size_t> &which, unsigned maxLat,
           std::vector<bool> &clean, const LaneResultFn &onLane)
{
    const unsigned n = static_cast<unsigned>(which.size());
    LaneSimulator<Lane> sim(nl, program, n);
    auto snap = [&](unsigned k) -> const fame::ReplayableSnapshot & {
        return *lanes[which[k]].snap;
    };

    // --- Retiming warm-up: every lane's history through its force mask.
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

    // --- Per-lane state load (snapshot words are borrowed, not copied).
    for (unsigned k = 0; k < n; ++k) {
        const fame::StateSnapshot &state = snap(k).state;
        for (size_t i = 0; i < target.regs().size(); ++i) {
            if (table.regRetimed[i])
                continue;
            unsigned width = target.node(target.regs()[i].node).width;
            for (unsigned b = 0; b < width; ++b) {
                sim.setDff(table.regToDff[i][b], k,
                           bit(state.regValues[i], b));
            }
        }
        for (size_t mi = 0; mi < target.mems().size(); ++mi) {
            const rtl::MemInfo &m = target.mems()[mi];
            size_t macro = static_cast<size_t>(table.memToMacro[mi]);
            const std::vector<uint64_t> &words = state.memContents[mi];
            sim.loadMacro(macro, k, words,
                          fitsWidth(words, nl.macros()[macro].width));
            if (m.syncRead) {
                for (size_t p = 0; p < m.reads.size(); ++p) {
                    sim.setMacroReadData(macro, p, k,
                                         state.syncReadData[mi][p]);
                }
            }
        }
    }

    // --- Drive the I/O trace and check every lane's outputs.
    sim.clearActivity();
    std::vector<bool> diverged(n, false);
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
                if (io[k] != snap(k).outputTrace[t][o])
                    diverged[k] = true;
            }
        }
        sim.step();
    }

    // --- Hand out one clean lane's activity at a time.
    GateReplayResult result;
    result.cyclesReplayed = cycles;
    for (unsigned k = 0; k < n; ++k) {
        if (diverged[k])
            continue;
        result.load = loadAccounting(target, table,
                                     lanes[which[k]].options.loader);
        sim.toggleCounts(k, result.activity.netToggles);
        result.activity.macroAccesses = sim.macroStats(k);
        result.activity.cycles = sim.activityCycles();
        clean[which[k]] = true;
        onLane(which[k], result);
    }
}

} // namespace

std::vector<bool>
replayLanesOnGate(const GateProgram &program, const GateNetlist &nl,
                  const rtl::Design &target, const MatchTable &table,
                  const std::vector<ReplayLane> &lanes,
                  const LaneResultFn &onLane, unsigned maxLanes)
{
    std::vector<bool> clean(lanes.size(), false);
    const unsigned maxLat = maxRetimeLatency(nl);
    maxLanes = std::clamp(maxLanes, 1u, 64u);

    // Lockstep needs one trace length per pass.
    std::map<size_t, std::vector<size_t>> byLength;
    for (size_t i = 0; i < lanes.size(); ++i) {
        if (replaysCleanly(nl, target, table, lanes[i], maxLat))
            byLength[lanes[i].snap->inputTrace.size()].push_back(i);
    }
    for (const auto &[length, group] : byLength) {
        for (size_t first = 0; first < group.size(); first += maxLanes) {
            std::vector<size_t> which(
                group.begin() + first,
                group.begin() + std::min(group.size(), first + maxLanes));
            // The narrowest lane word that holds the pass.
            if (which.size() <= 8)
                replayPass<uint8_t>(program, nl, target, table, lanes, which,
                                    maxLat, clean, onLane);
            else if (which.size() <= 16)
                replayPass<uint16_t>(program, nl, target, table, lanes,
                                     which, maxLat, clean, onLane);
            else if (which.size() <= 32)
                replayPass<uint32_t>(program, nl, target, table, lanes,
                                     which, maxLat, clean, onLane);
            else
                replayPass<uint64_t>(program, nl, target, table, lanes,
                                     which, maxLat, clean, onLane);
        }
    }
    return clean;
}

} // namespace gate
} // namespace strober
