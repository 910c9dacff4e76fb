#include "gate/state_loader.h"

namespace strober {
namespace gate {

LoaderKind
alternateLoader(LoaderKind kind)
{
    return kind == LoaderKind::FastVpi ? LoaderKind::SlowScript
                                       : LoaderKind::FastVpi;
}

double
loaderCommandRate(LoaderKind kind)
{
    switch (kind) {
      case LoaderKind::SlowScript:
        return 400.0;
      case LoaderKind::FastVpi:
        return 20000.0;
    }
    return 0.0;
}

util::Status
checkLoad(const GateNetlist &nl, const rtl::Design &target,
          const MatchTable &table, const fame::StateSnapshot &state)
{
    using util::ErrorCode;

    if (state.regValues.size() != target.regs().size()) {
        return util::errorf(ErrorCode::GeometryMismatch,
                            "snapshot has %zu register values, design "
                            "has %zu",
                            state.regValues.size(), target.regs().size());
    }
    if (state.memContents.size() != target.mems().size()) {
        return util::errorf(ErrorCode::GeometryMismatch,
                            "snapshot has %zu memories, design has %zu",
                            state.memContents.size(), target.mems().size());
    }
    for (size_t mi = 0; mi < target.mems().size(); ++mi) {
        const rtl::MemInfo &m = target.mems()[mi];
        if (state.memContents[mi].size() != m.depth) {
            return util::errorf(ErrorCode::GeometryMismatch,
                                "snapshot memory %zu holds %zu words, "
                                "design needs %llu",
                                mi, state.memContents[mi].size(),
                                (unsigned long long)m.depth);
        }
        if (m.syncRead &&
            (mi >= state.syncReadData.size() ||
             state.syncReadData[mi].size() != m.reads.size())) {
            return util::errorf(ErrorCode::GeometryMismatch,
                                "snapshot memory %zu sync-read data does "
                                "not cover %zu read ports",
                                mi, m.reads.size());
        }
    }

    // The table is the design's, not the snapshot's: no snapshot can
    // break it, but a broken one is still a failed load, not an exit.
    if (table.regRetimed.size() != target.regs().size() ||
        table.regToDff.size() != target.regs().size() ||
        table.memToMacro.size() != target.mems().size()) {
        return util::errorf(ErrorCode::LoadFailure,
                            "match table does not cover the design");
    }
    for (size_t i = 0; i < target.regs().size(); ++i) {
        if (table.regRetimed[i])
            continue;
        unsigned width = target.node(target.regs()[i].node).width;
        const std::vector<NetId> &nets = table.regToDff[i];
        if (nets.size() < width ||
            !std::all_of(nets.begin(), nets.begin() + width, [&](NetId n) {
                return n < nl.numNodes() && nl.node(n).type == CellType::Dff;
            })) {
            return util::errorf(ErrorCode::LoadFailure,
                                "match table does not map register %zu "
                                "onto flip-flops",
                                i);
        }
    }
    for (size_t mi = 0; mi < target.mems().size(); ++mi) {
        const rtl::MemInfo &m = target.mems()[mi];
        int macro = table.memToMacro[mi];
        if (macro < 0 || static_cast<size_t>(macro) >= nl.macros().size()) {
            return util::errorf(ErrorCode::LoadFailure,
                                "match table maps memory %zu to macro %d, "
                                "netlist has %zu macros",
                                mi, macro, nl.macros().size());
        }
        const MacroMem &mm = nl.macros()[macro];
        if (mm.depth != m.depth ||
            (m.syncRead &&
             (!mm.syncRead || mm.reads.size() < m.reads.size()))) {
            return util::errorf(ErrorCode::LoadFailure,
                                "memory %zu does not fit macro '%s'", mi,
                                mm.name.c_str());
        }
    }
    return util::Status();
}

LoadReport
loadAccounting(const rtl::Design &target, const MatchTable &table,
               LoaderKind kind)
{
    LoadReport report;
    for (size_t i = 0; i < target.regs().size(); ++i) {
        unsigned width = target.node(target.regs()[i].node).width;
        if (table.regRetimed[i])
            report.skippedRetimed += width;
        else
            report.commands += width; // one deposit per flip-flop
    }
    for (const rtl::MemInfo &m : target.mems()) {
        report.commands += m.depth; // one word per command
        if (m.syncRead)
            report.commands += m.reads.size();
    }
    report.modeledSeconds =
        static_cast<double>(report.commands) / loaderCommandRate(kind);
    return report;
}

util::Result<LoadReport>
loadState(GateSimulator &gsim, const rtl::Design &target,
          const MatchTable &table, const fame::StateSnapshot &state,
          LoaderKind kind)
{
    // Validate before touching the simulator: a mismatched snapshot
    // must not half-load.
    util::Status st = checkLoad(gsim.netlist(), target, table, state);
    if (!st.isOk())
        return st;
    writeLaneState(gsim.lanes(), 0, target, table, state, /*borrow=*/false);
    return loadAccounting(target, table, kind);
}

} // namespace gate
} // namespace strober
