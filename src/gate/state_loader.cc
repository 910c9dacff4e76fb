#include "gate/state_loader.h"

#include "util/bits.h"
#include "util/logging.h"

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
checkStateShape(const rtl::Design &target, const fame::StateSnapshot &state)
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
    // Validate the snapshot state's shape against the design before
    // touching the simulator: a mismatched snapshot must not half-load.
    util::Status shape = checkStateShape(target, state);
    if (!shape.isOk())
        return shape;

    for (size_t i = 0; i < target.regs().size(); ++i) {
        if (table.regRetimed[i])
            continue;
        unsigned width = target.node(target.regs()[i].node).width;
        uint64_t value = state.regValues[i];
        const auto &nets = table.regToDff[i];
        for (unsigned b = 0; b < width; ++b)
            gsim.setDff(nets[b], bit(value, b));
    }

    for (size_t mi = 0; mi < target.mems().size(); ++mi) {
        const rtl::MemInfo &m = target.mems()[mi];
        size_t macro = static_cast<size_t>(table.memToMacro[mi]);
        for (uint64_t a = 0; a < m.depth; ++a)
            gsim.setMacroWord(macro, a, state.memContents[mi][a]);
        if (m.syncRead) {
            for (size_t p = 0; p < m.reads.size(); ++p)
                gsim.setMacroReadData(macro, p, state.syncReadData[mi][p]);
        }
    }
    return loadAccounting(target, table, kind);
}

} // namespace gate
} // namespace strober
