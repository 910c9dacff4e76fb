#include "power/power_analysis.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace strober {
namespace power {

using gate::CellType;
using gate::GateNode;
using gate::kNoNet;
using gate::NetId;

double
PowerReport::totalWatts() const
{
    double total = 0;
    for (const GroupPower &g : groups)
        total += g.total();
    return total;
}

double
PowerReport::prefixWatts(const std::string &prefix) const
{
    double total = 0;
    for (const GroupPower &g : groups) {
        if (g.group.rfind(prefix, 0) == 0)
            total += g.total();
    }
    return total;
}

std::string
PowerReport::table() const
{
    std::ostringstream os;
    os << strfmt("%-32s %10s %10s %10s %10s %10s %10s\n", "group",
                 "switch(mW)", "intern(mW)", "leak(mW)", "sram(mW)",
                 "clock(mW)", "total(mW)");
    std::vector<const GroupPower *> sorted;
    for (const GroupPower &g : groups)
        sorted.push_back(&g);
    std::sort(sorted.begin(), sorted.end(),
              [](const GroupPower *a, const GroupPower *b) {
                  return a->total() > b->total();
              });
    for (const GroupPower *g : sorted) {
        if (g->total() <= 0)
            continue;
        os << strfmt("%-32s %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f\n",
                     g->group.c_str(), g->switching * 1e3,
                     g->internal * 1e3, g->leakage * 1e3,
                     g->macroDynamic * 1e3, g->clock * 1e3,
                     g->total() * 1e3);
    }
    os << strfmt("%-32s %65.3f\n", "TOTAL", totalWatts() * 1e3);
    return os.str();
}

PowerModel::PowerModel(const gate::GateNetlist &nl,
                       const gate::Placement &placement)
    : netCapFf(nl.numNodes(), 0.0)
{
    // Fanout pin capacitance per net.
    for (NetId id = 0; id < nl.numNodes(); ++id) {
        const GateNode &n = nl.node(id);
        if (n.dead)
            continue;
        double inCap = gate::cellSpec(n.type).inputCapFf;
        for (NetId in : n.in) {
            if (in != kNoNet)
                netCapFf[in] += inCap;
        }
    }
    // Macro pins load their address/data/enable nets too.
    for (const gate::MacroMem &m : nl.macros()) {
        auto loadPins = [&](const std::vector<NetId> &nets) {
            for (NetId id : nets)
                netCapFf[id] += 1.5; // SRAM pin cap (fF)
        };
        for (const auto &r : m.reads) {
            loadPins(r.addr);
            if (r.en != kNoNet)
                netCapFf[r.en] += 1.5;
        }
        for (const auto &w : m.writes) {
            loadPins(w.addr);
            loadPins(w.data);
            if (w.en != kNoNet)
                netCapFf[w.en] += 1.5;
        }
    }
    // Plus the wire (one IEEE addition, so the order of its operands
    // does not change the sum).
    for (NetId id = 0; id < nl.numNodes(); ++id)
        netCapFf[id] += placement.netWireCapFf[id];
}

PowerReport
analyzePower(const gate::GateNetlist &nl, const gate::Placement &placement,
             const gate::ActivityReport &activity, double clockHz)
{
    return analyzePower(nl, PowerModel(nl, placement), activity, clockHz);
}

PowerReport
analyzePower(const gate::GateNetlist &nl, const PowerModel &model,
             const gate::ActivityReport &activity, double clockHz)
{
    if (activity.cycles == 0)
        fatal("power analysis over an empty activity window");
    if (activity.netToggles.size() != nl.numNodes())
        fatal("activity report does not match the netlist");

    const gate::LibraryConstants &lib = gate::libraryConstants();
    PowerReport report;
    report.clockHz = clockHz;
    report.cycles = activity.cycles;
    report.groups.resize(nl.groupNames().size());
    for (size_t g = 0; g < nl.groupNames().size(); ++g)
        report.groups[g].group = nl.groupNames()[g];

    double seconds = static_cast<double>(activity.cycles) / clockHz;

    const double v2 = lib.vdd * lib.vdd;
    for (NetId id = 0; id < nl.numNodes(); ++id) {
        const GateNode &n = nl.node(id);
        if (n.dead)
            continue;
        GroupPower &g = report.groups[n.group];
        const gate::CellSpec &spec = gate::cellSpec(n.type);
        // Leakage regardless of activity.
        g.leakage += spec.leakageNw * 1e-9;
        // The clock network toggles under every flip-flop every cycle
        // (two transitions => C*V^2*f per DFF).
        if (n.type == CellType::Dff)
            g.clock += lib.clockCapFfPerDff * 1e-15 * v2 * clockHz;
        uint64_t toggles = activity.netToggles[id];
        if (toggles == 0)
            continue;
        double toggleRate = static_cast<double>(toggles) / seconds;
        double capF = model.netCapFf[id] * 1e-15;
        g.switching += 0.5 * capF * v2 * toggleRate;
        g.internal += spec.internalEnFj * 1e-15 * toggleRate;
    }

    for (size_t mi = 0; mi < nl.macros().size(); ++mi) {
        const gate::MacroMem &m = nl.macros()[mi];
        GroupPower &g = report.groups[m.group];
        const gate::MacroStats &acc = activity.macroAccesses[mi];
        double bits = static_cast<double>(m.width);
        double readJ = lib.sramReadPjPerBit * 1e-12 * bits;
        double writeJ = lib.sramWritePjPerBit * 1e-12 * bits;
        g.macroDynamic += (static_cast<double>(acc.reads) * readJ +
                           static_cast<double>(acc.writes) * writeJ) /
                          seconds;
        g.leakage += lib.sramLeakNwPerBit * 1e-9 *
                     static_cast<double>(m.width) *
                     static_cast<double>(m.depth);
    }

    return report;
}

} // namespace power
} // namespace strober
