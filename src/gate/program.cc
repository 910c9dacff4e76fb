#include "gate/program.h"

#include "util/logging.h"

namespace strober {
namespace gate {

namespace {

/** Visit the nets @p id's value is computed from (none for sources). */
template <typename Visit>
void
forEachDep(const GateNetlist &nl, NetId id, Visit &&visit)
{
    const GateNode &g = nl.node(id);
    switch (g.type) {
      case CellType::PrimaryInput:
      case CellType::Tie0:
      case CellType::Tie1:
      case CellType::Dff:
        return; // sources
      case CellType::MacroOut: {
        const MacroMem &m = nl.macros()[g.aux >> 16];
        if (m.syncRead)
            return; // registered read data: state
        const MacroMem::ReadPort &port = m.reads[(g.aux >> 8) & 0xff];
        for (NetId a : port.addr)
            visit(a);
        if (port.en != kNoNet)
            visit(port.en);
        return;
      }
      default:
        for (NetId in : g.in) {
            if (in != kNoNet)
                visit(in);
        }
        return;
    }
}

/** The cell each op lowers, indexed by GateOp. */
constexpr CellType kOpCells[kGateOps] = {
    CellType::Buf,   CellType::Inv,   CellType::And2,
    CellType::Or2,   CellType::Nand2, CellType::Nor2,
    CellType::Xor2,  CellType::Xnor2, CellType::Mux2,
    CellType::MacroOut,
};

/** The op of a logic cell (MacroOut lowers to its port's AsyncRead). */
GateOp
opFor(CellType type)
{
    for (size_t i = 0; i < static_cast<size_t>(GateOp::AsyncRead); ++i) {
        if (kOpCells[i] == type)
            return static_cast<GateOp>(i);
    }
    panic("cell type %u is not combinational", static_cast<unsigned>(type));
}

} // namespace

CellType
cellTypeOf(GateOp op)
{
    return kOpCells[static_cast<size_t>(op)];
}

GateProgram::GateProgram(const GateNetlist &nl)
{
    const size_t n = nl.numNodes();

    // Async read ports and their live data bits; -1 = no port yet.
    std::vector<std::vector<int32_t>> portIndex(nl.macros().size());
    for (size_t mi = 0; mi < nl.macros().size(); ++mi) {
        const MacroMem &m = nl.macros()[mi];
        portIndex[mi].assign(m.reads.size(), -1);
        if (m.syncRead)
            continue;
        for (size_t p = 0; p < m.reads.size(); ++p) {
            AsyncReadPort port;
            port.macro = static_cast<uint32_t>(mi);
            port.port = static_cast<uint32_t>(p);
            for (size_t b = 0; b < m.reads[p].data.size(); ++b) {
                NetId net = m.reads[p].data[b];
                if (!nl.node(net).dead)
                    port.bits.emplace_back(static_cast<uint32_t>(b), net);
            }
            if (port.bits.empty())
                continue;
            portIndex[mi][p] = static_cast<int32_t>(asyncReads.size());
            asyncReads.push_back(std::move(port));
        }
    }

    // Kahn's algorithm over a CSR user list; sources carry no op.
    std::vector<uint32_t> pending(n, 0);
    std::vector<uint32_t> userStart(n + 1, 0);
    for (NetId id = 0; id < n; ++id) {
        forEachDep(nl, id, [&](NetId dep) {
            ++pending[id];
            ++userStart[dep + 1];
        });
    }
    for (size_t i = 0; i < n; ++i)
        userStart[i + 1] += userStart[i];
    std::vector<NetId> users(userStart[n]);
    std::vector<uint32_t> fill(userStart.begin(), userStart.end() - 1);
    for (NetId id = 0; id < n; ++id)
        forEachDep(nl, id, [&](NetId dep) { users[fill[dep]++] = id; });

    std::vector<NetId> ready;
    for (NetId id = 0; id < n; ++id) {
        if (pending[id] == 0)
            ready.push_back(id);
    }
    size_t processed = 0;
    while (!ready.empty()) {
        NetId id = ready.back();
        ready.pop_back();
        ++processed;
        const GateNode &g = nl.node(id);
        if (!g.dead) {
            if (g.type == CellType::MacroOut) {
                // Every bit of a port has the port's deps, so the port's
                // op goes where its first live bit becomes ready.
                uint32_t mi = g.aux >> 16;
                uint32_t p = (g.aux >> 8) & 0xff;
                int32_t &slot = portIndex[mi][p];
                if (slot >= 0) {
                    gates.push_back(LoweredGate{GateOp::AsyncRead, kNoNet,
                                                static_cast<NetId>(slot),
                                                kNoNet, kNoNet});
                    slot = -1; // emitted
                }
            } else if (g.type != CellType::PrimaryInput &&
                       g.type != CellType::Tie0 &&
                       g.type != CellType::Tie1 &&
                       g.type != CellType::Dff) {
                gates.push_back(
                    LoweredGate{opFor(g.type), id, g.in[0], g.in[1], g.in[2]});
            }
        }
        for (uint32_t u = userStart[id]; u < userStart[id + 1]; ++u) {
            if (--pending[users[u]] == 0)
                ready.push_back(users[u]);
        }
    }
    if (processed != n)
        fatal("gate netlist has a combinational cycle");

    dffD.reserve(nl.dffs().size());
    for (NetId id : nl.dffs())
        dffD.push_back(nl.node(id).in[0]);
    for (const MacroMem &m : nl.macros()) {
        macroReset.emplace_back(m.depth, 0);
        for (size_t i = 0; i < m.init.size() && i < m.depth; ++i)
            macroReset.back()[i] = m.init[i];
    }
}

} // namespace gate
} // namespace strober
