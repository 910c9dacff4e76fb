/**
 * @file
 * A gate netlist lowered for simulation: one flat, topologically ordered
 * list of typed ops over net ids, built once per netlist and shared
 * read-only by every simulator of it (the GSIM idea of flattening a
 * design into a compact instruction stream instead of walking rich
 * netlist structs). Sources (primary inputs, ties, flip-flops, sync
 * read data) are state and carry no op; dead gates are dropped; each
 * async SRAM read port is one op that reads the address bus once and
 * drives every live data bit of the port.
 */

#ifndef STROBER_GATE_PROGRAM_H
#define STROBER_GATE_PROGRAM_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "gate/netlist.h"

namespace strober {
namespace gate {

enum class GateOp : uint8_t {
    Buf,
    Inv,
    And2,
    Or2,
    Nand2,
    Nor2,
    Xor2,
    Xnor2,
    Mux2,      //!< in0 = sel, in1 = a (sel=1), in2 = b (sel=0)
    AsyncRead, //!< in0 indexes GateProgram::asyncReads; out unused
};

constexpr size_t kGateOps = static_cast<size_t>(GateOp::AsyncRead) + 1;

/** The cell an op lowers (AsyncRead: a macro read data bit). */
CellType cellTypeOf(GateOp op);

/** One op of the lowered program. */
struct LoweredGate
{
    GateOp op;
    NetId out;
    NetId in0, in1, in2;
};

/** The value of op @p g over net values @p v (bit k of a Lane word is
 *  lane k): with the lowering, the one definition of a gate's function.
 *  AsyncRead reads a macro, which only the evaluator holds: 0 here. */
template <typename Lane>
[[gnu::always_inline]] inline Lane
evalOp(const LoweredGate &g, const Lane *v)
{
    switch (g.op) {
      case GateOp::Buf: return v[g.in0];
      case GateOp::Inv: return static_cast<Lane>(~v[g.in0]);
      case GateOp::And2: return v[g.in0] & v[g.in1];
      case GateOp::Or2: return v[g.in0] | v[g.in1];
      case GateOp::Nand2: return static_cast<Lane>(~(v[g.in0] & v[g.in1]));
      case GateOp::Nor2: return static_cast<Lane>(~(v[g.in0] | v[g.in1]));
      case GateOp::Xor2: return v[g.in0] ^ v[g.in1];
      case GateOp::Xnor2: return static_cast<Lane>(~(v[g.in0] ^ v[g.in1]));
      case GateOp::Mux2:
        return (v[g.in0] & v[g.in1]) |
               (static_cast<Lane>(~v[g.in0]) & v[g.in2]);
      case GateOp::AsyncRead: break;
    }
    return 0;
}

/** An async SRAM read port: the live data bits it drives. */
struct AsyncReadPort
{
    uint32_t macro = 0;
    uint32_t port = 0;
    std::vector<std::pair<uint32_t, NetId>> bits; //!< (data bit, net)
};

/** The lowered netlist. */
struct GateProgram
{
    explicit GateProgram(const GateNetlist &netlist);

    std::vector<LoweredGate> gates; //!< topological order
    std::vector<AsyncReadPort> asyncReads;
    /** D input of every flip-flop, in GateNetlist::dffs() order. */
    std::vector<NetId> dffD;
    /** Reset contents of every macro: its init words, zero-padded to
     *  its depth. */
    std::vector<std::vector<uint64_t>> macroReset;
};

} // namespace gate
} // namespace strober

#endif // STROBER_GATE_PROGRAM_H
