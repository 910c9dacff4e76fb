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

/** One op of the lowered program. */
struct LoweredGate
{
    GateOp op;
    NetId out;
    NetId in0, in1, in2;
};

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
    /** Nets one evaluation pass computes (gate-eval rate reporting). */
    uint64_t netEvals = 0;
    /** D input of every flip-flop, in GateNetlist::dffs() order. */
    std::vector<NetId> dffD;
    /** Reset contents of every macro: its init words, zero-padded to
     *  its depth. */
    std::vector<std::vector<uint64_t>> macroReset;
};

} // namespace gate
} // namespace strober

#endif // STROBER_GATE_PROGRAM_H
