/**
 * @file
 * The single source of truth for combinational op semantics. Every
 * evaluator in the repository — the interpreter sweep
 * (sim::Simulator), the constant folder (rtl::buildEvalPlan) and the
 * compiled-code emitter (codegen::emitSimulatorSource) — must agree
 * bit-for-bit on what each Op computes; the first two call this
 * function directly and the third is differentially tested against it
 * (tests/test_differential.cc, tests/test_codegen.cc).
 *
 * Width conventions (they matter for the odd corners):
 *  - `width` is the result width; every result is truncated to it.
 *  - `widthA`/`widthB` are the *original* operand widths, used by the
 *    ops whose meaning depends on them (RedAnd, SExt, Sra, Lts, Cat).
 *  - Dynamic shift amounts are unbounded 64-bit values: Shl/Shru of
 *    `width` or more yields 0; Sra fills with the sign bit.
 *  - Divu/Remu define division by zero: x/0 = all-ones, x%0 = x.
 */

#ifndef STROBER_RTL_EVAL_H
#define STROBER_RTL_EVAL_H

#include <algorithm>
#include <cstdint>

#include "rtl/ir.h"
#include "util/bits.h"
#include "util/logging.h"

namespace strober {
namespace rtl {

/**
 * Evaluate one combinational @p op over operand values @p a / @p b /
 * @p c (already masked to their widths). Op::MemRead is the one comb
 * op this cannot evaluate (it needs memory contents); callers own it.
 * Always inlined: in the interpreter's sweeps the switch then compiles
 * to a jump table inside the loop instead of a call per evaluation.
 */
__attribute__((always_inline)) inline uint64_t
evalOp(Op op, unsigned width, unsigned widthA, unsigned widthB,
       uint64_t imm, uint64_t a, uint64_t b, uint64_t c)
{
    switch (op) {
      case Op::Not:
        return truncate(~a, width);
      case Op::Neg:
        return truncate(0 - a, width);
      case Op::RedOr:
        return a != 0;
      case Op::RedAnd:
        return a == bitMask(widthA);
      case Op::RedXor:
        return static_cast<uint64_t>(__builtin_popcountll(a)) & 1;
      case Op::SExt:
        return truncate(signExtend(a, widthA), width);
      case Op::Pad:
        return a;
      case Op::Bits:
        return bits(a, static_cast<unsigned>(imm >> 8),
                    static_cast<unsigned>(imm & 0xff));
      case Op::Add:
        return truncate(a + b, width);
      case Op::Sub:
        return truncate(a - b, width);
      case Op::Mul:
        return truncate(a * b, width);
      case Op::Divu:
        return b == 0 ? bitMask(width) : a / b;
      case Op::Remu:
        return b == 0 ? a : a % b;
      case Op::And:
        return a & b;
      case Op::Or:
        return a | b;
      case Op::Xor:
        return a ^ b;
      case Op::Shl:
        // Clamp before the C++ shift (<< by >= 64 is undefined).
        return b >= width ? 0 : truncate(a << b, width);
      case Op::Shru:
        return b >= width ? 0 : a >> b;
      case Op::Sra: {
        // Shifting by >= width fills with the sign bit; cap the actual
        // C++ shift at 63 (bit 63 of the sign-extended operand IS the
        // sign, so >> 63 realizes the full fill without UB).
        uint64_t amt = std::min<uint64_t>(b, width);
        if (amt > 63)
            amt = 63;
        int64_t x = static_cast<int64_t>(signExtend(a, widthA));
        return truncate(static_cast<uint64_t>(x >> amt), width);
      }
      case Op::Eq:
        return a == b;
      case Op::Ne:
        return a != b;
      case Op::Ltu:
        return a < b;
      case Op::Lts:
        return static_cast<int64_t>(signExtend(a, widthA)) <
               static_cast<int64_t>(signExtend(b, widthB));
      case Op::Cat:
        return truncate((a << widthB) | b, width);
      case Op::Mux:
        return a & 1 ? b : c;
      default:
        panic("evalOp: op %s is not a pure combinational function",
              opName(op));
    }
    return 0;
}

} // namespace rtl
} // namespace strober

#endif // STROBER_RTL_EVAL_H
