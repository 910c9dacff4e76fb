/**
 * @file
 * Compiled-simulation source emitter: lower a Design's optimized
 * evaluation plan (rtl::buildEvalPlan) to specialized C++ — the hot
 * program as straight-line chunk functions over the flat slot array
 * plus one commit() for the clock edge, with widths, masks, immediates
 * and memory bounds baked in as constants. sim::Simulator calls the
 * resulting functions behind sim::Backend::Compiled.
 *
 * The emitted source is several translation units in one string. Each
 * unit after the first starts with the kTuDelimiter line. The first
 * unit holds strober_eval, strober_commit, the geometry stamps and the
 * chunk declarations; the others hold the chunk functions, cut by a
 * fixed statement budget, so the JIT (codegen/jit.h) compiles them in
 * parallel and links one shared object.
 *
 * Contract: for the same (design, plan) the emitted source is
 * byte-identical across runs (locked by the golden test in
 * tests/test_codegen.cc), and executing it is bit-identical to the
 * interpreter executing the same plan (locked by the three-way
 * differential suite). Every expression mirrors rtl::evalOp exactly,
 * including the shift clamps and the division-by-zero rules.
 */

#ifndef STROBER_CODEGEN_CODEGEN_H
#define STROBER_CODEGEN_CODEGEN_H

#include <string>

#include "rtl/ir.h"
#include "rtl/opt.h"

namespace strober {
namespace codegen {

/** First line of every translation unit after the first in an emitted
 *  source string. A string without it is a single unit. */
constexpr const char *kTuDelimiter = "// --- strober translation unit ---";

/** Exported symbol names of the emitted module. */
constexpr const char *kEvalSymbol = "strober_eval";
constexpr const char *kCommitSymbol = "strober_commit";
constexpr const char *kNumSlotsSymbol = "strober_num_slots";
constexpr const char *kNumMemsSymbol = "strober_num_mems";
/** Chunk count stamp; absent (0) in non-partitioned modules. */
constexpr const char *kNumChunksSymbol = "strober_num_chunks";
/** Per-chunk eval functions: strober_eval_chunk_<k>, k in [0,chunks). */
constexpr const char *kChunkSymbolPrefix = "strober_eval_chunk_";

/**
 * Emit the specialized C++ source for @p design under @p plan: the
 * hot program cut into hidden `eval_<n>` chunk functions, called in
 * order by strober_eval. Deterministic: a pure function of its
 * arguments.
 */
std::string emitSimulatorSource(const rtl::Design &design,
                                const rtl::EvalPlan &plan);

/**
 * Emit the partitioned (compiled-parallel) source: one exported
 * `strober_eval_chunk_<k>(slots, mems, dirty)` per chunk of @p part —
 * each step stores only on change and ORs its consumer chunks' bits
 * into the caller's dirty bitmap — plus a sequential strober_eval full
 * sweep, the shared strober_commit, and geometry stamps including
 * strober_num_chunks. Deterministic: a pure function of its arguments.
 */
std::string emitPartitionedSource(const rtl::Design &design,
                                  const rtl::EvalPlan &plan,
                                  const rtl::EvalPartition &part);

} // namespace codegen
} // namespace strober

#endif // STROBER_CODEGEN_CODEGEN_H
