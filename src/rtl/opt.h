/**
 * @file
 * Netlist pre-optimization for the fast simulator: lower a Design's
 * combinational graph into an EvalPlan — the optimized, slot-renumbered
 * evaluation schedule that both the interpreter backends and the
 * compiled-code backend (src/codegen) execute.
 *
 * Passes, run in one topological sweep plus a liveness pass:
 *  1. Constant folding: nodes whose operands all fold become
 *     compile-time constants (evaluated with rtl::evalOp, so folding
 *     can never disagree with the interpreter).
 *  2. Common-subexpression elimination: structurally identical ops
 *     over identical operand sources collapse to one representative;
 *     commutative ops (Add/Mul/And/Or/Xor/Eq/Ne) canonicalize operand
 *     order first. Value-passthrough ops (Pad always; SExt and
 *     full-range Bits at equal widths; Mux with a folded selector)
 *     alias straight to their source.
 *  3. Dead-node sweep: nodes not reachable from any root (outputs,
 *     register next/enable, memory-port operands, retime annotations)
 *     are moved off the per-cycle hot path into a cold program that
 *     only runs when such a node is actually peeked.
 *  4. Dense slot renumbering: live values get contiguous slots in a
 *     flat array — leaves first, then the hot schedule in evaluation
 *     order, then deduplicated constants, then cold nodes — so the
 *     per-cycle working set is cache-contiguous instead of scattered
 *     across NodeId space.
 *
 * Observability contract: *every* node still has a value. slotOf maps
 * each NodeId to the slot carrying its (representative's) value;
 * aliases share their representative's slot, folded nodes share a
 * preset constant slot, and cold nodes are refreshed by evaluating
 * coldProgram before reading. sim::Simulator::peek() hides all of
 * this, so scan chains, snapshots, VCD dumping and the differential
 * tests see exactly the values the unoptimized sweep would produce.
 */

#ifndef STROBER_RTL_OPT_H
#define STROBER_RTL_OPT_H

#include <cstdint>
#include <vector>

#include "lint/diagnostics.h"
#include "rtl/ir.h"

namespace strober {
namespace rtl {

/** Index into an EvalPlan's flat value array. */
using SlotId = uint32_t;

/** Sentinel for "no slot" (e.g. an absent enable operand). */
constexpr SlotId kNoSlot = UINT32_MAX;

/**
 * One scheduled combinational operation over the slot array. Operand
 * slots are fully resolved: an argument that was folded reads a
 * constant slot, an aliased argument reads its representative's slot.
 * For Op::MemRead, @ref a is the memory index and @ref b the address
 * slot. @ref widthA / @ref widthB are the *original* operand widths
 * (aliasing never changes a value, but it can change the width of the
 * node a slot came from, and RedAnd/SExt/Sra/Lts/Cat semantics depend
 * on the consumer's view of the operand width).
 */
struct EvalStep
{
    Op op = Op::Const;
    uint16_t width = 0;
    uint8_t widthA = 0;
    uint8_t widthB = 0;
    SlotId dst = kNoSlot;
    uint32_t a = 0, b = 0, c = 0;
    uint64_t imm = 0;
};

/** Optimization statistics (reporting and tests). */
struct EvalPlanStats
{
    uint32_t folded = 0;   //!< comb nodes that became constants
    uint32_t aliased = 0;  //!< comb nodes merged into a representative
    uint32_t cold = 0;     //!< live-value dead nodes moved off the hot path
    uint32_t hot = 0;      //!< scheduled per-cycle operations
    uint32_t constSlots = 0; //!< deduplicated constant slots
    // Dataflow-powered subsets of the above (see rtl/dataflow.h; all
    // proofs use arbitrary-state-sound facts, so they hold under
    // setRegValue/scan-restore/fault injection too):
    uint32_t dfFolded = 0;    //!< folded via known-bits/range proofs
    uint32_t dfMuxPruned = 0; //!< Mux arms pruned via a decided selector
    uint32_t dfAliased = 0;   //!< identity/absorption aliases proven
};

/** The optimized evaluation schedule of one Design. */
struct EvalPlan
{
    /** Per node: the slot carrying its value (always valid). */
    std::vector<SlotId> slotOf;
    /** Per node: value only fresh after coldProgram ran (see above). */
    std::vector<uint8_t> coldNode;
    /** Total slots in the flat value array. */
    uint32_t numSlots = 0;
    /** Constant slots and their values (applied at reset). */
    std::vector<std::pair<SlotId, uint64_t>> slotInit;
    /**
     * Per-cycle schedule, in a topological order of the optimized
     * graph: every step's operands are produced by leaves, constants
     * or strictly earlier steps. Draining dirty steps in ascending
     * index order is therefore a sub-sequence of the full sweep.
     */
    std::vector<EvalStep> hotProgram;
    /** Dead-node schedule, topological; runs only on cold peeks. */
    std::vector<EvalStep> coldProgram;
    EvalPlanStats stats;
};

/** Knobs for buildEvalPlan (tests and benchmarks compare with/without
 *  the dataflow strengthening; production callers use the defaults). */
struct EvalPlanOptions
{
    /**
     * Use rtl::analyzeDataflow arbitrary-state facts for bit-level
     * dead-code elimination: provably-constant net folding, decided-Mux
     * arm pruning, and identity/absorption aliasing (And with a proven
     * superset mask, Or into proven ones, shift/add/sub/xor by proven
     * zero, SExt of a proven-nonnegative value, Bits dropping only
     * proven-zero bits). Every transform is value-preserving in every
     * reachable *or manufactured* state, so the observability contract
     * (peek == unoptimized sweep) still holds bit-for-bit.
     */
    bool dataflow = true;
};

/**
 * Build the optimized evaluation plan for @p design. Same contract as
 * analyzeComb(): calls fatal() naming a node on a combinational cycle.
 */
EvalPlan buildEvalPlan(const Design &design,
                       const EvalPlanOptions &options = {});

// --- Partitioning pass (compiled-parallel backend) ---------------------
//
// The hot program is clustered into *chunks* — balanced groups of steps
// evaluated as a unit — arranged into *levels*. All data dependencies
// between steps either stay inside one chunk or cross to a later level
// (never between two chunks of the same level), and chunk ids are
// level-major, so every cross-chunk edge points to a higher chunk id:
// running the dirty chunks in ascending id order produces exactly the
// full sweep's values. Each chunk carries a dirty bit: a chunk is
// re-evaluated only when one of its input slots changed — the
// chunk-granular generalization of InterpretedActivity's per-step dirty
// bitmap that the compiled-parallel backend's JIT'd chunk functions
// test and propagate (src/codegen).

/** Target clusters (chunks) per level. A fixed constant, so the
 *  partition, the emitted code and every evaluation counter are a pure
 *  function of the plan. */
constexpr uint32_t kDefaultPartitionClusters = 8;

/** Minimum hot steps per level: consecutive topological ranks are
 *  merged until a level carries at least this much work, bounding the
 *  number of levels. */
constexpr uint32_t kDefaultPartitionGrain = 512;

/** One cluster of hot-program steps evaluated as a unit. */
struct EvalChunk
{
    uint32_t level = 0;           //!< level (same-level chunks are independent)
    std::vector<uint32_t> steps;  //!< hot-program indices, ascending
};

/** Level-ordered clustering of an EvalPlan's hot program. */
struct EvalPartition
{
    uint32_t clusters = 0;  //!< requested clusters per level
    /** Chunks in level-major order: level of chunk c is
     *  nondecreasing in c, so one level is a contiguous id range. */
    std::vector<EvalChunk> chunks;
    /** Per level l: chunks [levelBegin[l], levelBegin[l+1]). */
    std::vector<uint32_t> levelBegin;
    /** Per hot-program step: owning chunk id. */
    std::vector<uint32_t> stepChunk;
    /** CSR: per slot, the chunks that consume it and must go dirty
     *  when it changes — excluding the chunk producing it (in-chunk
     *  edges are satisfied by the chunk's own ascending execution). */
    std::vector<uint32_t> slotChunksBegin;
    std::vector<uint32_t> slotChunks;
    /** Per memory: chunks with an async MemRead of it (marked dirty
     *  on memory mutation, mirroring the interpreter's memReadSteps). */
    std::vector<std::vector<uint32_t>> memChunks;

    uint32_t numLevels() const
    {
        return levelBegin.empty()
                   ? 0
                   : static_cast<uint32_t>(levelBegin.size() - 1);
    }
    /** Words of the chunk dirty bitmap. */
    uint32_t dirtyWords() const
    {
        return static_cast<uint32_t>((chunks.size() + 63) / 64);
    }
};

/**
 * Cluster @p plan's hot program into a level-ordered, balanced
 * partition. Deterministic: a pure function of its arguments.
 * @p numMems is the design's memory count (for memChunks).
 */
EvalPartition
partitionEvalPlan(const EvalPlan &plan, size_t numMems,
                  uint32_t clusters = kDefaultPartitionClusters,
                  uint32_t minLevelSteps = kDefaultPartitionGrain);

/**
 * Statically prove @p partition sound for @p plan: running the dirty
 * chunks in ascending id order produces exactly the full sweep's
 * values, and the chunks of one level are independent of each other.
 * Obligations checked (one lint rule id per violation class):
 *
 *  - "partition-coverage": every hot-program step appears in exactly
 *    one chunk, chunk step lists are ascending, stepChunk agrees with
 *    the chunk contents, and no chunk is empty.
 *  - "partition-geometry": chunks are level-major, levelBegin tiles
 *    them exactly, and every CSR index/chunk id is in range
 *    (slotChunksBegin spans plan.numSlots, memChunks spans numMems).
 *  - "partition-level-race": every step reading a slot produced by a
 *    *different* chunk sits at a strictly *later* level than that
 *    chunk, so every cross-chunk edge targets a higher chunk id (a
 *    same-level or backward edge would read a value before it is
 *    written).
 *  - "partition-double-writer": no two chunks of one level write the
 *    same slot (the store order would matter).
 *  - "partition-dirty-closure": every cross-chunk consumer of a slot
 *    is listed in the slot's CSR entry, and every chunk with an async
 *    MemRead of memory m is listed in memChunks[m]; a missing edge
 *    would leave a chunk clean after its input changed.
 *
 * Pure and non-fatal: returns the accumulated diagnostics (empty =
 * proven). sim::Simulator panics on any error from this gate before
 * attaching a compiled-parallel module.
 */
lint::Diagnostics verifyPartition(const EvalPlan &plan,
                                  const EvalPartition &partition,
                                  size_t numMems);

} // namespace rtl
} // namespace strober

#endif // STROBER_RTL_OPT_H
