/**
 * @file
 * Cycle-exact fast simulator for rtl::Design. In the paper this role
 * is played by the FPGA-hosted FAME1 simulator; here it is an
 * optimized evaluation schedule (rtl::buildEvalPlan: constant
 * folding, CSE, dead-node sweep, dense slot renumbering) executed by
 * one of three backends. What matters for the methodology is that it
 * is cycle-exact and orders of magnitude faster than the gate-level
 * simulator (src/gate), which it is: one word-level step here
 * replaces tens-to-hundreds of gate evaluations there.
 *
 * Evaluation model per cycle:
 *   1. poke() input values;
 *   2. evalComb() propagates through the hot schedule;
 *   3. step() commits the clock edge: registers latch their next
 *      values, sync-read ports latch old memory contents, write ports
 *      update memories (read-before-write; the last write port wins
 *      on address collisions).
 *
 * Backends (sim::Backend), observationally equivalent by construction
 * and locked down by tests/test_differential.cc's four-way lockstep:
 *   - InterpretedFull: the reference interpreter — every hot step is
 *     re-evaluated on every evalComb().
 *   - InterpretedActivity: change-propagation interpretation, on both
 *     sides of the clock edge. A dirty bitmap over hot-step indices
 *     (seeded by poke(), register commits, sync-memory latches and
 *     memory writes) is drained in one ascending scan; marks made
 *     while draining always target strictly higher step indices (the
 *     program is topologically ordered), so a single pass settles the
 *     graph and the evaluation sequence stays a sub-sequence of the
 *     full sweep. The commit edge is gated the same way: a second
 *     bitmap over commit units (registers, then sync-read ports) is
 *     fed by every slot change through a per-slot CSR — a register is
 *     a candidate when its next, en or own slot changed, a sync-read
 *     port when its addr, en or data slot changed or its memory was
 *     written — and only the drained candidates are re-latched. Every
 *     other unit would latch the value it already holds. reset() marks
 *     every unit, so the first commit after it visits them all (the
 *     post-reset full sweep writes slots without marking them). Memory
 *     write ports are visited on every edge (last-port-wins on an
 *     address collision needs all of them, and there are few).
 *   - Compiled: the hot schedule and commit logic lowered to
 *     specialized C++ (src/codegen) as several translation units,
 *     compiled in parallel with the host toolchain, linked into one
 *     shared object and dlopen()ed. When no compiler is available
 *     construction degrades to InterpretedFull with a warning — never
 *     an error.
 *   - CompiledParallel: the hot schedule partitioned into level-
 *     ordered chunks (rtl::partitionEvalPlan), each lowered to a JIT'd
 *     function that evaluates only when one of its input slots changed
 *     — the chunk-granular generalization of the activity bitmap. The
 *     chunk dirty bitmap is drained in one ascending scan on the
 *     calling thread, exactly like the activity interpreter's step
 *     bitmap: every cross-chunk edge targets a later level and chunk
 *     ids are level-major, so a chunk only marks higher ids. Degrades
 *     to InterpretedActivity when no compiler is available.
 *
 * All state access (peek of *any* node, scan-chain capture, snapshot
 * load, VCD) behaves identically across backends: optimized-away
 * nodes resolve through the plan's slot aliases, and dead nodes are
 * refreshed on demand from the cold program.
 */

#ifndef STROBER_SIM_SIMULATOR_H
#define STROBER_SIM_SIMULATOR_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "codegen/jit.h"
#include "rtl/ir.h"
#include "rtl/opt.h"

namespace strober {
namespace sim {

/** Evaluation backend of a Simulator. */
enum class Backend : uint8_t {
    InterpretedFull,     //!< reference interpreter, full sweep
    InterpretedActivity, //!< interpreter, change propagation
    Compiled,            //!< JIT-compiled native code (dlopen)
    CompiledParallel,    //!< JIT'd chunks, activity-gated
};

/** @return "full", "activity", "compiled" or "compiled-parallel"
 *  (reports and benches). */
const char *backendName(Backend backend);

/**
 * Parse a --backend= value ("full", "activity", "compiled",
 * "compiled-parallel"; the spelled-out
 * "interpreted-full"/"interpreted-activity" and the short "parallel"
 * also work). @return false when @p text names no backend (@p out
 * untouched).
 */
bool parseBackend(const std::string &text, Backend *out);

/** Cycle-exact fast simulator over one rtl::Design. */
class Simulator
{
  public:
    explicit Simulator(const rtl::Design &design,
                       Backend backend = Backend::InterpretedFull);

    const rtl::Design &design() const { return dsn; }

    /**
     * The backend actually executing (== requestedBackend() except
     * when Compiled degraded to InterpretedFull for lack of a host
     * compiler).
     */
    Backend backend() const { return effective; }
    Backend requestedBackend() const { return requested; }

    /**
     * What building the compiled module cost, or null when no module
     * is attached (an interpreted backend, or a compiled one that fell
     * back for lack of a host compiler).
     */
    const codegen::JitStats *jitStats() const
    {
        return module ? &module->stats() : nullptr;
    }

    /** The optimized evaluation plan this simulator executes. */
    const rtl::EvalPlan &plan() const { return evalPlan; }

    /** Reset state: registers to init values, memories to zero. */
    void reset();

    /** Drive a top-level input for the current cycle. */
    void poke(rtl::NodeId input, uint64_t value);
    /** Drive a top-level input by name (fatal if absent). */
    void poke(const std::string &name, uint64_t value);

    /** Observe any node's current value (evaluates comb logic if stale). */
    uint64_t peek(rtl::NodeId node);
    /** Observe a top-level output by name (fatal if absent). */
    uint64_t peek(const std::string &name);

    /** Propagate combinational logic for the current input values. */
    void evalComb();

    /** Advance @p n clock edges (each: evalComb if stale, then commit). */
    void step(uint64_t n = 1);

    /** Cycles executed since construction/reset. */
    uint64_t cycle() const { return cycleCount; }

    /**
     * Hot-schedule step evaluations executed (simulation-rate
     * reporting). On-demand cold evaluations triggered by peeks of
     * optimized-away nodes are not counted: they are an observation
     * cost, not a per-cycle simulation cost.
     */
    uint64_t nodeEvals() const { return evalCount; }

    /**
     * Step evaluations skipped by the activity-gated sweeps of
     * InterpretedActivity and CompiledParallel (a full sweep would have
     * executed them). Always 0 in the other backends.
     */
    uint64_t nodeEvalsSkipped() const { return skipCount; }

    /**
     * Register and sync-read-port commits executed at clock edges.
     * Memory write ports, visited on every edge, are not counted.
     */
    uint64_t commitEvals() const { return commitCount; }

    /**
     * Commits skipped by InterpretedActivity edges because none of the
     * unit's inputs changed (a full commit would have executed them).
     * Always 0 in the other backends.
     */
    uint64_t commitsSkipped() const { return commitSkipCount; }

    /**
     * Fraction of scheduled step evaluations actually executed,
     * averaged over all sweeps so far: evals / (evals + skipped). 1.0
     * outside the activity-gated backends (and before any sweep).
     */
    double activityFactor() const
    {
        uint64_t total = evalCount + skipCount;
        return total ? static_cast<double>(evalCount) /
                           static_cast<double>(total)
                     : 1.0;
    }

    // --- Direct state access (scan chains, snapshot load, testing) -----
    // Index arguments are checked; out-of-range indices are fatal.
    uint64_t regValue(size_t regIdx) const;
    void setRegValue(size_t regIdx, uint64_t value);
    uint64_t memWord(size_t memIdx, uint64_t addr) const;
    void setMemWord(size_t memIdx, uint64_t addr, uint64_t value);
    /** Registered read data of sync memory port (state). */
    uint64_t syncReadData(size_t memIdx, size_t port) const;
    void setSyncReadData(size_t memIdx, size_t port, uint64_t value);

    /** Bulk-load a memory starting at @p base (fatal on overflow). */
    void loadMem(size_t memIdx, uint64_t base,
                 const std::vector<uint64_t> &words);

  private:
    // Commit-edge operand tables, flattened to slots at construction so
    // the per-cycle loop never chases RegInfo/MemInfo indirections.
    struct RegCommit
    {
        rtl::SlotId dst, next, en; //!< en == kNoSlot: always enabled
    };
    struct SyncReadCommit
    {
        rtl::SlotId data, addr, en;
        uint32_t mem;
        uint64_t depth;
    };
    struct MemWriteCommit
    {
        rtl::SlotId addr, data, en;
        uint32_t mem;
        uint64_t depth;
    };

    const rtl::Design &dsn;
    Backend requested;
    Backend effective;
    rtl::EvalPlan evalPlan;
    std::vector<uint64_t> slots;             //!< flat renumbered values
    std::vector<std::vector<uint64_t>> mems; //!< memory contents
    std::vector<uint64_t *> memPtrs;         //!< per-mem data() (compiled)
    // Commit units are numbered registers first, then sync-read ports:
    // unit u < regCommits.size() is regCommits[u], any other is
    // syncReadCommits[u - regCommits.size()].
    std::vector<RegCommit> regCommits;
    std::vector<SyncReadCommit> syncReadCommits;
    std::vector<MemWriteCommit> memWriteCommits;
    std::vector<uint32_t> allUnits;       //!< 0 .. units-1 (full commits)
    std::vector<uint32_t> unitList;       //!< drained candidates (scratch)
    std::vector<uint64_t> unitPending;    //!< per listed unit (scratch)
    uint64_t cycleCount = 0;
    uint64_t evalCount = 0;
    uint64_t skipCount = 0;
    uint64_t commitCount = 0;
    uint64_t commitSkipCount = 0;
    bool combStale = true;
    bool coldStale = true;

    // --- InterpretedActivity machinery ---------------------------------
    std::vector<uint64_t> dirtyBits;   //!< bitmap over hot-step indices
    uint32_t minDirtyWord = 0;         //!< == dirtyBits.size() when clean
    uint32_t maxDirtyWord = 0;
    bool fullSweepPending = true;      //!< first sweep after reset
    std::vector<uint32_t> fanoutBegin; //!< per slot: CSR into ...
    std::vector<uint32_t> fanoutSteps; //!< ... consumer hot-step indices
    std::vector<std::vector<uint32_t>> memReadSteps; //!< hot async reads
    std::vector<uint64_t> commitDirty;       //!< bitmap over commit units
    std::vector<uint32_t> commitFanoutBegin; //!< per slot: CSR into ...
    std::vector<uint32_t> commitFanout;      //!< ... units it triggers
    std::vector<uint32_t> memSyncReadBegin;  //!< per mem: CSR of read units

    // --- Compiled backend ----------------------------------------------
    std::unique_ptr<codegen::CompiledSim> module;

    // --- CompiledParallel machinery ------------------------------------
    rtl::EvalPartition partition;   //!< chunking of the hot program
    std::vector<uint64_t> chunkDirty; //!< bitmap over chunk ids

    void buildTables();
    void attachCompiledModule();
    void commitEdge();
    /** One clock edge: latch the @p n listed units (ascending ids)
     *  and run every write port, reading all inputs before writing. */
    void commitUnits(const uint32_t *units, size_t n);
    uint64_t evalStep(const rtl::EvalStep &s) const;
    void evalCombFull();
    void evalCombActivity();
    void evalCombParallel();
    void evalCold();
    void markStepDirty(uint32_t stepIdx);
    void markCommitDirty(uint32_t unit);
    void markSlotChanged(rtl::SlotId slot);
    void markMemChanged(size_t memIdx);
    /** Mark the chunks consuming @p slot dirty (CompiledParallel). */
    void markSlotChunks(rtl::SlotId slot);
    /** Mark the chunks async-reading memory @p memIdx dirty. */
    void markMemChunks(size_t memIdx);
    /** Store @p value into @p slot, tracking dirtiness per backend. */
    void updateSlot(rtl::SlotId slot, uint64_t value);
};

} // namespace sim
} // namespace strober

#endif // STROBER_SIM_SIMULATOR_H
