#include "sim/simulator.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "codegen/codegen.h"
#include "lint/lint.h"
#include "rtl/eval.h"
#include "util/bits.h"
#include "util/env.h"
#include "util/logging.h"

namespace strober {
namespace sim {

using rtl::EvalStep;
using rtl::NodeId;
using rtl::Op;
using rtl::SlotId;
using rtl::kNoNode;
using rtl::kNoSlot;

const char *
backendName(Backend backend)
{
    switch (backend) {
      case Backend::InterpretedFull:
        return "full";
      case Backend::InterpretedActivity:
        return "activity";
      case Backend::Compiled:
        return "compiled";
      case Backend::CompiledParallel:
        return "compiled-parallel";
    }
    return "?";
}

bool
parseBackend(const std::string &text, Backend *out)
{
    if (text == "full" || text == "interpreted-full")
        *out = Backend::InterpretedFull;
    else if (text == "activity" || text == "interpreted-activity")
        *out = Backend::InterpretedActivity;
    else if (text == "compiled")
        *out = Backend::Compiled;
    else if (text == "compiled-parallel" || text == "parallel")
        *out = Backend::CompiledParallel;
    else
        return false;
    return true;
}

Simulator::Simulator(const rtl::Design &design, Backend backend)
    : dsn(design), requested(backend), effective(backend)
{
    lint::Options opts;
    opts.minSeverity = lint::Severity::Error;
    lint::Diagnostics diags = lint::run(dsn, opts);
    if (diags.hasErrors()) {
        fatal("cannot simulate design '%s': %zu lint error(s):\n%s",
              dsn.name().c_str(), diags.errorCount(), diags.str().c_str());
    }
    rtl::EvalPlanOptions planOpts;
    // Debugging escape hatch (also used by the differential suite to
    // pit an unstrengthened reference against the dataflow-optimized
    // plan): a truthy value disables the known-bits pass.
    if (util::envFlag("STROBER_SIM_NO_DATAFLOW"))
        planOpts.dataflow = false;
    evalPlan = rtl::buildEvalPlan(dsn, planOpts);
    buildTables();
    if (requested == Backend::Compiled ||
        requested == Backend::CompiledParallel)
        attachCompiledModule();
    reset();
}

void
Simulator::buildTables()
{
    const auto &slotOf = evalPlan.slotOf;

    regCommits.clear();
    regCommits.reserve(dsn.regs().size());
    for (const rtl::RegInfo &r : dsn.regs()) {
        RegCommit c;
        c.dst = slotOf[r.node];
        c.next = slotOf[r.next];
        c.en = r.en == kNoNode ? kNoSlot : slotOf[r.en];
        regCommits.push_back(c);
    }

    syncReadCommits.clear();
    memWriteCommits.clear();
    const uint32_t numRegs = static_cast<uint32_t>(regCommits.size());
    memSyncReadBegin.assign(dsn.mems().size() + 1, numRegs);
    for (size_t mi = 0; mi < dsn.mems().size(); ++mi) {
        const rtl::MemInfo &m = dsn.mems()[mi];
        memSyncReadBegin[mi] =
            numRegs + static_cast<uint32_t>(syncReadCommits.size());
        if (m.syncRead) {
            for (const rtl::MemReadPort &p : m.reads) {
                SyncReadCommit c;
                c.data = slotOf[p.data];
                c.addr = slotOf[p.addr];
                c.en = p.en == kNoNode ? kNoSlot : slotOf[p.en];
                c.mem = static_cast<uint32_t>(mi);
                c.depth = m.depth;
                syncReadCommits.push_back(c);
            }
        }
        for (const rtl::MemWritePort &p : m.writes) {
            MemWriteCommit c;
            c.addr = slotOf[p.addr];
            c.data = slotOf[p.data];
            c.en = p.en == kNoNode ? kNoSlot : slotOf[p.en];
            c.mem = static_cast<uint32_t>(mi);
            c.depth = m.depth;
            memWriteCommits.push_back(c);
        }
    }
    const uint32_t numUnits =
        numRegs + static_cast<uint32_t>(syncReadCommits.size());
    memSyncReadBegin.back() = numUnits;
    allUnits.resize(numUnits);
    for (uint32_t u = 0; u < numUnits; ++u)
        allUnits[u] = u;
    unitList.reserve(numUnits);
    unitPending.resize(numUnits);

    // Inverts an item -> slots relation into per-slot CSR form: the
    // items to mark when a slot's value changes.
    auto buildFanout = [&](uint32_t numItems, auto &&forEachSlot,
                           std::vector<uint32_t> &begin,
                           std::vector<uint32_t> &items) {
        begin.assign(evalPlan.numSlots + 1, 0);
        for (uint32_t i = 0; i < numItems; ++i)
            forEachSlot(i, [&](SlotId slot) { ++begin[slot + 1]; });
        for (size_t i = 1; i < begin.size(); ++i)
            begin[i] += begin[i - 1];
        items.assign(begin.back(), 0);
        std::vector<uint32_t> fill(begin.begin(), begin.end() - 1);
        for (uint32_t i = 0; i < numItems; ++i)
            forEachSlot(i, [&](SlotId slot) { items[fill[slot]++] = i; });
    };

    // The hot steps that must re-run when a slot changes. Async memory
    // reads are additionally grouped per memory (marked on writes).
    const auto &hot = evalPlan.hotProgram;
    buildFanout(
        static_cast<uint32_t>(hot.size()),
        [&](uint32_t i, auto &&fn) {
            const EvalStep &s = hot[i];
            if (s.op == Op::MemRead) {
                fn(s.b);
                return;
            }
            unsigned arity = rtl::opArity(s.op);
            if (arity >= 1)
                fn(s.a);
            if (arity >= 2)
                fn(s.b);
            if (arity >= 3)
                fn(s.c);
        },
        fanoutBegin, fanoutSteps);
    memReadSteps.assign(dsn.mems().size(), {});
    for (uint32_t i = 0; i < hot.size(); ++i)
        if (hot[i].op == Op::MemRead)
            memReadSteps[hot[i].a].push_back(i);

    // The commit units a slot triggers: a unit none of whose trigger
    // slots changed (nor, for a sync read, its memory) would latch the
    // value it already holds.
    buildFanout(
        numUnits,
        [&](uint32_t u, auto &&fn) {
            SlotId en = kNoSlot;
            if (u < numRegs) {
                const RegCommit &c = regCommits[u];
                fn(c.next);
                fn(c.dst);
                en = c.en;
            } else {
                const SyncReadCommit &c = syncReadCommits[u - numRegs];
                fn(c.addr);
                fn(c.data);
                en = c.en;
            }
            if (en != kNoSlot)
                fn(en);
        },
        commitFanoutBegin, commitFanout);
}

void
Simulator::attachCompiledModule()
{
    const bool parallel = requested == Backend::CompiledParallel;
    std::string tag = "sim_" + dsn.name();
    for (char &c : tag) {
        if (!(std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_'))
            c = '_';
    }
    std::string source;
    if (parallel) {
        partition = rtl::partitionEvalPlan(evalPlan, dsn.mems().size());
        // Mandatory static race gate: the partition must be *proven*
        // data-race-free before any code is generated from it. This
        // turns the properties TSan and the differential fuzz only
        // sample into a checked invariant of every construction.
        lint::Diagnostics proof =
            rtl::verifyPartition(evalPlan, partition, dsn.mems().size());
        if (proof.errorCount() != 0)
            panic("partition of '%s' failed static race validation:\n%s",
                  dsn.name().c_str(), proof.str().c_str());
        source = codegen::emitPartitionedSource(dsn, evalPlan, partition);
    } else {
        source = codegen::emitSimulatorSource(dsn, evalPlan);
    }
    auto result = codegen::compileSimulator(source, tag);
    if (!result.isOk()) {
        // Degradation mirrors what the compiled code would have done:
        // the plain module re-evaluates everything (-> full), the
        // partitioned one gates on activity (-> activity interpreter).
        warn("compiled backend unavailable for '%s' (%s); falling back "
             "to the %s interpreter",
             dsn.name().c_str(), result.status().toString().c_str(),
             parallel ? "activity" : "full");
        effective = parallel ? Backend::InterpretedActivity
                             : Backend::InterpretedFull;
        return;
    }
    module = std::move(result.value());
    if (module->numSlots() != evalPlan.numSlots ||
        module->numMems() != dsn.mems().size())
        panic("compiled module geometry mismatch for '%s' "
              "(slots %llu != %u or mems %llu != %zu)",
              dsn.name().c_str(), (unsigned long long)module->numSlots(),
              evalPlan.numSlots, (unsigned long long)module->numMems(),
              dsn.mems().size());
    if (parallel) {
        if (module->chunks().size() != partition.chunks.size())
            panic("partitioned module chunk mismatch for '%s' "
                  "(%zu != %zu)",
                  dsn.name().c_str(), module->chunks().size(),
                  partition.chunks.size());
        chunkDirty.assign(partition.dirtyWords(), 0);
    }
}

void
Simulator::reset()
{
    slots.assign(evalPlan.numSlots, 0);
    for (const auto &[slot, value] : evalPlan.slotInit)
        slots[slot] = value;
    for (const rtl::RegInfo &r : dsn.regs())
        slots[evalPlan.slotOf[r.node]] = r.init;

    mems.clear();
    mems.reserve(dsn.mems().size());
    for (const rtl::MemInfo &m : dsn.mems()) {
        mems.emplace_back(m.depth, 0);
        for (size_t i = 0; i < m.init.size(); ++i)
            mems.back()[i] = m.init[i];
    }
    memPtrs.clear();
    for (auto &contents : mems)
        memPtrs.push_back(contents.data());

    dirtyBits.assign((evalPlan.hotProgram.size() + 63) / 64, 0);
    minDirtyWord = static_cast<uint32_t>(dirtyBits.size());
    maxDirtyWord = 0;
    fullSweepPending = true;
    // The post-reset full sweep writes slots without marking them, so
    // the first commit after reset must visit every unit.
    commitDirty.assign((allUnits.size() + 63) / 64, 0);
    for (uint32_t u : allUnits)
        markCommitDirty(u);
    std::fill(chunkDirty.begin(), chunkDirty.end(), 0);

    cycleCount = 0;
    combStale = true;
    coldStale = true;
}

void
Simulator::markStepDirty(uint32_t stepIdx)
{
    uint32_t word = stepIdx >> 6;
    dirtyBits[word] |= 1ULL << (stepIdx & 63);
    minDirtyWord = std::min(minDirtyWord, word);
    maxDirtyWord = std::max(maxDirtyWord, word);
}

void
Simulator::markCommitDirty(uint32_t unit)
{
    commitDirty[unit >> 6] |= 1ULL << (unit & 63);
}

void
Simulator::markSlotChanged(SlotId slot)
{
    for (uint32_t i = fanoutBegin[slot]; i < fanoutBegin[slot + 1]; ++i)
        markStepDirty(fanoutSteps[i]);
    for (uint32_t i = commitFanoutBegin[slot];
         i < commitFanoutBegin[slot + 1]; ++i)
        markCommitDirty(commitFanout[i]);
}

void
Simulator::markMemChanged(size_t memIdx)
{
    for (uint32_t stepIdx : memReadSteps[memIdx])
        markStepDirty(stepIdx);
    for (uint32_t u = memSyncReadBegin[memIdx];
         u < memSyncReadBegin[memIdx + 1]; ++u)
        markCommitDirty(u);
}

void
Simulator::markSlotChunks(SlotId slot)
{
    for (uint32_t i = partition.slotChunksBegin[slot];
         i < partition.slotChunksBegin[slot + 1]; ++i) {
        uint32_t c = partition.slotChunks[i];
        chunkDirty[c >> 6] |= 1ULL << (c & 63);
    }
}

void
Simulator::markMemChunks(size_t memIdx)
{
    for (uint32_t c : partition.memChunks[memIdx])
        chunkDirty[c >> 6] |= 1ULL << (c & 63);
}

void
Simulator::updateSlot(SlotId slot, uint64_t value)
{
    if (effective == Backend::InterpretedActivity) {
        if (slots[slot] != value) {
            slots[slot] = value;
            markSlotChanged(slot);
        }
    } else if (effective == Backend::CompiledParallel) {
        if (slots[slot] != value) {
            slots[slot] = value;
            markSlotChunks(slot);
        }
    } else {
        slots[slot] = value;
    }
    combStale = true;
    coldStale = true;
}

void
Simulator::poke(NodeId input, uint64_t value)
{
    const rtl::Node &n = dsn.node(input);
    if (n.op != Op::Input)
        panic("poke target '%s' is not an input", n.name.c_str());
    updateSlot(evalPlan.slotOf[input], truncate(value, n.width));
}

void
Simulator::poke(const std::string &name, uint64_t value)
{
    NodeId id = dsn.findInput(name);
    if (id == kNoNode)
        fatal("no input named '%s'", name.c_str());
    poke(id, value);
}

uint64_t
Simulator::peek(NodeId node)
{
    if (combStale)
        evalComb();
    if (evalPlan.coldNode[node] != 0 && coldStale)
        evalCold();
    return slots[evalPlan.slotOf[node]];
}

uint64_t
Simulator::peek(const std::string &name)
{
    int idx = dsn.findOutput(name);
    if (idx < 0)
        fatal("no output named '%s'", name.c_str());
    return peek(dsn.outputs()[idx].node);
}

// Inlined into each sweep, so the op switch is a jump table inside the
// loop rather than an out-of-line call per evaluation.
__attribute__((always_inline)) inline uint64_t
Simulator::evalStep(const EvalStep &s) const
{
    const uint64_t *v = slots.data();
    if (s.op == Op::MemRead) {
        uint64_t addr = v[s.b];
        const auto &contents = mems[s.a];
        return addr < contents.size() ? contents[addr] : 0;
    }
    return rtl::evalOp(s.op, s.width, s.widthA, s.widthB, s.imm, v[s.a],
                       v[s.b], v[s.c]);
}

void
Simulator::evalCombFull()
{
    for (const EvalStep &s : evalPlan.hotProgram)
        slots[s.dst] = evalStep(s);
    evalCount += evalPlan.hotProgram.size();
    combStale = false;
}

void
Simulator::evalCombActivity()
{
    if (fullSweepPending) {
        // First sweep after reset: everything is potentially stale.
        evalCombFull();
        std::fill(dirtyBits.begin(), dirtyBits.end(), 0);
        minDirtyWord = static_cast<uint32_t>(dirtyBits.size());
        maxDirtyWord = 0;
        fullSweepPending = false;
        return;
    }

    // Drain the dirty bitmap in one ascending scan. The hot program is
    // topologically ordered, so a step marked while draining always
    // sits at a strictly higher index than the step that marked it —
    // either a higher bit of the current word (picked up because the
    // word is re-read every iteration) or a later word (maxWord is
    // re-read by the loop condition). So only the upper bound can move
    // during the drain. Ascending index order also keeps the
    // evaluation sequence a sub-sequence of the full sweep.
    const EvalStep *prog = evalPlan.hotProgram.data();
    uint64_t *v = slots.data();
    uint64_t *dirty = dirtyBits.data();
    uint64_t *unitDirty = commitDirty.data();
    const uint32_t *stepFanBegin = fanoutBegin.data();
    const uint32_t *stepFan = fanoutSteps.data();
    const uint32_t *unitFanBegin = commitFanoutBegin.data();
    const uint32_t *unitFan = commitFanout.data();
    const uint32_t numWords = static_cast<uint32_t>(dirtyBits.size());
    uint32_t maxWord = maxDirtyWord;
    uint64_t evaluated = 0;
    for (uint32_t w = minDirtyWord; w < numWords && w <= maxWord; ++w) {
        while (dirty[w] != 0) {
            uint32_t bit = static_cast<uint32_t>(__builtin_ctzll(dirty[w]));
            dirty[w] &= dirty[w] - 1;
            const EvalStep &s = prog[(w << 6) | bit];
            uint64_t r = evalStep(s);
            ++evaluated;
            if (v[s.dst] == r)
                continue;
            v[s.dst] = r;
            for (uint32_t i = stepFanBegin[s.dst];
                 i < stepFanBegin[s.dst + 1]; ++i) {
                uint32_t step = stepFan[i];
                dirty[step >> 6] |= 1ULL << (step & 63);
                maxWord = std::max(maxWord, step >> 6);
            }
            for (uint32_t i = unitFanBegin[s.dst];
                 i < unitFanBegin[s.dst + 1]; ++i) {
                uint32_t unit = unitFan[i];
                unitDirty[unit >> 6] |= 1ULL << (unit & 63);
            }
        }
    }
    minDirtyWord = numWords;
    maxDirtyWord = 0;
    evalCount += evaluated;
    skipCount += evalPlan.hotProgram.size() - evaluated;
    combStale = false;
}

void
Simulator::evalCombParallel()
{
    if (fullSweepPending) {
        // First sweep after reset: everything is potentially stale.
        // The module's strober_eval runs all chunks sequentially in
        // topological (level-major) order; afterwards nothing is stale,
        // so pending chunk marks are dropped, exactly like the
        // activity interpreter's post-reset sweep.
        module->eval()(slots.data(), memPtrs.data());
        std::fill(chunkDirty.begin(), chunkDirty.end(), 0);
        fullSweepPending = false;
        evalCount += evalPlan.hotProgram.size();
        combStale = false;
        return;
    }

    // Drain the chunk bitmap in one ascending scan, like
    // evalCombActivity. Chunk ids are level-major and every cross-chunk
    // edge targets a later level (rtl::verifyPartition proves it), so a
    // chunk only marks higher ids: a later bit of the current word,
    // picked up because the word is re-read, or a later word. A chunk
    // thus runs iff it is dirty once every earlier level has run.
    const auto &chunkFns = module->chunks();
    uint64_t *slotData = slots.data();
    uint64_t *const *memData = memPtrs.data();
    uint64_t *dirty = chunkDirty.data();
    const uint32_t numWords = static_cast<uint32_t>(chunkDirty.size());
    uint64_t executed = 0;
    for (uint32_t w = 0; w < numWords; ++w) {
        while (dirty[w] != 0) {
            uint32_t bit = static_cast<uint32_t>(__builtin_ctzll(dirty[w]));
            dirty[w] &= dirty[w] - 1;
            uint32_t c = (w << 6) | bit;
            chunkFns[c](slotData, memData, dirty);
            executed += partition.chunks[c].steps.size();
        }
    }
    evalCount += executed;
    skipCount += evalPlan.hotProgram.size() - executed;
    combStale = false;
}

void
Simulator::evalComb()
{
    switch (effective) {
      case Backend::InterpretedFull:
        evalCombFull();
        break;
      case Backend::InterpretedActivity:
        evalCombActivity();
        break;
      case Backend::Compiled:
        module->eval()(slots.data(), memPtrs.data());
        evalCount += evalPlan.hotProgram.size();
        combStale = false;
        break;
      case Backend::CompiledParallel:
        evalCombParallel();
        break;
    }
}

void
Simulator::evalCold()
{
    // Dead (optimized-away) nodes, refreshed only when observed. Not
    // counted in nodeEvals(): observation cost, not simulation cost.
    for (const EvalStep &s : evalPlan.coldProgram)
        slots[s.dst] = evalStep(s);
    coldStale = false;
}

void
Simulator::commitEdge()
{
    const size_t numUnits = allUnits.size();
    if (effective == Backend::Compiled) {
        module->commit()(slots.data(), memPtrs.data());
        commitCount += numUnits;
    } else if (effective == Backend::InterpretedActivity) {
        // Drain the candidates before committing: the marks this edge
        // makes belong to the next one.
        unitList.clear();
        for (size_t w = 0; w < commitDirty.size(); ++w) {
            uint64_t bits = commitDirty[w];
            commitDirty[w] = 0;
            while (bits != 0) {
                unitList.push_back(static_cast<uint32_t>(
                    (w << 6) | static_cast<unsigned>(__builtin_ctzll(bits))));
                bits &= bits - 1;
            }
        }
        commitUnits(unitList.data(), unitList.size());
        commitSkipCount += numUnits - unitList.size();
    } else {
        // Every unit. CompiledParallel commits here, not through the
        // module's strober_commit, because updateSlot's change
        // detection seeds its chunk dirty bitmap for the next sweep.
        // It cannot gate the edge: its chunk functions mark chunks,
        // not slots, so nothing feeds the commit bitmap.
        commitUnits(allUnits.data(), numUnits);
    }
    ++cycleCount;
    combStale = true;
    coldStale = true;
}

void
Simulator::commitUnits(const uint32_t *units, size_t n)
{
    // Next values first, all read before anything is written. Units
    // are ascending, so the registers lead and the sync reads follow.
    const uint32_t numRegs = static_cast<uint32_t>(regCommits.size());
    size_t firstRead = 0;
    for (; firstRead < n && units[firstRead] < numRegs; ++firstRead) {
        const RegCommit &c = regCommits[units[firstRead]];
        bool en = c.en == kNoSlot || (slots[c.en] & 1) != 0;
        unitPending[firstRead] = en ? slots[c.next] : slots[c.dst];
    }
    // Sync read ports latch old contents (read-before-write).
    for (size_t k = firstRead; k < n; ++k) {
        const SyncReadCommit &c = syncReadCommits[units[k] - numRegs];
        bool en = c.en == kNoSlot || (slots[c.en] & 1) != 0;
        if (en) {
            uint64_t addr = slots[c.addr];
            unitPending[k] = addr < c.depth ? mems[c.mem][addr] : 0;
        } else {
            unitPending[k] = slots[c.data];
        }
    }

    // Memory writes (last port wins on a collision).
    bool activity = effective == Backend::InterpretedActivity;
    bool chunked = effective == Backend::CompiledParallel;
    for (const MemWriteCommit &c : memWriteCommits) {
        bool en = c.en == kNoSlot || (slots[c.en] & 1) != 0;
        if (!en)
            continue;
        uint64_t addr = slots[c.addr];
        if (addr < c.depth && mems[c.mem][addr] != slots[c.data]) {
            mems[c.mem][addr] = slots[c.data];
            if (activity)
                markMemChanged(c.mem);
            else if (chunked)
                markMemChunks(c.mem);
        }
    }

    for (size_t k = 0; k < firstRead; ++k)
        updateSlot(regCommits[units[k]].dst, unitPending[k]);
    for (size_t k = firstRead; k < n; ++k)
        updateSlot(syncReadCommits[units[k] - numRegs].data,
                   unitPending[k]);
    commitCount += n;
}

void
Simulator::step(uint64_t n)
{
    for (uint64_t i = 0; i < n; ++i) {
        if (combStale)
            evalComb();
        commitEdge();
    }
}

uint64_t
Simulator::regValue(size_t regIdx) const
{
    if (regIdx >= dsn.regs().size())
        panic("regValue index %zu out of range (design has %zu registers)",
              regIdx, dsn.regs().size());
    return slots[evalPlan.slotOf[dsn.regs()[regIdx].node]];
}

void
Simulator::setRegValue(size_t regIdx, uint64_t value)
{
    if (regIdx >= dsn.regs().size())
        panic("setRegValue index %zu out of range (design has %zu "
              "registers)", regIdx, dsn.regs().size());
    const rtl::RegInfo &r = dsn.regs()[regIdx];
    updateSlot(evalPlan.slotOf[r.node],
               truncate(value, dsn.node(r.node).width));
}

uint64_t
Simulator::memWord(size_t memIdx, uint64_t addr) const
{
    if (memIdx >= mems.size())
        panic("memWord memory index %zu out of range (design has %zu "
              "memories)", memIdx, mems.size());
    const auto &contents = mems[memIdx];
    if (addr >= contents.size())
        panic("memWord address %llu out of range", (unsigned long long)addr);
    return contents[addr];
}

void
Simulator::setMemWord(size_t memIdx, uint64_t addr, uint64_t value)
{
    if (memIdx >= mems.size())
        panic("setMemWord memory index %zu out of range (design has %zu "
              "memories)", memIdx, mems.size());
    auto &contents = mems[memIdx];
    if (addr >= contents.size())
        panic("setMemWord address %llu out of range",
              (unsigned long long)addr);
    uint64_t nv = truncate(value, dsn.mems()[memIdx].width);
    if (contents[addr] != nv) {
        contents[addr] = nv;
        if (effective == Backend::InterpretedActivity)
            markMemChanged(memIdx);
        else if (effective == Backend::CompiledParallel)
            markMemChunks(memIdx);
    }
    combStale = true;
    coldStale = true;
}

uint64_t
Simulator::syncReadData(size_t memIdx, size_t port) const
{
    if (memIdx >= dsn.mems().size() ||
        port >= dsn.mems()[memIdx].reads.size())
        panic("syncReadData mem %zu port %zu out of range", memIdx, port);
    return slots[evalPlan.slotOf[dsn.mems()[memIdx].reads[port].data]];
}

void
Simulator::setSyncReadData(size_t memIdx, size_t port, uint64_t value)
{
    if (memIdx >= dsn.mems().size() ||
        port >= dsn.mems()[memIdx].reads.size())
        panic("setSyncReadData mem %zu port %zu out of range", memIdx,
              port);
    const rtl::MemInfo &m = dsn.mems()[memIdx];
    updateSlot(evalPlan.slotOf[m.reads[port].data], truncate(value, m.width));
}

void
Simulator::loadMem(size_t memIdx, uint64_t base,
                   const std::vector<uint64_t> &words)
{
    if (memIdx >= mems.size())
        panic("loadMem memory index %zu out of range (design has %zu "
              "memories)", memIdx, mems.size());
    // Guard the addition against wrap-around before the range check.
    if (base > mems[memIdx].size() ||
        words.size() > mems[memIdx].size() - base)
        fatal("loadMem overflows memory '%s'",
              dsn.mems()[memIdx].name.c_str());
    bool changed = false;
    for (size_t i = 0; i < words.size(); ++i) {
        uint64_t nv = truncate(words[i], dsn.mems()[memIdx].width);
        if (mems[memIdx][base + i] != nv) {
            mems[memIdx][base + i] = nv;
            changed = true;
        }
    }
    if (changed && effective == Backend::InterpretedActivity)
        markMemChanged(memIdx);
    else if (changed && effective == Backend::CompiledParallel)
        markMemChunks(memIdx);
    combStale = true;
    coldStale = true;
}

} // namespace sim
} // namespace strober
