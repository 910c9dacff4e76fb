#include "rtl/opt.h"

#include <algorithm>
#include <array>
#include <map>

#include "rtl/analysis.h"
#include "rtl/dataflow.h"
#include "rtl/eval.h"
#include "util/logging.h"

namespace strober {
namespace rtl {

namespace {

/** How one argument enters the optimized graph. */
struct ArgRef
{
    bool isConst = false;
    uint64_t value = 0;    //!< constant value when isConst
    NodeId rep = kNoNode;  //!< representative node when !isConst
    uint8_t width = 0;     //!< the consumer's view: original arg width
};

/**
 * Structural identity of a comb op for CSE. Two nodes with equal keys
 * compute equal values in every reachable state, because operands are
 * compared by representative (equal by induction) or by constant
 * value, and the op/width/imm fields pin down the function applied.
 */
using CseKey = std::array<uint64_t, 8>;

CseKey
makeKey(Op op, unsigned width, const ArgRef *args, unsigned arity,
        uint64_t imm)
{
    CseKey k{};
    k[0] = (static_cast<uint64_t>(op) << 32) |
           (static_cast<uint64_t>(width) << 16);
    k[1] = imm;
    for (unsigned i = 0; i < arity; ++i) {
        k[2 + 2 * i] = (args[i].isConst ? (1ULL << 32) : 0) |
                       (static_cast<uint64_t>(args[i].width) << 40) |
                       (args[i].isConst ? 0 : args[i].rep);
        k[3 + 2 * i] = args[i].isConst ? args[i].value : 0;
    }
    return k;
}

bool
isCommutative(Op op)
{
    switch (op) {
      case Op::Add:
      case Op::Mul:
      case Op::And:
      case Op::Or:
      case Op::Xor:
      case Op::Eq:
      case Op::Ne:
        return true;
      default:
        return false;
    }
}

bool
argLess(const ArgRef &x, const ArgRef &y)
{
    if (x.isConst != y.isConst)
        return x.isConst < y.isConst;
    if (x.isConst)
        return x.value < y.value;
    return x.rep < y.rep;
}

} // namespace

EvalPlan
buildEvalPlan(const Design &d, const EvalPlanOptions &options)
{
    CombSchedule sched = rtl::analyzeComb(d);
    const size_t numNodes = d.numNodes();

    // Arbitrary-state-sound facts (registers/inputs/memory reads are
    // top): every proof below survives setRegValue, scan-chain restore
    // and fault injection, which is what keeps peek() bit-identical to
    // the unoptimized sweep in *any* state, not just reachable ones.
    DataflowResult df;
    if (options.dataflow) {
        DataflowOptions dfOpt;
        dfOpt.assumeReset = false;
        df = analyzeDataflow(d, dfOpt);
    }
    const bool useDf = options.dataflow && df.facts.size() == numNodes;

    // --- Pass 1: classify every node in topological order -------------
    // rep[n] == n      : n carries its own value (leaf or scheduled op)
    // rep[n] == m != n : n is an alias of m (CSE hit or passthrough)
    // folded[n]        : n is a compile-time constant constVal[n]
    std::vector<NodeId> rep(numNodes, kNoNode);
    std::vector<uint8_t> folded(numNodes, 0);
    std::vector<uint8_t> dfConst(numNodes, 0);
    std::vector<uint8_t> scheduled(numNodes, 0);
    std::vector<uint64_t> constVal(numNodes, 0);
    std::map<CseKey, NodeId> cse;
    EvalPlanStats stats;

    auto resolveArg = [&](NodeId arg) {
        ArgRef r;
        r.width = static_cast<uint8_t>(d.node(arg).width);
        if (folded[arg]) {
            r.isConst = true;
            r.value = constVal[arg];
        } else {
            r.rep = rep[arg];
        }
        return r;
    };
    auto aliasTo = [&](NodeId id, const ArgRef &src) {
        if (src.isConst) {
            folded[id] = 1;
            constVal[id] = src.value;
            rep[id] = id;
            ++stats.folded;
        } else {
            rep[id] = src.rep;
            ++stats.aliased;
        }
    };

    for (NodeId id : sched.order) {
        const Node &n = d.node(id);
        switch (n.op) {
          case Op::Input:
          case Op::Reg:
            rep[id] = id;
            continue;
          case Op::Const:
            folded[id] = 1;
            constVal[id] = truncate(n.imm, n.width);
            rep[id] = id;
            continue;
          case Op::MemRead: {
            // Sync read data is state (a leaf); async reads are
            // scheduled as-is — memory contents are not constants.
            rep[id] = id;
            uint32_t memIdx = n.aux >> 16;
            if (!d.mems()[memIdx].syncRead)
                scheduled[id] = 1;
            continue;
          }
          default:
            break;
        }

        unsigned arity = opArity(n.op);
        ArgRef args[3];
        bool allConst = true;
        for (unsigned i = 0; i < arity; ++i) {
            args[i] = resolveArg(n.args[i]);
            allConst = allConst && args[i].isConst;
        }

        // Constant folding (evalOp == interpreter semantics, always).
        if (allConst) {
            folded[id] = 1;
            constVal[id] =
                evalOp(n.op, n.width, args[0].width, args[1].width, n.imm,
                       args[0].value, args[1].value, args[2].value);
            rep[id] = id;
            ++stats.folded;
            continue;
        }

        // Dataflow-provable constants: the facts pin a single value
        // even though not every operand folded structurally (e.g. a
        // comparison whose operands' known bits conflict).
        if (useDf && df.facts[id].isConst()) {
            folded[id] = 1;
            dfConst[id] = 1;
            constVal[id] = df.facts[id].constVal();
            rep[id] = id;
            ++stats.folded;
            ++stats.dfFolded;
            continue;
        }

        // Value-passthrough identities: the node's value equals one
        // operand's value bit-for-bit, so it needs no slot of its own.
        // (Pad zero-extends an already-masked value: a no-op. SExt and
        // Bits are no-ops only at matching widths. A Mux whose
        // selector folded is exactly one of its arms.)
        if (n.op == Op::Pad ||
            (n.op == Op::SExt && n.width == args[0].width) ||
            (n.op == Op::Bits && n.bitsLo() == 0 &&
             n.bitsHi() + 1 == args[0].width)) {
            aliasTo(id, args[0]);
            continue;
        }
        if (n.op == Op::Mux && args[0].isConst) {
            // Mux selectors are contractually 1 bit, so a dataflow
            // fact that decides sel's low bit is always a *constant*
            // fact — the selector node folds above and the arm is
            // pruned here. Attribute the prune to dataflow when the
            // selector's constness was a dataflow proof rather than a
            // structural one.
            if (useDf && dfConst[n.args[0]])
                ++stats.dfMuxPruned;
            aliasTo(id, args[0].value & 1 ? args[1] : args[2]);
            continue;
        }

        // Dataflow-proven identity/absorption aliases: the node's
        // value equals one operand's bit-for-bit in every masked state
        // (the facts are arbitrary-state-sound), so sharing the
        // operand's slot keeps peek() exact. Aliasing across widths is
        // safe: consumers record the *original* operand width
        // (EvalStep::widthA), and the facts prove the values equal.
        if (useDf) {
            const ValueFact &fa = df.facts[n.args[0]];
            int same = -1;
            uint64_t m = bitMask(n.width);
            switch (n.op) {
              case Op::SExt:
                // Sign bit provably 0: behaves as Pad, i.e. the value.
                if (n.width > args[0].width && args[0].width >= 1 &&
                    bit(fa.zeros, args[0].width - 1) != 0)
                    same = 0;
                break;
              case Op::Bits:
                // Only provably-zero high bits dropped, none below.
                if (n.bitsLo() == 0 &&
                    (fa.maxPossible() & ~bitMask(n.bitsHi() + 1)) == 0)
                    same = 0;
                break;
              case Op::And: {
                const ValueFact &fb = df.facts[n.args[1]];
                if ((fa.maxPossible() & ~fb.ones & m) == 0)
                    same = 0; // b known 1 wherever a can be 1
                else if ((fb.maxPossible() & ~fa.ones & m) == 0)
                    same = 1;
                break;
              }
              case Op::Or: {
                const ValueFact &fb = df.facts[n.args[1]];
                if ((fb.maxPossible() & ~fa.ones & m) == 0)
                    same = 0; // b can only set bits a already has
                else if ((fa.maxPossible() & ~fb.ones & m) == 0)
                    same = 1;
                break;
              }
              case Op::Xor:
              case Op::Add: {
                const ValueFact &fb = df.facts[n.args[1]];
                if (fb.isConst() && fb.constVal() == 0)
                    same = 0;
                else if (fa.isConst() && fa.constVal() == 0)
                    same = 1;
                break;
              }
              case Op::Sub:
              case Op::Shl:
              case Op::Shru: {
                const ValueFact &fb = df.facts[n.args[1]];
                if (fb.isConst() && fb.constVal() == 0)
                    same = 0;
                break;
              }
              case Op::Sra: {
                const ValueFact &fb = df.facts[n.args[1]];
                if (fb.isConst() && fb.constVal() == 0 &&
                    args[0].width == n.width)
                    same = 0;
                break;
              }
              case Op::Divu: {
                const ValueFact &fb = df.facts[n.args[1]];
                if (fb.isConst() && fb.constVal() == 1)
                    same = 0;
                break;
              }
              case Op::Remu: {
                const ValueFact &fb = df.facts[n.args[1]];
                if (fb.isConst() && fb.constVal() == 0)
                    same = 0; // x % 0 == x by evalOp's convention
                break;
              }
              case Op::Mul: {
                const ValueFact &fb = df.facts[n.args[1]];
                if (fb.isConst() && fb.constVal() == 1)
                    same = 0; // full product of x and 1 is x, widened
                else if (fa.isConst() && fa.constVal() == 1)
                    same = 1;
                break;
              }
              default:
                break;
            }
            if (same >= 0) {
                ++stats.dfAliased;
                aliasTo(id, args[same]);
                continue;
            }
        }

        // CSE with canonical operand order for commutative ops.
        ArgRef keyArgs[3] = {args[0], args[1], args[2]};
        if (arity == 2 && isCommutative(n.op) &&
            argLess(keyArgs[1], keyArgs[0]))
            std::swap(keyArgs[0], keyArgs[1]);
        CseKey key = makeKey(n.op, n.width, keyArgs, arity, n.imm);
        auto [it, inserted] = cse.emplace(key, id);
        if (inserted) {
            rep[id] = id;
            scheduled[id] = 1;
        } else {
            rep[id] = it->second;
            ++stats.aliased;
        }
    }

    // --- Pass 2: liveness over the representative graph ---------------
    // Roots are everything the per-cycle machinery reads: output ports,
    // register next/enable, memory-port operands consumed at the clock
    // edge, and retime-region signals (captured every sampled cycle).
    std::vector<uint8_t> live(numNodes, 0);
    std::vector<NodeId> work;
    auto markLive = [&](NodeId id) {
        if (id == kNoNode || folded[id])
            return;
        NodeId r = rep[id];
        if (live[r])
            return;
        live[r] = 1;
        work.push_back(r);
    };
    for (const OutputPort &o : d.outputs())
        markLive(o.node);
    for (const RegInfo &r : d.regs()) {
        markLive(r.next);
        markLive(r.en);
    }
    for (const MemInfo &m : d.mems()) {
        for (const MemWritePort &p : m.writes) {
            markLive(p.addr);
            markLive(p.data);
            markLive(p.en);
        }
        if (m.syncRead) {
            for (const MemReadPort &p : m.reads) {
                markLive(p.addr);
                markLive(p.en);
            }
        }
    }
    for (const RetimeRegion &r : d.retimeRegions()) {
        for (NodeId in : r.inputs)
            markLive(in);
        markLive(r.output);
    }
    while (!work.empty()) {
        NodeId r = work.back();
        work.pop_back();
        if (scheduled[r])
            forEachCombDep(d, r, markLive);
    }

    // --- Pass 3: dense slot assignment ---------------------------------
    // Leaves, then the hot schedule in evaluation order, then constants,
    // then cold nodes: the per-cycle working set is one contiguous
    // prefix of the array.
    EvalPlan plan;
    plan.slotOf.assign(numNodes, kNoSlot);
    plan.coldNode.assign(numNodes, 0);
    std::vector<SlotId> slotOfRep(numNodes, kNoSlot);
    SlotId next = 0;
    for (NodeId id : sched.order) {
        if (rep[id] == id && !folded[id] && !scheduled[id])
            slotOfRep[id] = next++; // leaf
    }
    for (NodeId id : sched.order) {
        if (rep[id] == id && scheduled[id] && live[id])
            slotOfRep[id] = next++; // hot
    }
    std::map<uint64_t, SlotId> constSlot;
    for (NodeId id : sched.order) {
        if (!folded[id])
            continue;
        auto [it, inserted] = constSlot.emplace(constVal[id], next);
        if (inserted) {
            plan.slotInit.emplace_back(next, constVal[id]);
            ++next;
        }
        plan.slotOf[id] = it->second;
    }
    stats.constSlots = static_cast<uint32_t>(constSlot.size());
    for (NodeId id : sched.order) {
        if (rep[id] == id && scheduled[id] && !live[id]) {
            slotOfRep[id] = next++; // cold
            ++stats.cold;
        }
    }
    plan.numSlots = next;
    for (NodeId id = 0; id < numNodes; ++id) {
        if (folded[id])
            continue; // const slot already assigned
        plan.slotOf[id] = slotOfRep[rep[id]];
        plan.coldNode[id] = scheduled[rep[id]] && !live[rep[id]];
    }

    // --- Pass 4: emit the hot and cold programs ------------------------
    auto slotOfArg = [&](NodeId arg) { return plan.slotOf[arg]; };
    for (NodeId id : sched.order) {
        if (rep[id] != id || !scheduled[id])
            continue;
        const Node &n = d.node(id);
        EvalStep s;
        s.op = n.op;
        s.width = n.width;
        s.imm = n.imm;
        s.dst = slotOfRep[id];
        if (n.op == Op::MemRead) {
            uint32_t memIdx = n.aux >> 16;
            uint32_t portIdx = n.aux & 0xffff;
            s.a = memIdx;
            s.b = slotOfArg(d.mems()[memIdx].reads[portIdx].addr);
        } else {
            unsigned arity = opArity(n.op);
            if (arity >= 1) {
                s.a = slotOfArg(n.args[0]);
                s.widthA = static_cast<uint8_t>(d.node(n.args[0]).width);
            }
            if (arity >= 2) {
                s.b = slotOfArg(n.args[1]);
                s.widthB = static_cast<uint8_t>(d.node(n.args[1]).width);
            }
            if (arity >= 3)
                s.c = slotOfArg(n.args[2]);
        }
        (live[id] ? plan.hotProgram : plan.coldProgram).push_back(s);
    }
    stats.hot = static_cast<uint32_t>(plan.hotProgram.size());
    plan.stats = stats;
    return plan;
}

namespace {

/** Visit the operand slots of one hot step (MemRead reads only the
 *  address slot; its memory dependence is tracked via memChunks). */
template <typename Fn>
void
forEachStepOperand(const EvalStep &s, Fn &&fn)
{
    if (s.op == Op::MemRead) {
        fn(s.b);
        return;
    }
    unsigned arity = opArity(s.op);
    if (arity >= 1)
        fn(s.a);
    if (arity >= 2)
        fn(s.b);
    if (arity >= 3)
        fn(s.c);
}

constexpr uint32_t kNoStep = UINT32_MAX;

/** Union-find root with path halving. */
uint32_t
findRoot(std::vector<uint32_t> &parent, uint32_t x)
{
    while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    return x;
}

} // namespace

EvalPartition
partitionEvalPlan(const EvalPlan &plan, size_t numMems, uint32_t clusters,
                  uint32_t minLevelSteps)
{
    if (clusters == 0)
        clusters = 1;
    if (minLevelSteps == 0)
        minLevelSteps = 1;
    const auto &hot = plan.hotProgram;
    const uint32_t numSteps = static_cast<uint32_t>(hot.size());

    EvalPartition part;
    part.clusters = clusters;
    part.stepChunk.assign(numSteps, 0);
    part.memChunks.assign(numMems, {});
    if (numSteps == 0) {
        part.levelBegin = {0};
        part.slotChunksBegin.assign(plan.numSlots + 1, 0);
        return part;
    }

    // Producing hot step of every slot (kNoStep: leaf/constant slot).
    std::vector<uint32_t> producer(plan.numSlots, kNoStep);
    for (uint32_t i = 0; i < numSteps; ++i)
        producer[hot[i].dst] = i;

    // Topological rank of every step: 1 + max over hot producers. The
    // hot program is topologically ordered, so producers of step i sit
    // at indices < i and their ranks are already final.
    std::vector<uint32_t> rank(numSteps, 0);
    uint32_t maxRank = 0;
    for (uint32_t i = 0; i < numSteps; ++i) {
        uint32_t r = 0;
        forEachStepOperand(hot[i], [&](SlotId slot) {
            uint32_t p = producer[slot];
            if (p != kNoStep && rank[p] + 1 > r)
                r = rank[p] + 1;
        });
        rank[i] = r;
        maxRank = std::max(maxRank, r);
    }

    // Merge consecutive ranks into levels of at least minLevelSteps
    // steps, bounding the number of levels.
    std::vector<uint32_t> rankCount(maxRank + 1, 0);
    for (uint32_t i = 0; i < numSteps; ++i)
        ++rankCount[rank[i]];
    std::vector<uint32_t> rankLevel(maxRank + 1, 0);
    uint32_t numLevels = 0;
    uint32_t acc = 0;
    for (uint32_t r = 0; r <= maxRank; ++r) {
        rankLevel[r] = numLevels;
        acc += rankCount[r];
        if (acc >= minLevelSteps) {
            ++numLevels;
            acc = 0;
        }
    }
    if (acc > 0 || numLevels == 0)
        ++numLevels; // trailing partial level
    std::vector<uint32_t> stepLevel(numSteps);
    for (uint32_t i = 0; i < numSteps; ++i)
        stepLevel[i] = rankLevel[rank[i]];

    // Within one level, steps connected by a dependency must share a
    // cluster (the chunks of one level assume no order among them).
    // Union-find over intra-level edges yields the components.
    std::vector<uint32_t> parent(numSteps);
    for (uint32_t i = 0; i < numSteps; ++i)
        parent[i] = i;
    for (uint32_t i = 0; i < numSteps; ++i) {
        forEachStepOperand(hot[i], [&](SlotId slot) {
            uint32_t p = producer[slot];
            if (p != kNoStep && stepLevel[p] == stepLevel[i]) {
                uint32_t ra = findRoot(parent, i);
                uint32_t rb = findRoot(parent, p);
                if (ra != rb)
                    parent[std::max(ra, rb)] = std::min(ra, rb);
            }
        });
    }

    // Per level: gather components, then bin-pack them into at most
    // `clusters` balanced chunks (largest component first into the
    // lightest bin; ties break on lowest bin id — fully deterministic).
    std::vector<std::vector<uint32_t>> levelSteps(numLevels);
    for (uint32_t i = 0; i < numSteps; ++i)
        levelSteps[stepLevel[i]].push_back(i); // ascending per level
    part.levelBegin.assign(numLevels + 1, 0);
    for (uint32_t lvl = 0; lvl < numLevels; ++lvl) {
        part.levelBegin[lvl] = static_cast<uint32_t>(part.chunks.size());
        if (levelSteps[lvl].empty())
            continue;
        // Components of this level, keyed by union-find root.
        std::map<uint32_t, std::vector<uint32_t>> byRoot;
        for (uint32_t i : levelSteps[lvl])
            byRoot[findRoot(parent, i)].push_back(i);
        struct Comp
        {
            uint32_t size;
            uint32_t minStep;
            const std::vector<uint32_t> *steps;
        };
        std::vector<Comp> comps;
        comps.reserve(byRoot.size());
        for (const auto &[root, steps] : byRoot)
            comps.push_back({static_cast<uint32_t>(steps.size()),
                             steps.front(), &steps});
        std::sort(comps.begin(), comps.end(),
                  [](const Comp &a, const Comp &b) {
                      if (a.size != b.size)
                          return a.size > b.size;
                      return a.minStep < b.minStep;
                  });
        uint32_t bins =
            std::min<uint32_t>(clusters,
                               static_cast<uint32_t>(comps.size()));
        std::vector<std::vector<uint32_t>> binSteps(bins);
        std::vector<uint64_t> binLoad(bins, 0);
        for (const Comp &c : comps) {
            uint32_t lightest = 0;
            for (uint32_t b = 1; b < bins; ++b)
                if (binLoad[b] < binLoad[lightest])
                    lightest = b;
            binLoad[lightest] += c.size;
            binSteps[lightest].insert(binSteps[lightest].end(),
                                      c.steps->begin(), c.steps->end());
        }
        for (uint32_t b = 0; b < bins; ++b) {
            if (binSteps[b].empty())
                continue;
            std::sort(binSteps[b].begin(), binSteps[b].end());
            uint32_t id = static_cast<uint32_t>(part.chunks.size());
            EvalChunk chunk;
            chunk.level = lvl;
            chunk.steps = std::move(binSteps[b]);
            for (uint32_t i : chunk.steps)
                part.stepChunk[i] = id;
            part.chunks.push_back(std::move(chunk));
        }
    }
    part.levelBegin[numLevels] = static_cast<uint32_t>(part.chunks.size());

    // Slot -> consumer chunks (deduplicated, ascending), excluding the
    // producing chunk: in-chunk edges are handled by the chunk's own
    // ascending execution order, and marking the producer would only
    // schedule a no-op re-evaluation next sweep.
    std::vector<std::vector<uint32_t>> consumers(plan.numSlots);
    for (uint32_t i = 0; i < numSteps; ++i) {
        uint32_t chunk = part.stepChunk[i];
        forEachStepOperand(hot[i], [&](SlotId slot) {
            uint32_t p = producer[slot];
            if (p != kNoStep && part.stepChunk[p] == chunk)
                return; // in-chunk edge
            consumers[slot].push_back(chunk);
        });
        if (hot[i].op == Op::MemRead)
            part.memChunks[hot[i].a].push_back(chunk);
    }
    auto sortUnique = [](std::vector<uint32_t> &v) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
    };
    for (auto &list : consumers)
        sortUnique(list);
    for (auto &list : part.memChunks)
        sortUnique(list);
    part.slotChunksBegin.assign(plan.numSlots + 1, 0);
    for (SlotId s = 0; s < plan.numSlots; ++s)
        part.slotChunksBegin[s + 1] =
            part.slotChunksBegin[s] +
            static_cast<uint32_t>(consumers[s].size());
    part.slotChunks.reserve(part.slotChunksBegin.back());
    for (SlotId s = 0; s < plan.numSlots; ++s)
        part.slotChunks.insert(part.slotChunks.end(), consumers[s].begin(),
                               consumers[s].end());
    return part;
}

lint::Diagnostics
verifyPartition(const EvalPlan &plan, const EvalPartition &part,
                size_t numMems)
{
    lint::Diagnostics out;
    const auto &hot = plan.hotProgram;
    const uint32_t numSteps = static_cast<uint32_t>(hot.size());
    const uint32_t numChunks = static_cast<uint32_t>(part.chunks.size());

    auto geometry = [&](const std::string &msg) {
        out.error("partition-geometry", kNoNode, "partition", msg);
    };

    // --- Geometry: everything below indexes through these tables, so
    // any inconsistency here aborts the remaining checks.
    bool shapeOk = true;
    if (part.stepChunk.size() != numSteps) {
        geometry(strfmt("stepChunk has %zu entries for %u hot steps",
                        part.stepChunk.size(), numSteps));
        shapeOk = false;
    }
    if (part.slotChunksBegin.size() !=
        static_cast<size_t>(plan.numSlots) + 1) {
        geometry(strfmt("slotChunksBegin has %zu entries for %u slots",
                        part.slotChunksBegin.size(), plan.numSlots));
        shapeOk = false;
    } else {
        for (size_t s = 0; s + 1 < part.slotChunksBegin.size(); ++s) {
            if (part.slotChunksBegin[s] > part.slotChunksBegin[s + 1]) {
                geometry(strfmt("slotChunksBegin decreases at slot %zu",
                                s));
                shapeOk = false;
                break;
            }
        }
        if (shapeOk &&
            part.slotChunksBegin.back() != part.slotChunks.size()) {
            geometry("slotChunksBegin does not span slotChunks");
            shapeOk = false;
        }
    }
    if (part.memChunks.size() != numMems) {
        geometry(strfmt("memChunks has %zu entries for %zu memories",
                        part.memChunks.size(), numMems));
        shapeOk = false;
    }
    if (part.levelBegin.empty() || part.levelBegin.front() != 0 ||
        part.levelBegin.back() != numChunks) {
        geometry("levelBegin does not tile the chunk list");
        shapeOk = false;
    } else {
        for (size_t l = 0; l + 1 < part.levelBegin.size(); ++l) {
            if (part.levelBegin[l] > part.levelBegin[l + 1]) {
                geometry(strfmt("levelBegin decreases at level %zu", l));
                shapeOk = false;
            }
        }
    }
    auto chunkIdsOk = [&](const std::vector<uint32_t> &v) {
        return std::all_of(v.begin(), v.end(),
                           [&](uint32_t c) { return c < numChunks; });
    };
    if (!chunkIdsOk(part.stepChunk) || !chunkIdsOk(part.slotChunks) ||
        !std::all_of(part.memChunks.begin(), part.memChunks.end(),
                     chunkIdsOk)) {
        geometry("chunk id out of range");
        shapeOk = false;
    }
    if (!shapeOk)
        return out;
    for (uint32_t l = 0; l < part.numLevels(); ++l) {
        for (uint32_t c = part.levelBegin[l]; c < part.levelBegin[l + 1];
             ++c) {
            if (part.chunks[c].level != l) {
                geometry(strfmt("chunk %u has level %u but sits in "
                                "levelBegin range %u",
                                c, part.chunks[c].level, l));
            }
        }
    }

    // --- Coverage: every hot step in exactly one chunk, chunk lists
    // ascending and consistent with stepChunk, no empty chunk.
    std::vector<uint32_t> seen(numSteps, 0);
    for (uint32_t c = 0; c < numChunks; ++c) {
        const EvalChunk &chunk = part.chunks[c];
        if (chunk.steps.empty()) {
            out.error("partition-coverage", kNoNode, "partition",
                      strfmt("chunk %u is empty", c));
            continue;
        }
        uint32_t prev = 0;
        bool first = true;
        for (uint32_t i : chunk.steps) {
            if (i >= numSteps) {
                out.error("partition-coverage", kNoNode, "partition",
                          strfmt("chunk %u lists step %u of %u", c, i,
                                 numSteps));
                continue;
            }
            if (!first && i <= prev) {
                out.error("partition-coverage", kNoNode, "partition",
                          strfmt("chunk %u steps not ascending at %u", c,
                                 i));
            }
            first = false;
            prev = i;
            ++seen[i];
            if (part.stepChunk[i] != c) {
                out.error("partition-coverage", kNoNode, "partition",
                          strfmt("step %u listed in chunk %u but "
                                 "stepChunk says %u",
                                 i, c, part.stepChunk[i]));
            }
        }
    }
    for (uint32_t i = 0; i < numSteps; ++i) {
        if (seen[i] != 1) {
            out.error("partition-coverage", kNoNode, "partition",
                      strfmt("hot step %u appears in %u chunks", i,
                             seen[i]));
        }
    }

    // Producing hot step of each slot, and the CSR membership test the
    // closure check needs (lists are sorted by construction; a mutated
    // unsorted list still answers correctly via linear fallback).
    std::vector<uint32_t> producer(plan.numSlots, kNoStep);
    for (uint32_t i = 0; i < numSteps; ++i) {
        if (hot[i].dst < plan.numSlots)
            producer[hot[i].dst] = i;
        else
            geometry(strfmt("step %u writes slot %u of %u", i,
                            hot[i].dst, plan.numSlots));
    }
    auto csrHas = [&](SlotId slot, uint32_t chunk) {
        auto begin = part.slotChunks.begin() + part.slotChunksBegin[slot];
        auto end =
            part.slotChunks.begin() + part.slotChunksBegin[slot + 1];
        return std::find(begin, end, chunk) != end;
    };

    // --- Same-level races, dirty closure --------------------------------
    for (uint32_t i = 0; i < numSteps; ++i) {
        uint32_t myChunk = part.stepChunk[i];
        forEachStepOperand(hot[i], [&](SlotId slot) {
            if (slot >= plan.numSlots) {
                geometry(strfmt("step %u reads slot %u of %u", i, slot,
                                plan.numSlots));
                return;
            }
            uint32_t p = producer[slot];
            if (p != kNoStep) {
                uint32_t pChunk = part.stepChunk[p];
                if (pChunk != myChunk &&
                    part.chunks[pChunk].level >=
                        part.chunks[myChunk].level) {
                    out.error(
                        "partition-level-race", kNoNode, "partition",
                        strfmt("step %u (chunk %u, level %u) reads slot "
                               "%u produced by step %u (chunk %u) at "
                               "level %u, not an earlier one",
                               i, myChunk, part.chunks[myChunk].level,
                               slot, p, pChunk,
                               part.chunks[pChunk].level));
                }
                if (pChunk == myChunk)
                    return; // in-chunk edge: no dirty propagation needed
            }
            if (!csrHas(slot, myChunk)) {
                out.error("partition-dirty-closure", kNoNode, "partition",
                          strfmt("chunk %u consumes slot %u but is "
                                 "missing from its consumer list",
                                 myChunk, slot));
            }
        });
        if (hot[i].op == Op::MemRead) {
            uint32_t mem = hot[i].a;
            if (mem >= numMems) {
                geometry(strfmt("step %u reads memory %u of %zu", i, mem,
                                numMems));
            } else if (std::find(part.memChunks[mem].begin(),
                                 part.memChunks[mem].end(),
                                 myChunk) == part.memChunks[mem].end()) {
                out.error("partition-dirty-closure", kNoNode, "partition",
                          strfmt("chunk %u has an async read of memory "
                                 "%u but is missing from memChunks",
                                 myChunk, mem));
            }
        }
    }

    // --- Double writers: two chunks of one level storing to one slot.
    {
        std::vector<uint32_t> writer(plan.numSlots, kNoStep);
        for (uint32_t i = 0; i < numSteps; ++i) {
            uint32_t slot = hot[i].dst;
            if (slot >= plan.numSlots)
                continue; // reported above
            uint32_t prev = writer[slot];
            if (prev != kNoStep) {
                uint32_t pc = part.stepChunk[prev];
                uint32_t mc = part.stepChunk[i];
                if (pc != mc &&
                    part.chunks[pc].level == part.chunks[mc].level) {
                    out.error(
                        "partition-double-writer", kNoNode, "partition",
                        strfmt("steps %u (chunk %u) and %u (chunk %u) "
                               "both write slot %u in level %u",
                               prev, pc, i, mc, slot,
                               part.chunks[mc].level));
                }
            }
            writer[slot] = i;
        }
    }
    return out;
}

} // namespace rtl
} // namespace strober
