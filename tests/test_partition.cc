/**
 * @file
 * Unit tests for the EvalPlan partitioner (rtl::partitionEvalPlan) —
 * the structural guarantees the compiled-parallel backend's
 * correctness argument rests on:
 *   - every hot step is assigned to exactly one chunk, chunks are
 *     level-major and their step lists ascending;
 *   - every cross-chunk data dependency points to a later level (so
 *     running the dirty chunks in ascending id order is exact);
 *   - the dirty-propagation tables are closed: every cross-chunk
 *     consumer of a slot (and every chunk async-reading a memory) is
 *     listed, so a changed value can never fail to re-evaluate its
 *     consumers;
 *   - per-level chunk sizes respect the greedy balance bound;
 *   - the partition is a deterministic pure function of its inputs.
 */

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "cores/soc.h"
#include "rtl/ir.h"
#include "rtl/opt.h"

#include "fuzz_designs.h"

namespace strober {
namespace {

using rtl::Design;
using rtl::EvalPartition;
using rtl::EvalPlan;
using rtl::EvalStep;
using rtl::Op;
using rtl::SlotId;

/** Visit the operand slots of @p s (mirrors the partitioner/simulator). */
template <typename Fn>
void
forEachOperand(const EvalStep &s, Fn fn)
{
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
}

/** Per slot: the hot step producing it, or UINT32_MAX for leaves. */
std::vector<uint32_t>
producerMap(const EvalPlan &plan)
{
    std::vector<uint32_t> producer(plan.numSlots, UINT32_MAX);
    for (uint32_t i = 0; i < plan.hotProgram.size(); ++i)
        producer[plan.hotProgram[i].dst] = i;
    return producer;
}

/** Assert every structural invariant of @p part over @p plan. */
void
expectPartitionInvariants(const Design &d, const EvalPlan &plan,
                          const EvalPartition &part, uint32_t clusters,
                          uint32_t minLevelSteps)
{
    const auto &hot = plan.hotProgram;
    if (hot.empty()) {
        EXPECT_TRUE(part.chunks.empty());
        return;
    }

    // -- Coverage: every hot step in exactly one chunk, consistent with
    //    stepChunk, lists ascending, chunk ids level-major.
    ASSERT_EQ(part.stepChunk.size(), hot.size());
    std::vector<uint32_t> seen(hot.size(), 0);
    for (uint32_t c = 0; c < part.chunks.size(); ++c) {
        const rtl::EvalChunk &chunk = part.chunks[c];
        EXPECT_FALSE(chunk.steps.empty()) << "chunk " << c;
        for (size_t k = 0; k < chunk.steps.size(); ++k) {
            uint32_t s = chunk.steps[k];
            ASSERT_LT(s, hot.size());
            ++seen[s];
            EXPECT_EQ(part.stepChunk[s], c);
            if (k > 0) {
                EXPECT_LT(chunk.steps[k - 1], s) << "chunk " << c;
            }
        }
        if (c > 0) {
            EXPECT_GE(chunk.level, part.chunks[c - 1].level);
        }
    }
    for (uint32_t s = 0; s < hot.size(); ++s)
        EXPECT_EQ(seen[s], 1u) << "step " << s;

    // -- levelBegin describes the level-major chunk ranges exactly.
    ASSERT_EQ(part.levelBegin.size(), part.numLevels() + 1);
    EXPECT_EQ(part.levelBegin.front(), 0u);
    EXPECT_EQ(part.levelBegin.back(), part.chunks.size());
    for (uint32_t lvl = 0; lvl < part.numLevels(); ++lvl) {
        EXPECT_LE(static_cast<size_t>(part.levelBegin[lvl + 1] -
                                      part.levelBegin[lvl]),
                  static_cast<size_t>(clusters))
            << "level " << lvl;
        for (uint32_t c = part.levelBegin[lvl];
             c < part.levelBegin[lvl + 1]; ++c)
            EXPECT_EQ(part.chunks[c].level, lvl);
    }

    // -- Grain: every level except the last carries >= minLevelSteps.
    for (uint32_t lvl = 0; lvl + 1 < part.numLevels(); ++lvl) {
        size_t steps = 0;
        for (uint32_t c = part.levelBegin[lvl];
             c < part.levelBegin[lvl + 1]; ++c)
            steps += part.chunks[c].steps.size();
        EXPECT_GE(steps, static_cast<size_t>(minLevelSteps))
            << "level " << lvl;
    }

    // -- Dependencies: a hot operand's producer is in the same chunk or
    //    a strictly earlier level; cross-chunk edges are in the dirty
    //    CSR (closure), as are all leaf-slot uses and async mem reads.
    std::vector<uint32_t> producer = producerMap(plan);
    ASSERT_EQ(part.slotChunksBegin.size(), plan.numSlots + 1);
    auto slotListed = [&](SlotId slot, uint32_t chunk) {
        for (uint32_t i = part.slotChunksBegin[slot];
             i < part.slotChunksBegin[slot + 1]; ++i) {
            if (part.slotChunks[i] == chunk)
                return true;
        }
        return false;
    };
    for (uint32_t t = 0; t < hot.size(); ++t) {
        uint32_t tc = part.stepChunk[t];
        forEachOperand(hot[t], [&](SlotId slot) {
            uint32_t p = producer[slot];
            if (p != UINT32_MAX && part.stepChunk[p] == tc)
                return; // in-chunk edge: ascending execution covers it
            if (p != UINT32_MAX) {
                EXPECT_LT(part.chunks[part.stepChunk[p]].level,
                          part.chunks[tc].level)
                    << "intra-level cross-chunk edge: step " << p
                    << " -> " << t;
            }
            EXPECT_TRUE(slotListed(slot, tc))
                << "dirty CSR misses slot " << slot << " -> chunk " << tc;
        });
        if (hot[t].op == Op::MemRead) {
            ASSERT_LT(hot[t].a, part.memChunks.size());
            const auto &mc = part.memChunks[hot[t].a];
            EXPECT_NE(std::find(mc.begin(), mc.end(), tc), mc.end())
                << "memChunks misses mem " << hot[t].a << " -> chunk "
                << tc;
        }
    }
    ASSERT_EQ(part.memChunks.size(), d.mems().size());

    // -- The CSR lists are deduplicated (codegen relies on this to
    //    emit each mask bit once).
    for (SlotId slot = 0; slot < plan.numSlots; ++slot) {
        std::set<uint32_t> uniq;
        for (uint32_t i = part.slotChunksBegin[slot];
             i < part.slotChunksBegin[slot + 1]; ++i)
            EXPECT_TRUE(uniq.insert(part.slotChunks[i]).second)
                << "duplicate consumer chunk for slot " << slot;
    }

    // -- Balance: greedy largest-component-first into the lightest bin
    //    guarantees max <= ceil(total/bins) + largest component, where
    //    components are the intra-level dependency closures.
    for (uint32_t lvl = 0; lvl < part.numLevels(); ++lvl) {
        uint32_t bins = part.levelBegin[lvl + 1] - part.levelBegin[lvl];
        if (bins < 2)
            continue;
        size_t total = 0, maxChunk = 0;
        for (uint32_t c = part.levelBegin[lvl];
             c < part.levelBegin[lvl + 1]; ++c) {
            total += part.chunks[c].steps.size();
            maxChunk = std::max(maxChunk, part.chunks[c].steps.size());
        }
        // Independent union-find over the level's dependency edges.
        std::map<uint32_t, uint32_t> root; // step -> component root
        std::vector<uint32_t> levelSteps;
        for (uint32_t c = part.levelBegin[lvl];
             c < part.levelBegin[lvl + 1]; ++c)
            for (uint32_t s : part.chunks[c].steps)
                levelSteps.push_back(s);
        for (uint32_t s : levelSteps)
            root[s] = s;
        std::function<uint32_t(uint32_t)> find = [&](uint32_t x) {
            while (root[x] != x)
                x = root[x] = root[root[x]];
            return x;
        };
        for (uint32_t t : levelSteps) {
            forEachOperand(hot[t], [&](SlotId slot) {
                uint32_t p = producer[slot];
                if (p != UINT32_MAX && root.count(p) != 0)
                    root[find(t)] = find(p);
            });
        }
        std::map<uint32_t, size_t> compSize;
        for (uint32_t s : levelSteps)
            ++compSize[find(s)];
        size_t maxComp = 0;
        for (const auto &[r, n] : compSize)
            maxComp = std::max(maxComp, n);
        EXPECT_LE(maxChunk, (total + bins - 1) / bins + maxComp)
            << "level " << lvl << " unbalanced";
    }
}

class Partition : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Partition, InvariantsHoldOnFuzzDesigns)
{
    const uint64_t seed = GetParam();
    Design d = testing::randomDesign(seed);
    EvalPlan plan = rtl::buildEvalPlan(d);

    // Default parameters (what the backend uses)...
    EvalPartition def = rtl::partitionEvalPlan(plan, d.mems().size());
    expectPartitionInvariants(d, plan, def, rtl::kDefaultPartitionClusters,
                              rtl::kDefaultPartitionGrain);

    // ...and a tiny grain / few clusters, forcing the multi-level,
    // multi-chunk shape even on these small designs.
    EvalPartition fine = rtl::partitionEvalPlan(plan, d.mems().size(),
                                                /*clusters=*/3,
                                                /*minLevelSteps=*/4);
    expectPartitionInvariants(d, plan, fine, 3, 4);
    if (plan.hotProgram.size() >= 8) {
        EXPECT_GT(fine.numLevels(), 1u) << "grain 4 should split levels";
    }
}

TEST_P(Partition, DeterministicAcrossCalls)
{
    const uint64_t seed = GetParam();
    Design d = testing::randomDesign(seed);
    EvalPlan plan = rtl::buildEvalPlan(d);
    EvalPartition a = rtl::partitionEvalPlan(plan, d.mems().size(), 3, 4);
    EvalPartition b = rtl::partitionEvalPlan(plan, d.mems().size(), 3, 4);
    ASSERT_EQ(a.chunks.size(), b.chunks.size());
    for (size_t c = 0; c < a.chunks.size(); ++c) {
        EXPECT_EQ(a.chunks[c].level, b.chunks[c].level);
        EXPECT_EQ(a.chunks[c].steps, b.chunks[c].steps);
    }
    EXPECT_EQ(a.levelBegin, b.levelBegin);
    EXPECT_EQ(a.stepChunk, b.stepChunk);
    EXPECT_EQ(a.slotChunksBegin, b.slotChunksBegin);
    EXPECT_EQ(a.slotChunks, b.slotChunks);
    EXPECT_EQ(a.memChunks, b.memChunks);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Partition,
                         ::testing::Range<uint64_t>(1, 51));

TEST(Partition, EmptyPlanYieldsEmptyPartition)
{
    EvalPlan plan;
    EvalPartition part = rtl::partitionEvalPlan(plan, 0);
    EXPECT_EQ(part.chunks.size(), 0u);
    EXPECT_EQ(part.numLevels(), 0u);
    EXPECT_EQ(part.dirtyWords(), 0u);
}

// --- Static race validator (rtl::verifyPartition) -----------------------
//
// The real partitioner must prove out clean; each mutation below
// manufactures exactly one class of violation and must be rejected
// under its dedicated rule id.

/** A fuzz design whose fine-grained partition has a level with two or
 *  more chunks and an in-chunk dependency edge — the raw material the
 *  mutation tests below need. Asserts one exists among the seeds. */
struct MutationFixture
{
    Design d;
    EvalPlan plan;
    EvalPartition part;

    MutationFixture() : d(testing::randomDesign(1))
    {
        for (uint64_t seed = 1; seed <= 50; ++seed) {
            d = testing::randomDesign(seed);
            plan = rtl::buildEvalPlan(d);
            part = rtl::partitionEvalPlan(plan, d.mems().size(),
                                          /*clusters=*/3,
                                          /*minLevelSteps=*/4);
            if (findSplittableStep(nullptr, nullptr))
                return;
        }
        ADD_FAILURE() << "no fuzz seed yields a splittable partition";
    }

    /** Find a hot step movable to a sibling chunk of its own level such
     *  that an in-chunk dependency becomes a same-level cross-chunk
     *  edge. Writes the step and the destination chunk when found. */
    bool
    findSplittableStep(uint32_t *stepOut, uint32_t *destChunkOut) const
    {
        std::vector<uint32_t> producer = producerMap(plan);
        for (uint32_t i = 0; i < plan.hotProgram.size(); ++i) {
            uint32_t myChunk = part.stepChunk[i];
            if (part.chunks[myChunk].steps.size() < 2)
                continue; // moving i would leave an empty chunk
            uint32_t lvl = part.chunks[myChunk].level;
            if (part.levelBegin[lvl + 1] - part.levelBegin[lvl] < 2)
                continue; // no sibling chunk to move to
            bool inChunkDep = false;
            forEachOperand(plan.hotProgram[i], [&](SlotId slot) {
                uint32_t p = producer[slot];
                if (p != UINT32_MAX && p != i &&
                    part.stepChunk[p] == myChunk)
                    inChunkDep = true;
            });
            if (!inChunkDep)
                continue;
            for (uint32_t c = part.levelBegin[lvl];
                 c < part.levelBegin[lvl + 1]; ++c) {
                if (c == myChunk)
                    continue;
                if (stepOut)
                    *stepOut = i;
                if (destChunkOut)
                    *destChunkOut = c;
                return true;
            }
        }
        return false;
    }
};

TEST(VerifyPartition, RealPartitionsProveClean)
{
    MutationFixture fx;
    lint::Diagnostics diags =
        rtl::verifyPartition(fx.plan, fx.part, fx.d.mems().size());
    EXPECT_EQ(diags.errorCount(), 0u) << diags.str();

    // Default-grain partitions of every fuzz seed must also prove out.
    for (uint64_t seed = 1; seed <= 50; ++seed) {
        Design d = testing::randomDesign(seed);
        EvalPlan plan = rtl::buildEvalPlan(d);
        EvalPartition part =
            rtl::partitionEvalPlan(plan, d.mems().size());
        lint::Diagnostics dg =
            rtl::verifyPartition(plan, part, d.mems().size());
        EXPECT_EQ(dg.errorCount(), 0u) << "seed " << seed << "\n"
                                       << dg.str();
    }
}

TEST(VerifyPartition, DuplicateStepRejected)
{
    MutationFixture fx;
    // List one hot step in a second chunk as well.
    uint32_t victim = fx.part.chunks[0].steps[0];
    ASSERT_GE(fx.part.chunks.size(), 2u);
    fx.part.chunks[1].steps.push_back(victim);
    std::sort(fx.part.chunks[1].steps.begin(),
              fx.part.chunks[1].steps.end());
    lint::Diagnostics diags =
        rtl::verifyPartition(fx.plan, fx.part, fx.d.mems().size());
    EXPECT_TRUE(diags.hasRule("partition-coverage")) << diags.str();
}

TEST(VerifyPartition, MissingStepRejected)
{
    MutationFixture fx;
    uint32_t c = 0;
    while (fx.part.chunks[c].steps.size() < 2)
        ++c;
    fx.part.chunks[c].steps.pop_back();
    lint::Diagnostics diags =
        rtl::verifyPartition(fx.plan, fx.part, fx.d.mems().size());
    EXPECT_TRUE(diags.hasRule("partition-coverage")) << diags.str();
}

TEST(VerifyPartition, SplitSameLevelDependencyRejected)
{
    MutationFixture fx;
    uint32_t step = 0, dest = 0;
    ASSERT_TRUE(fx.findSplittableStep(&step, &dest));
    uint32_t src = fx.part.stepChunk[step];
    auto &steps = fx.part.chunks[src].steps;
    steps.erase(std::find(steps.begin(), steps.end(), step));
    auto &destSteps = fx.part.chunks[dest].steps;
    destSteps.insert(std::upper_bound(destSteps.begin(), destSteps.end(),
                                      step),
                     step);
    fx.part.stepChunk[step] = dest;
    lint::Diagnostics diags =
        rtl::verifyPartition(fx.plan, fx.part, fx.d.mems().size());
    EXPECT_TRUE(diags.hasRule("partition-level-race")) << diags.str();
}

// The ascending chunk drain relies on every cross-chunk edge pointing
// to a later level. Moving a producer into the last level's chunk puts
// it after a consumer at an earlier level: the consumer's chunk would
// run first and read the stale value.
TEST(VerifyPartition, BackwardCrossChunkEdgeRejected)
{
    MutationFixture fx;
    std::vector<uint32_t> producer = producerMap(fx.plan);
    const uint32_t last =
        static_cast<uint32_t>(fx.part.chunks.size() - 1);
    const uint32_t lastLevel = fx.part.chunks[last].level;
    for (uint32_t i = 0; i < fx.plan.hotProgram.size(); ++i) {
        uint32_t myChunk = fx.part.stepChunk[i];
        if (fx.part.chunks[myChunk].level == lastLevel)
            continue;
        uint32_t moved = UINT32_MAX;
        forEachOperand(fx.plan.hotProgram[i], [&](SlotId slot) {
            uint32_t p = producer[slot];
            if (moved == UINT32_MAX && p != UINT32_MAX &&
                fx.part.stepChunk[p] != myChunk &&
                fx.part.chunks[fx.part.stepChunk[p]].steps.size() >= 2)
                moved = p;
        });
        if (moved == UINT32_MAX)
            continue;
        auto &src = fx.part.chunks[fx.part.stepChunk[moved]].steps;
        src.erase(std::find(src.begin(), src.end(), moved));
        auto &dst = fx.part.chunks[last].steps;
        dst.insert(std::upper_bound(dst.begin(), dst.end(), moved), moved);
        fx.part.stepChunk[moved] = last;
        lint::Diagnostics diags =
            rtl::verifyPartition(fx.plan, fx.part, fx.d.mems().size());
        EXPECT_TRUE(diags.hasRule("partition-level-race")) << diags.str();
        return;
    }
    FAIL() << "no cross-chunk edge below the last level";
}

TEST(VerifyPartition, MissingDirtyClosureEdgeRejected)
{
    MutationFixture fx;
    // Remove the first CSR consumer entry of some slot that has one.
    SlotId slot = 0;
    while (slot < fx.plan.numSlots &&
           fx.part.slotChunksBegin[slot] ==
               fx.part.slotChunksBegin[slot + 1])
        ++slot;
    ASSERT_LT(slot, fx.plan.numSlots) << "no slot has consumers";
    fx.part.slotChunks.erase(fx.part.slotChunks.begin() +
                             fx.part.slotChunksBegin[slot]);
    for (SlotId s = slot + 1; s <= fx.plan.numSlots; ++s)
        --fx.part.slotChunksBegin[s];
    lint::Diagnostics diags =
        rtl::verifyPartition(fx.plan, fx.part, fx.d.mems().size());
    EXPECT_TRUE(diags.hasRule("partition-dirty-closure")) << diags.str();
}

TEST(VerifyPartition, ClearedMemChunksRejected)
{
    // rocket's caches give the plan hot async memory reads.
    Design d = cores::buildSoc(cores::SocConfig::rocket());
    EvalPlan plan = rtl::buildEvalPlan(d);
    EvalPartition part = rtl::partitionEvalPlan(plan, d.mems().size());
    ASSERT_EQ(rtl::verifyPartition(plan, part, d.mems().size())
                  .errorCount(),
              0u);
    size_t mem = 0;
    while (mem < part.memChunks.size() && part.memChunks[mem].empty())
        ++mem;
    ASSERT_LT(mem, part.memChunks.size()) << "no hot async mem read";
    part.memChunks[mem].clear();
    lint::Diagnostics diags =
        rtl::verifyPartition(plan, part, d.mems().size());
    EXPECT_TRUE(diags.hasRule("partition-dirty-closure")) << diags.str();
}

TEST(VerifyPartition, DoubleWriterRejected)
{
    MutationFixture fx;
    // Retarget a store so two chunks of one level write the same slot.
    uint32_t first = UINT32_MAX, second = UINT32_MAX;
    for (uint32_t i = 0;
         i < fx.plan.hotProgram.size() && second == UINT32_MAX; ++i) {
        for (uint32_t j = i + 1; j < fx.plan.hotProgram.size(); ++j) {
            uint32_t ci = fx.part.stepChunk[i];
            uint32_t cj = fx.part.stepChunk[j];
            if (ci != cj &&
                fx.part.chunks[ci].level == fx.part.chunks[cj].level) {
                first = i;
                second = j;
                break;
            }
        }
    }
    ASSERT_NE(second, UINT32_MAX) << "no same-level chunk pair";
    fx.plan.hotProgram[second].dst = fx.plan.hotProgram[first].dst;
    lint::Diagnostics diags =
        rtl::verifyPartition(fx.plan, fx.part, fx.d.mems().size());
    EXPECT_TRUE(diags.hasRule("partition-double-writer")) << diags.str();
}

TEST(VerifyPartition, BrokenGeometryRejectedEarly)
{
    MutationFixture fx;
    fx.part.stepChunk.pop_back();
    lint::Diagnostics diags =
        rtl::verifyPartition(fx.plan, fx.part, fx.d.mems().size());
    EXPECT_TRUE(diags.hasRule("partition-geometry")) << diags.str();
    // Geometry failures abort the remaining checks: only that rule.
    for (const lint::Diagnostic &dg : diags.all())
        EXPECT_EQ(dg.rule, "partition-geometry");
}

TEST(VerifyPartition, Boom2wRealPartitionProvesClean)
{
    Design d = cores::buildSoc(cores::SocConfig::boom2w());
    EvalPlan plan = rtl::buildEvalPlan(d);
    EvalPartition part = rtl::partitionEvalPlan(plan, d.mems().size());
    lint::Diagnostics diags =
        rtl::verifyPartition(plan, part, d.mems().size());
    EXPECT_EQ(diags.errorCount(), 0u) << diags.str();
    EXPECT_GT(part.chunks.size(), 1u);
}

} // namespace
} // namespace strober
