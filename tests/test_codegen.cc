/**
 * @file
 * Tests for the compiled-simulation backend's codegen and JIT layers:
 *   - the emitted source is deterministic and stable (golden);
 *   - a JIT round trip produces callable entry points whose geometry
 *     matches the plan, and evaluating them matches the interpreter;
 *   - sources that span several translation units compile in parallel
 *     and link into one module that still matches the interpreter,
 *     report one wall/CPU entry per unit in the module's JIT stats,
 *     and the JIT leaves nothing behind in $TMPDIR on success or on a
 *     failed unit;
 *   - a $STROBER_CXX override must name an executable file, looked up
 *     on $PATH when it is a bare name;
 *   - with no usable host toolchain ($STROBER_DISABLE_JIT), requesting
 *     Backend::Compiled degrades to the full interpreter with a warning
 *     — never an error — and produces identical results;
 *   - the partitioned (compiled-parallel) emission: a byte-pinned
 *     golden covering both the dirty-gated and the plain store form,
 *     chunk symbol resolution through the JIT, and degradation of
 *     Backend::CompiledParallel to the *activity* interpreter with
 *     identical results and identical activity counters.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "codegen/codegen.h"
#include "codegen/jit.h"
#include "rtl/builder.h"
#include "rtl/opt.h"
#include "sim/simulator.h"
#include "stats/rng.h"

#include "fuzz_designs.h"

namespace strober {
namespace {

using rtl::Builder;
using rtl::Design;
using rtl::Signal;
using sim::Backend;
using sim::Simulator;

Design
tinyDesign()
{
    Builder b("tiny");
    Signal a = b.input("a", 8);
    Signal acc = b.reg("acc", 8, 0);
    b.next(acc, acc + a);
    b.output("sum", acc ^ a);
    return b.finish();
}

/**
 * The full golden source for the tiny design: the entry-point unit,
 * then one chunk unit behind the delimiter line. Pinning every byte is
 * deliberate: the emitted source is a pure function of (design, plan),
 * and any drift — slot numbering, masking policy, unit layout,
 * formatting — shows up here before it shows up as a miscompare in a
 * multi-hour differential run.
 */
const char *const kTinyGolden =
    "// Specialized simulator for design 'tiny' — generated by strober "
    "codegen; do not edit.\n"
    "// slots=4 hot=2 folded=0 aliased=0 cold=0\n"
    "#include <cstdint>\n"
    "\n"
    "extern \"C\" __attribute__((visibility(\"hidden\"))) void "
    "eval_0(uint64_t* __restrict__ s, uint64_t* const* __restrict__ m);\n"
    "\n"
    "extern \"C\" void strober_eval(uint64_t* s, uint64_t* const* m) {\n"
    "  eval_0(s, m);\n"
    "}\n"
    "\n"
    "extern \"C\" void strober_commit(uint64_t* s, uint64_t* const* m) "
    "{\n"
    "  (void)m;\n"
    "  const uint64_t rp0 = s[2];\n"
    "  s[1] = rp0;\n"
    "}\n"
    "\n"
    "extern \"C\" const uint64_t strober_num_slots = 4;\n"
    "extern \"C\" const uint64_t strober_num_mems = 0;\n"
    "// --- strober translation unit ---\n"
    "#include <cstdint>\n"
    "\n"
    "extern \"C\" __attribute__((visibility(\"hidden\"))) void "
    "eval_0(uint64_t* __restrict__ s, uint64_t* const* __restrict__ m) "
    "{\n"
    "  (void)m;\n"
    "  s[2] = (s[1] + s[0]) & 0xffull;\n"
    "  s[3] = s[1] ^ s[0];\n"
    "}\n"
    "\n";

TEST(Codegen, GoldenSourceForTinyDesign)
{
    Design d = tinyDesign();
    rtl::EvalPlan plan = rtl::buildEvalPlan(d);
    EXPECT_EQ(codegen::emitSimulatorSource(d, plan), kTinyGolden);
}

/**
 * The partitioned golden: a two-step chain split at grain 1 so the
 * first chunk's output feeds the second chunk across a level boundary.
 * This pins both store forms — the dirty-gated compare-and-store with
 * its accumulated mask publication for a slot with cross-chunk
 * consumers, and the plain store for one without — plus the chunk
 * declarations, the sequential strober_eval sweep and the
 * strober_num_chunks stamp in the entry-point unit, with both chunk
 * definitions in one chunk unit behind the delimiter line.
 */
const char *const kChainPartitionedGolden =
    "// Partitioned simulator for design 'chain' — generated by strober "
    "codegen; do not edit.\n"
    "// slots=4 hot=2 chunks=2 levels=2 clusters=8\n"
    "#include <cstdint>\n"
    "\n"
    "extern \"C\" void strober_eval_chunk_0(uint64_t* __restrict__ s, "
    "uint64_t* const* __restrict__ m, uint64_t* __restrict__ d);\n"
    "extern \"C\" void strober_eval_chunk_1(uint64_t* __restrict__ s, "
    "uint64_t* const* __restrict__ m, uint64_t* __restrict__ d);\n"
    "\n"
    "extern \"C\" void strober_eval(uint64_t* s, uint64_t* const* m) {\n"
    "  uint64_t scratch[1] = {0};\n"
    "  strober_eval_chunk_0(s, m, scratch);\n"
    "  strober_eval_chunk_1(s, m, scratch);\n"
    "}\n"
    "\n"
    "extern \"C\" void strober_commit(uint64_t* s, uint64_t* const* m) "
    "{\n"
    "  (void)m;\n"
    "}\n"
    "\n"
    "extern \"C\" const uint64_t strober_num_slots = 4;\n"
    "extern \"C\" const uint64_t strober_num_mems = 0;\n"
    "extern \"C\" const uint64_t strober_num_chunks = 2;\n"
    "// --- strober translation unit ---\n"
    "#include <cstdint>\n"
    "\n"
    "extern \"C\" void strober_eval_chunk_0(uint64_t* __restrict__ s, "
    "uint64_t* const* __restrict__ m, uint64_t* __restrict__ d) {\n"
    "  (void)m; (void)d;\n"
    "  uint64_t w0 = 0ull;\n"
    "  { const uint64_t nv = (s[0] + s[3]) & 0xffull; if (s[1] != nv) { "
    "s[1] = nv; w0 |= 0x2ull; } }\n"
    "  if (w0) __atomic_fetch_or(d + 0, w0, __ATOMIC_RELAXED);\n"
    "}\n"
    "\n"
    "extern \"C\" void strober_eval_chunk_1(uint64_t* __restrict__ s, "
    "uint64_t* const* __restrict__ m, uint64_t* __restrict__ d) {\n"
    "  (void)m; (void)d;\n"
    "  s[2] = s[1] ^ s[0];\n"
    "}\n"
    "\n";

Design
chainDesign()
{
    Builder b("chain");
    Signal a = b.input("a", 8);
    Signal t1 = a + b.lit(1, 8);
    b.output("y", t1 ^ a);
    return b.finish();
}

TEST(Codegen, GoldenPartitionedSourceForChainDesign)
{
    Design d = chainDesign();
    rtl::EvalPlan plan = rtl::buildEvalPlan(d);
    rtl::EvalPartition part =
        rtl::partitionEvalPlan(plan, d.mems().size(), /*clusters=*/8,
                               /*minLevelSteps=*/1);
    EXPECT_EQ(codegen::emitPartitionedSource(d, plan, part),
              kChainPartitionedGolden);
}

TEST(Codegen, PartitionedEmissionIsDeterministic)
{
    for (uint64_t seed : {3ull, 17ull, 29ull}) {
        Design d1 = testing::randomDesign(seed);
        Design d2 = testing::randomDesign(seed);
        rtl::EvalPlan p1 = rtl::buildEvalPlan(d1);
        rtl::EvalPlan p2 = rtl::buildEvalPlan(d2);
        rtl::EvalPartition q1 =
            rtl::partitionEvalPlan(p1, d1.mems().size(), 3, 4);
        rtl::EvalPartition q2 =
            rtl::partitionEvalPlan(p2, d2.mems().size(), 3, 4);
        std::string s1 = codegen::emitPartitionedSource(d1, p1, q1);
        std::string s2 = codegen::emitPartitionedSource(d2, p2, q2);
        EXPECT_EQ(s1, s2) << "seed " << seed;
        EXPECT_NE(s1.find(codegen::kEvalSymbol), std::string::npos);
        EXPECT_NE(s1.find(codegen::kCommitSymbol), std::string::npos);
        EXPECT_NE(s1.find(codegen::kNumChunksSymbol), std::string::npos);
        EXPECT_NE(s1.find(codegen::kChunkSymbolPrefix), std::string::npos);
    }
}

TEST(Codegen, PartitionedJitResolvesChunkFunctions)
{
    if (codegen::hostCompiler().empty())
        GTEST_SKIP() << "no host C++ compiler available";

    Design d = chainDesign();
    rtl::EvalPlan plan = rtl::buildEvalPlan(d);
    rtl::EvalPartition part =
        rtl::partitionEvalPlan(plan, d.mems().size(), 8, 1);
    auto mod = codegen::compileSimulator(
        codegen::emitPartitionedSource(d, plan, part), "test_chunks");
    ASSERT_TRUE(mod.isOk()) << mod.status().toString();
    ASSERT_EQ((*mod)->chunks().size(), part.chunks.size());

    // Drive the chunk functions by hand: after chunk 0, the dirty
    // bitmap names chunk 1 iff the intermediate value changed.
    std::vector<uint64_t> slots(plan.numSlots, 0);
    for (const auto &[slot, value] : plan.slotInit)
        slots[slot] = value;
    std::vector<uint64_t> dirty(part.dirtyWords(), 0);
    slots[plan.slotOf[d.inputs()[0]]] = 7;
    (*mod)->chunks()[0](slots.data(), nullptr, dirty.data());
    EXPECT_EQ(dirty[0], 0x2u); // (7+1) != 0: chunk 1 goes dirty
    (*mod)->chunks()[1](slots.data(), nullptr, dirty.data());
    EXPECT_EQ(slots[plan.slotOf[d.outputs()[0].node]], (7u + 1u) ^ 7u);

    // Re-running chunk 0 with unchanged inputs publishes nothing.
    dirty[0] = 0;
    (*mod)->chunks()[0](slots.data(), nullptr, dirty.data());
    EXPECT_EQ(dirty[0], 0u);

    // A non-partitioned module exposes no chunks.
    auto plain = codegen::compileSimulator(
        codegen::emitSimulatorSource(d, plan), "test_nochunks");
    ASSERT_TRUE(plain.isOk()) << plain.status().toString();
    EXPECT_TRUE((*plain)->chunks().empty());
}

TEST(Codegen, EmissionIsDeterministic)
{
    // Two independent constructions of the same design must emit
    // byte-identical source — including for designs with memories,
    // folded constants and CSE aliases in play.
    for (uint64_t seed : {3ull, 17ull, 29ull}) {
        Design d1 = testing::randomDesign(seed);
        Design d2 = testing::randomDesign(seed);
        rtl::EvalPlan p1 = rtl::buildEvalPlan(d1);
        rtl::EvalPlan p2 = rtl::buildEvalPlan(d2);
        std::string s1 = codegen::emitSimulatorSource(d1, p1);
        std::string s2 = codegen::emitSimulatorSource(d2, p2);
        EXPECT_EQ(s1, s2) << "seed " << seed;
        // Structural landmarks every emitted unit must carry.
        EXPECT_NE(s1.find(codegen::kEvalSymbol), std::string::npos);
        EXPECT_NE(s1.find(codegen::kCommitSymbol), std::string::npos);
        EXPECT_NE(s1.find(codegen::kNumSlotsSymbol), std::string::npos);
        EXPECT_NE(s1.find(codegen::kNumMemsSymbol), std::string::npos);
    }
}

TEST(Codegen, JitRoundTrip)
{
    if (codegen::hostCompiler().empty())
        GTEST_SKIP() << "no host C++ compiler available";

    Design d = tinyDesign();
    rtl::EvalPlan plan = rtl::buildEvalPlan(d);
    auto mod = codegen::compileSimulator(
        codegen::emitSimulatorSource(d, plan), "test_roundtrip");
    ASSERT_TRUE(mod.isOk()) << mod.status().toString();
    EXPECT_EQ((*mod)->numSlots(), plan.numSlots);
    EXPECT_EQ((*mod)->numMems(), 0u);

    // Drive the entry points directly: slots are [a, acc, acc+a, acc^a].
    std::vector<uint64_t> slots(plan.numSlots, 0);
    slots[plan.slotOf[d.inputs()[0]]] = 0x21;
    (*mod)->eval()(slots.data(), nullptr);
    EXPECT_EQ(slots[plan.slotOf[d.outputs()[0].node]], 0x21u);
    (*mod)->commit()(slots.data(), nullptr); // acc <- 0x21
    (*mod)->eval()(slots.data(), nullptr);
    EXPECT_EQ(slots[plan.slotOf[d.outputs()[0].node]], 0u); // 0x21^0x21
}

TEST(Codegen, CompileOfInvalidSourceIsAnErrorValue)
{
    if (codegen::hostCompiler().empty())
        GTEST_SKIP() << "no host C++ compiler available";
    auto mod = codegen::compileSimulator("this is not C++;", "test_bad");
    ASSERT_FALSE(mod.isOk());
}

/** Scoped setenv/unsetenv so a failing assertion can't leak the var. */
class DisableJitGuard
{
  public:
    DisableJitGuard() { ::setenv("STROBER_DISABLE_JIT", "1", 1); }
    ~DisableJitGuard() { ::unsetenv("STROBER_DISABLE_JIT"); }
};

/** Scoped $STROBER_CXX override; restores the previous value. */
class CxxOverride
{
  public:
    explicit CxxOverride(const char *value)
    {
        if (const char *old = std::getenv("STROBER_CXX"))
            saved = old;
        ::setenv("STROBER_CXX", value, 1);
    }
    ~CxxOverride()
    {
        if (saved.empty())
            ::unsetenv("STROBER_CXX");
        else
            ::setenv("STROBER_CXX", saved.c_str(), 1);
    }

  private:
    std::string saved;
};

TEST(Codegen, CompilerOverrideMustNameAnExecutable)
{
    {
        CxxOverride cxx("strober-no-such-compiler");
        EXPECT_EQ(codegen::hostCompiler(), "");
    }
    {
        CxxOverride cxx("/"); // a directory, not an executable file
        EXPECT_EQ(codegen::hostCompiler(), "");
    }
    {
        CxxOverride cxx("sh"); // a bare name, resolved on $PATH
        EXPECT_EQ(codegen::hostCompiler(), "sh");
    }
}

TEST(Codegen, NoToolchainFallsBackToInterpreter)
{
    DisableJitGuard guard;
    EXPECT_TRUE(codegen::hostCompiler().empty());

    Design d = testing::randomDesign(11);
    // Requesting Compiled must degrade (with a warning, not an error)
    // to the full interpreter...
    Simulator comp(d, Backend::Compiled);
    EXPECT_EQ(comp.requestedBackend(), Backend::Compiled);
    EXPECT_EQ(comp.backend(), Backend::InterpretedFull);

    // ...and behave identically to one built as InterpretedFull.
    Simulator ref(d, Backend::InterpretedFull);
    stats::Rng rng(0xfa11bac);
    for (int cycle = 0; cycle < 200; ++cycle) {
        for (rtl::NodeId in : d.inputs()) {
            uint64_t v = rng.next();
            comp.poke(in, v);
            ref.poke(in, v);
        }
        for (const rtl::OutputPort &out : d.outputs())
            ASSERT_EQ(comp.peek(out.node), ref.peek(out.node))
                << "cycle " << cycle;
        comp.step();
        ref.step();
    }
    for (size_t n = 0; n < d.numNodes(); ++n)
        ASSERT_EQ(comp.peek(static_cast<rtl::NodeId>(n)),
                  ref.peek(static_cast<rtl::NodeId>(n)))
            << "node " << n;
}

TEST(Codegen, NoToolchainParallelFallsBackToActivityInterpreter)
{
    DisableJitGuard guard;
    EXPECT_TRUE(codegen::hostCompiler().empty());

    Design d = testing::randomDesign(11);
    // Requesting CompiledParallel must degrade to the *activity*
    // interpreter — the closest behavioral match to the chunk-gated
    // evaluation it could not compile — never to the full sweep.
    Simulator par(d, Backend::CompiledParallel);
    EXPECT_EQ(par.requestedBackend(), Backend::CompiledParallel);
    EXPECT_EQ(par.backend(), Backend::InterpretedActivity);

    // ...and report exactly what a native InterpretedActivity
    // simulator reports: same values, same evaluation counters, same
    // activity factor.
    Simulator ref(d, Backend::InterpretedActivity);
    stats::Rng rng(0xfa11bac);
    for (int cycle = 0; cycle < 200; ++cycle) {
        for (rtl::NodeId in : d.inputs()) {
            // Withhold some pokes so the activity gating has skips to
            // agree on.
            if (rng.nextBounded(4) == 0)
                continue;
            uint64_t v = rng.next();
            par.poke(in, v);
            ref.poke(in, v);
        }
        for (const rtl::OutputPort &out : d.outputs())
            ASSERT_EQ(par.peek(out.node), ref.peek(out.node))
                << "cycle " << cycle;
        par.step();
        ref.step();
    }
    for (size_t n = 0; n < d.numNodes(); ++n)
        ASSERT_EQ(par.peek(static_cast<rtl::NodeId>(n)),
                  ref.peek(static_cast<rtl::NodeId>(n)))
            << "node " << n;
    EXPECT_EQ(par.nodeEvals(), ref.nodeEvals());
    EXPECT_EQ(par.nodeEvalsSkipped(), ref.nodeEvalsSkipped());
    EXPECT_EQ(par.activityFactor(), ref.activityFactor());
}

TEST(Codegen, CompiledBackendMatchesInterpreterOnMemories)
{
    // One focused non-fuzz check of the compiled commit path: async
    // write + sync read port against the interpreter.
    Builder b("mem");
    Signal waddr = b.input("waddr", 3);
    Signal wdata = b.input("wdata", 16);
    Signal wen = b.input("wen", 1);
    Signal raddr = b.input("raddr", 3);
    rtl::MemHandle m = b.mem("ram", 16, 8, /*syncRead=*/true);
    b.memWrite(m, waddr, wdata, wen);
    b.output("rdata", b.memReadSync(m, raddr));
    Design d = b.finish();

    Simulator comp(d, Backend::Compiled);
    Simulator ref(d, Backend::InterpretedFull);
    stats::Rng rng(0x3333);
    for (int cycle = 0; cycle < 300; ++cycle) {
        for (rtl::NodeId in : d.inputs()) {
            uint64_t v = rng.next();
            comp.poke(in, v);
            ref.poke(in, v);
        }
        ASSERT_EQ(comp.peek(d.outputs()[0].node),
                  ref.peek(d.outputs()[0].node))
            << "cycle " << cycle;
        comp.step();
        ref.step();
    }
    for (uint64_t a = 0; a < 8; ++a)
        ASSERT_EQ(comp.memWord(0, a), ref.memWord(0, a)) << "addr " << a;
    ASSERT_EQ(comp.syncReadData(0, 0), ref.syncReadData(0, 0));
}

/**
 * A design whose hot program spans several chunk translation units:
 * @p lanes independent lanes, each a chain of @p depth dependent ops
 * over its own input, register and lane-distinct literals, so nothing
 * folds, aliases or merges away.
 */
Design
wideDesign(unsigned lanes, unsigned depth)
{
    Builder b("wide");
    for (unsigned l = 0; l < lanes; ++l) {
        // Bound to a local first: GCC 12 at -O3 raises a false
        // -Wrestrict on "literal" + std::string&&.
        const std::string idx = std::to_string(l);
        Signal in = b.input("in" + idx, 16);
        Signal r = b.reg("r" + idx, 16, l);
        Signal x = in ^ r;
        for (unsigned j = 0; j < depth; ++j) {
            Signal k = b.lit((l * 131 + j * 7 + 1) & 0xffff, 16);
            switch (j % 4) {
              case 0:
                x = x + k;
                break;
              case 1:
                x = x ^ in;
                break;
              case 2:
                x = x - r;
                break;
              default:
                x = b.mux(x.bits(0, 0), x, x ^ k);
                break;
            }
        }
        b.next(r, x);
        b.output("y" + idx, x);
    }
    return b.finish();
}

/** Number of kTuDelimiter lines in @p source. */
size_t
delimiterCount(const std::string &source)
{
    const std::string delim =
        std::string("\n") + codegen::kTuDelimiter + "\n";
    size_t n = 0;
    for (size_t at = source.find(delim); at != std::string::npos;
         at = source.find(delim, at + 1))
        ++n;
    return n;
}

/** Drive @p sim and @p ref with the same random inputs for @p cycles
 *  cycles, asserting identical outputs, then identical node values. */
void
expectLockstep(Simulator &sim, Simulator &ref, const Design &d, int cycles)
{
    stats::Rng rng(0x70c0de);
    for (int cycle = 0; cycle < cycles; ++cycle) {
        for (rtl::NodeId in : d.inputs()) {
            if (rng.nextBounded(4) == 0)
                continue; // some idle inputs give activity gating skips
            uint64_t v = rng.next();
            sim.poke(in, v);
            ref.poke(in, v);
        }
        for (const rtl::OutputPort &out : d.outputs())
            ASSERT_EQ(sim.peek(out.node), ref.peek(out.node))
                << "cycle " << cycle;
        sim.step();
        ref.step();
    }
    for (size_t n = 0; n < d.numNodes(); ++n)
        ASSERT_EQ(sim.peek(static_cast<rtl::NodeId>(n)),
                  ref.peek(static_cast<rtl::NodeId>(n)))
            << "node " << n;
}

TEST(Codegen, MultiUnitModuleMatchesInterpreter)
{
    if (codegen::hostCompiler().empty())
        GTEST_SKIP() << "no host C++ compiler available";

    Design d = wideDesign(8, 600);
    rtl::EvalPlan plan = rtl::buildEvalPlan(d);
    std::string source = codegen::emitSimulatorSource(d, plan);
    EXPECT_GE(delimiterCount(source), 3u)
        << plan.hotProgram.size() << " hot steps";

    Simulator comp(d, Backend::Compiled);
    ASSERT_EQ(comp.backend(), Backend::Compiled);
    Simulator ref(d, Backend::InterpretedFull);
    expectLockstep(comp, ref, d, 300);
}

TEST(Codegen, MultiUnitModuleReportsPerUnitJitStats)
{
    if (codegen::hostCompiler().empty())
        GTEST_SKIP() << "no host C++ compiler available";

    Design d = wideDesign(8, 600);
    rtl::EvalPlan plan = rtl::buildEvalPlan(d);
    const size_t units =
        delimiterCount(codegen::emitSimulatorSource(d, plan)) + 1;
    ASSERT_GE(units, 4u);

    Simulator comp(d, Backend::Compiled);
    ASSERT_EQ(comp.backend(), Backend::Compiled);
    const codegen::JitStats *jit = comp.jitStats();
    ASSERT_NE(jit, nullptr);
    ASSERT_EQ(jit->units.size(), units);
    double slowest = 0;
    for (size_t u = 0; u < units; ++u) {
        EXPECT_GT(jit->units[u].wallSeconds, 0.0) << "unit " << u;
        EXPECT_GT(jit->units[u].cpuSeconds, 0.0) << "unit " << u;
        slowest = std::max(slowest, jit->units[u].wallSeconds);
    }
    EXPECT_GT(jit->compilerCpuSeconds(), 0.0);
    EXPECT_GT(jit->linkWallSeconds, 0.0);
    EXPECT_GE(jit->totalWallSeconds, slowest + jit->linkWallSeconds);

    // Interpreted backends build no module.
    Simulator interp(d, Backend::InterpretedFull);
    EXPECT_EQ(interp.jitStats(), nullptr);
}

TEST(Codegen, MultiUnitPartitionedModuleResolvesEveryChunk)
{
    if (codegen::hostCompiler().empty())
        GTEST_SKIP() << "no host C++ compiler available";

    // The default partition, as Simulator builds it for
    // Backend::CompiledParallel.
    Design d = wideDesign(8, 600);
    rtl::EvalPlan plan = rtl::buildEvalPlan(d);
    rtl::EvalPartition part =
        rtl::partitionEvalPlan(plan, d.mems().size());
    std::string source = codegen::emitPartitionedSource(d, plan, part);
    EXPECT_GE(delimiterCount(source), 3u)
        << part.chunks.size() << " chunks";

    auto mod = codegen::compileSimulator(source, "test_units");
    ASSERT_TRUE(mod.isOk()) << mod.status().toString();
    ASSERT_EQ((*mod)->chunks().size(), part.chunks.size());
    for (size_t c = 0; c < part.chunks.size(); ++c)
        EXPECT_NE((*mod)->chunks()[c], nullptr) << "chunk " << c;

    Simulator par(d, Backend::CompiledParallel);
    ASSERT_EQ(par.backend(), Backend::CompiledParallel);
    Simulator ref(d, Backend::InterpretedActivity);
    expectLockstep(par, ref, d, 300);
}

/** Points $TMPDIR at a fresh empty directory for the guard's lifetime,
 *  then restores it and removes the directory. */
class TmpDirGuard
{
  public:
    TmpDirGuard()
    {
        if (const char *old = std::getenv("TMPDIR"))
            saved = old;
        std::string tmpl = (std::filesystem::temp_directory_path() /
                            "strober-jit-test-XXXXXX")
                               .string();
        if (::mkdtemp(tmpl.data()) != nullptr)
            dir = tmpl;
        ::setenv("TMPDIR", dir.c_str(), 1);
    }
    ~TmpDirGuard()
    {
        if (saved.empty())
            ::unsetenv("TMPDIR");
        else
            ::setenv("TMPDIR", saved.c_str(), 1);
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }

    bool
    empty() const
    {
        return std::filesystem::is_empty(dir);
    }

    std::string dir;

  private:
    std::string saved;
};

TEST(Codegen, JitScratchIsRemovedOnSuccessAndOnAFailedUnit)
{
    if (codegen::hostCompiler().empty())
        GTEST_SKIP() << "no host C++ compiler available";

    Design d = chainDesign();
    rtl::EvalPlan plan = rtl::buildEvalPlan(d);
    rtl::EvalPartition part =
        rtl::partitionEvalPlan(plan, d.mems().size(), 8, 1);
    std::string source = codegen::emitPartitionedSource(d, plan, part);
    ASSERT_EQ(delimiterCount(source), 1u);

    TmpDirGuard tmp;
    ASSERT_FALSE(tmp.dir.empty());
    ASSERT_TRUE(tmp.empty());

    auto ok = codegen::compileSimulator(source, "test_scratch");
    ASSERT_TRUE(ok.isOk()) << ok.status().toString();
    EXPECT_TRUE(tmp.empty()) << "scratch left behind after a compile";

    // A third unit that is not valid C++: the whole compile fails, the
    // status names that unit and carries its diagnostic.
    std::string bad = source + codegen::kTuDelimiter +
                      "\nint strober_broken = strober_no_such_symbol;\n";
    auto fail = codegen::compileSimulator(bad, "test_scratch_bad");
    ASSERT_FALSE(fail.isOk());
    EXPECT_EQ(fail.status().code(), util::ErrorCode::IoError);
    const std::string msg = fail.status().toString();
    EXPECT_NE(msg.find("translation unit 2 of 3"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("strober_no_such_symbol"), std::string::npos)
        << msg;
    EXPECT_TRUE(tmp.empty()) << "scratch left behind after a failure";
}

} // namespace
} // namespace strober
