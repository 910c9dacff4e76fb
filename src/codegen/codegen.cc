#include "codegen/codegen.h"

#include <algorithm>
#include <cstdio>

#include "util/bits.h"
#include "util/logging.h"

namespace strober {
namespace codegen {

using rtl::EvalStep;
using rtl::Op;
using rtl::kNoSlot;

namespace {

/** Statements per plain eval chunk function. Under the JIT's compile
 *  profile (codegen/jit.cc) 64 and 128 build equally fast, and 64 runs
 *  the fastest kernel; 256 is slower on both counts. DESIGN.md
 *  ("Compiled simulation backend") has the measured table. */
constexpr size_t kChunkStmts = 64;

/** Statement budget of one chunk translation unit. Fixed rather than
 *  derived from the host's core count, so the emitted source stays a
 *  pure function of (design, plan). */
constexpr size_t kTuStmts = 2048;

/** Function attribute keeping plain chunks out of the module's
 *  dynamic symbol table: only the first unit calls them. */
constexpr const char *kHidden = "__attribute__((visibility(\"hidden\")))";

/**
 * Chunk functions grouped into translation units: a new unit starts
 * when the next function would take the current one past kTuStmts
 * statements (a larger function gets a unit of its own).
 */
class ChunkUnits
{
  public:
    void
    add(const std::string &fn, size_t stmts)
    {
        if (units.empty() || used + stmts > kTuStmts) {
            units += std::string(kTuDelimiter) + "\n#include <cstdint>\n\n";
            used = 0;
        }
        units += fn;
        used += stmts;
    }

    /** Every unit, each starting with its delimiter line. */
    const std::string &text() const { return units; }

  private:
    std::string units;
    size_t used = 0;
};

std::string
hexU64(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%llxull", (unsigned long long)v);
    return buf;
}

std::string
dec(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu", (unsigned long long)v);
    return buf;
}

std::string
slot(uint32_t s)
{
    return "s[" + dec(s) + "]";
}

/** Wrap @p expr in the width mask (a no-op at 64 bits). */
std::string
masked(const std::string &expr, unsigned width)
{
    if (width >= 64)
        return expr;
    return "(" + expr + ") & " + hexU64(bitMask(width));
}

/** Sign-extend @p expr from @p width to 64 bits (two's-complement). */
std::string
sext64(const std::string &expr, unsigned width)
{
    if (width == 0 || width >= 64)
        return expr;
    std::string sign = hexU64(1ULL << (width - 1));
    return "((" + expr + " ^ " + sign + ") - " + sign + ")";
}

/** The pieces of one step's computation: an optional prelude declaring
 *  locals, and the value expression. Shared by the straight-line and
 *  the chunked (dirty-gated) emitters so their semantics cannot drift
 *  apart. */
struct StepParts
{
    std::string prelude; //!< "" or "uint64_t amt = ...; "
    std::string expr;
};

/**
 * The expression computing EvalStep @p st. Semantics mirror
 * rtl::evalOp case-for-case; keep the two in sync.
 */
StepParts
stepParts(const rtl::Design &d, const EvalStep &st)
{
    const std::string a = slot(st.a);
    const std::string b = slot(st.b);
    const std::string c = slot(st.c);
    const unsigned w = st.width;
    std::string expr;
    switch (st.op) {
      case Op::Not:
        expr = masked("~" + a, w);
        break;
      case Op::Neg:
        expr = masked("0ull - " + a, w);
        break;
      case Op::RedOr:
        expr = "(uint64_t)(" + a + " != 0ull)";
        break;
      case Op::RedAnd:
        expr = "(uint64_t)(" + a + " == " + hexU64(bitMask(st.widthA)) + ")";
        break;
      case Op::RedXor:
        expr = "(uint64_t)(__builtin_popcountll(" + a + ") & 1)";
        break;
      case Op::SExt:
        expr = masked(sext64(a, st.widthA), w);
        break;
      case Op::Pad:
        expr = a;
        break;
      case Op::Bits: {
        unsigned hi = static_cast<unsigned>(st.imm >> 8);
        unsigned lo = static_cast<unsigned>(st.imm & 0xff);
        expr = lo ? masked(a + " >> " + dec(lo), hi - lo + 1)
                  : masked(a, hi - lo + 1);
        break;
      }
      case Op::Add:
        expr = masked(a + " + " + b, w);
        break;
      case Op::Sub:
        expr = masked(a + " - " + b, w);
        break;
      case Op::Mul:
        expr = masked(a + " * " + b, w);
        break;
      case Op::Divu:
        expr = b + " == 0ull ? " + hexU64(bitMask(w)) + " : " + a + " / " + b;
        break;
      case Op::Remu:
        expr = b + " == 0ull ? " + a + " : " + a + " % " + b;
        break;
      case Op::And:
        expr = a + " & " + b;
        break;
      case Op::Or:
        expr = a + " | " + b;
        break;
      case Op::Xor:
        expr = a + " ^ " + b;
        break;
      case Op::Shl:
        expr = b + " >= " + dec(w) + "ull ? 0ull : " +
               masked("(" + a + " << " + b + ")", w);
        break;
      case Op::Shru:
        expr = b + " >= " + dec(w) + "ull ? 0ull : " + a + " >> " + b;
        break;
      case Op::Sra: {
        // amt = min(b, width) capped at 63 == min(b, min(width, 63)).
        unsigned cap = w > 63 ? 63 : w;
        return {"uint64_t amt = " + b + " < " + dec(cap) + "ull ? " + b +
                    " : " + dec(cap) + "ull; ",
                masked("(uint64_t)((int64_t)" + sext64(a, st.widthA) +
                           " >> amt)",
                       w)};
      }
      case Op::Eq:
        expr = "(uint64_t)(" + a + " == " + b + ")";
        break;
      case Op::Ne:
        expr = "(uint64_t)(" + a + " != " + b + ")";
        break;
      case Op::Ltu:
        expr = "(uint64_t)(" + a + " < " + b + ")";
        break;
      case Op::Lts:
        expr = "(uint64_t)((int64_t)" + sext64(a, st.widthA) +
               " < (int64_t)" + sext64(b, st.widthB) + ")";
        break;
      case Op::Cat:
        expr = masked("(" + a + " << " + dec(st.widthB) + ") | " + b, w);
        break;
      case Op::Mux:
        expr = a + " & 1ull ? " + b + " : " + c;
        break;
      case Op::MemRead: {
        const rtl::MemInfo &m = d.mems()[st.a];
        expr = b + " < " + dec(m.depth) + "ull ? m[" + dec(st.a) + "][" + b +
               "] : 0ull";
        break;
      }
      default:
        panic("codegen: unexpected op %s in evaluation plan",
              rtl::opName(st.op));
    }
    return {"", expr};
}

/** One statement computing EvalStep @p st into its destination slot. */
std::string
stepStmt(const rtl::Design &d, const EvalStep &st)
{
    StepParts p = stepParts(d, st);
    const std::string dst = slot(st.dst);
    if (p.prelude.empty())
        return "  " + dst + " = " + p.expr + ";\n";
    return "  { " + p.prelude + dst + " = " + p.expr + "; }\n";
}

/** "(s[en] & 1ull)" or "" when the port has no enable. */
std::string
enableExpr(rtl::NodeId en, const rtl::EvalPlan &plan)
{
    if (en == rtl::kNoNode)
        return "";
    return "(" + slot(plan.slotOf[en]) + " & 1ull)";
}

/** Append strober_commit: latch registers and sync-read data
 *  (read-before-write), apply memory writes (last port wins), then
 *  store the pendings — the same order as Simulator::commitEdge. */
void
emitCommit(std::string &out, const rtl::Design &d,
           const rtl::EvalPlan &plan)
{
    out += "extern \"C\" void strober_commit(uint64_t* s, uint64_t* const* "
           "m) {\n";
    out += "  (void)m;\n";
    const auto &regs = d.regs();
    for (size_t i = 0; i < regs.size(); ++i) {
        const rtl::RegInfo &r = regs[i];
        std::string nextV = slot(plan.slotOf[r.next]);
        std::string oldV = slot(plan.slotOf[r.node]);
        std::string en = enableExpr(r.en, plan);
        out += "  const uint64_t rp" + dec(i) + " = " +
               (en.empty() ? nextV : en + " ? " + nextV + " : " + oldV) +
               ";\n";
    }
    size_t flat = 0;
    for (size_t mi = 0; mi < d.mems().size(); ++mi) {
        const rtl::MemInfo &m = d.mems()[mi];
        if (!m.syncRead)
            continue;
        for (const rtl::MemReadPort &p : m.reads) {
            std::string read = slot(plan.slotOf[p.addr]) + " < " +
                               dec(m.depth) + "ull ? m[" + dec(mi) + "][" +
                               slot(plan.slotOf[p.addr]) + "] : 0ull";
            std::string en = enableExpr(p.en, plan);
            out += "  const uint64_t sp" + dec(flat) + " = " +
                   (en.empty() ? "(" + read + ")"
                               : en + " ? (" + read + ") : " +
                                     slot(plan.slotOf[p.data])) +
                   ";\n";
            ++flat;
        }
    }
    for (size_t mi = 0; mi < d.mems().size(); ++mi) {
        const rtl::MemInfo &m = d.mems()[mi];
        for (const rtl::MemWritePort &p : m.writes) {
            std::string en = enableExpr(p.en, plan);
            std::string body = "{ const uint64_t a = " +
                               slot(plan.slotOf[p.addr]) + "; if (a < " +
                               dec(m.depth) + "ull) m[" + dec(mi) +
                               "][a] = " + slot(plan.slotOf[p.data]) +
                               "; }";
            out += en.empty() ? "  " + body + "\n"
                              : "  if (" + en + ") " + body + "\n";
        }
    }
    for (size_t i = 0; i < regs.size(); ++i)
        out += "  " + slot(plan.slotOf[regs[i].node]) + " = rp" + dec(i) +
               ";\n";
    flat = 0;
    for (const rtl::MemInfo &m : d.mems()) {
        if (!m.syncRead)
            continue;
        for (const rtl::MemReadPort &p : m.reads) {
            out += "  " + slot(plan.slotOf[p.data]) + " = sp" + dec(flat) +
                   ";\n";
            ++flat;
        }
    }
    out += "}\n\n";
}

/** Append the geometry stamps; the loader cross-checks them before
 *  trusting the module (a stale .so over a changed design is a hard
 *  error). */
void
emitStamps(std::string &out, const rtl::Design &d,
           const rtl::EvalPlan &plan, size_t numChunks)
{
    out += "extern \"C\" const uint64_t strober_num_slots = " +
           dec(plan.numSlots) + ";\n";
    out += "extern \"C\" const uint64_t strober_num_mems = " +
           dec(d.mems().size()) + ";\n";
    if (numChunks > 0)
        out += "extern \"C\" const uint64_t strober_num_chunks = " +
               dec(numChunks) + ";\n";
}

} // namespace

std::string
emitSimulatorSource(const rtl::Design &d, const rtl::EvalPlan &plan)
{
    std::string out;
    out.reserve(64 * 1024);
    out += "// Specialized simulator for design '" + d.name() +
           "' — generated by strober codegen; do not edit.\n";
    out += "// slots=" + dec(plan.numSlots) +
           " hot=" + dec(plan.hotProgram.size()) +
           " folded=" + dec(plan.stats.folded) +
           " aliased=" + dec(plan.stats.aliased) +
           " cold=" + dec(plan.stats.cold) + "\n";
    out += "#include <cstdint>\n\n";

    // Eval: the hot program as straight-line code, cut into small
    // chunk functions that live in the later translation units; this
    // unit only declares them and calls them in order.
    const std::string sig = "(uint64_t* __restrict__ s, uint64_t* const* "
                            "__restrict__ m)";
    size_t numChunks =
        (plan.hotProgram.size() + kChunkStmts - 1) / kChunkStmts;
    ChunkUnits units;
    for (size_t chunk = 0; chunk < numChunks; ++chunk) {
        const std::string decl = "extern \"C\" " + std::string(kHidden) +
                                 " void eval_" + dec(chunk) + sig;
        out += decl + ";\n";
        size_t lo = chunk * kChunkStmts;
        size_t hi = std::min(lo + kChunkStmts, plan.hotProgram.size());
        std::string fn = decl + " {\n  (void)m;\n";
        for (size_t i = lo; i < hi; ++i)
            fn += stepStmt(d, plan.hotProgram[i]);
        fn += "}\n\n";
        units.add(fn, hi - lo);
    }
    if (numChunks > 0)
        out += "\n";

    out += "extern \"C\" void strober_eval(uint64_t* s, uint64_t* const* "
           "m) {\n";
    if (numChunks == 0)
        out += "  (void)s; (void)m;\n";
    for (size_t chunk = 0; chunk < numChunks; ++chunk)
        out += "  eval_" + dec(chunk) + "(s, m);\n";
    out += "}\n\n";

    emitCommit(out, d, plan);
    emitStamps(out, d, plan, 0);
    out += units.text();
    return out;
}

std::string
emitPartitionedSource(const rtl::Design &d, const rtl::EvalPlan &plan,
                      const rtl::EvalPartition &part)
{
    const auto &hot = plan.hotProgram;
    const uint32_t numChunks = static_cast<uint32_t>(part.chunks.size());
    const uint32_t words = part.dirtyWords();

    std::string out;
    out.reserve(64 * 1024);
    out += "// Partitioned simulator for design '" + d.name() +
           "' — generated by strober codegen; do not edit.\n";
    out += "// slots=" + dec(plan.numSlots) + " hot=" + dec(hot.size()) +
           " chunks=" + dec(numChunks) + " levels=" +
           dec(part.numLevels()) + " clusters=" + dec(part.clusters) +
           "\n";
    out += "#include <cstdint>\n\n";

    // One exported function per chunk, declared here and defined in
    // the later translation units. Each step stores its slot only when
    // the value changed, accumulating the consumer chunks' dirty bits
    // in locals; the accumulated words are published once at the end
    // with relaxed atomic ORs into the caller's chunk bitmap, which
    // sim::Simulator drains in ascending chunk id on one thread (every
    // bit a chunk publishes belongs to a later level, so a higher id).
    ChunkUnits units;
    for (uint32_t c = 0; c < numChunks; ++c) {
        const std::string decl =
            "extern \"C\" void " + std::string(kChunkSymbolPrefix) +
            dec(c) +
            "(uint64_t* __restrict__ s, uint64_t* const* __restrict__ "
            "m, uint64_t* __restrict__ d)";
        out += decl + ";\n";
        std::string fn = decl + " {\n  (void)m; (void)d;\n";

        // Dirty words this chunk's outputs can touch, in first-use order.
        std::vector<uint32_t> usedWords;
        // Each name is bound to a local before it is concatenated: GCC 12
        // at -O3 raises a false -Wrestrict on "literal" + std::string&&.
        auto wordVar = [&](uint32_t word) {
            return std::string(1, 'w').append(dec(word));
        };
        std::string body;
        for (uint32_t i : part.chunks[c].steps) {
            const EvalStep &st = hot[i];
            StepParts p = stepParts(d, st);
            const std::string dst = slot(st.dst);

            // Consumer chunks of this step's slot, as (word, mask).
            std::vector<std::pair<uint32_t, uint64_t>> marks;
            for (uint32_t k = part.slotChunksBegin[st.dst];
                 k < part.slotChunksBegin[st.dst + 1]; ++k) {
                uint32_t consumer = part.slotChunks[k];
                uint32_t word = consumer >> 6;
                uint64_t bit = 1ULL << (consumer & 63);
                if (!marks.empty() && marks.back().first == word)
                    marks.back().second |= bit;
                else
                    marks.emplace_back(word, bit);
            }
            if (marks.empty()) {
                // No cross-chunk consumer: a plain store suffices.
                if (p.prelude.empty())
                    body += "  " + dst + " = " + p.expr + ";\n";
                else
                    body += "  { " + p.prelude + dst + " = " + p.expr +
                            "; }\n";
                continue;
            }
            for (const auto &[word, mask] : marks) {
                if (std::find(usedWords.begin(), usedWords.end(), word) ==
                    usedWords.end())
                    usedWords.push_back(word);
            }
            body += "  { " + p.prelude + "const uint64_t nv = " + p.expr +
                    "; if (" + dst + " != nv) { " + dst + " = nv;";
            for (const auto &[word, mask] : marks) {
                const std::string w = wordVar(word);
                body += " " + w + " |= " + hexU64(mask) + ";";
            }
            body += " } }\n";
        }
        std::sort(usedWords.begin(), usedWords.end());
        for (uint32_t word : usedWords) {
            const std::string w = wordVar(word);
            fn += "  uint64_t " + w + " = 0ull;\n";
        }
        fn += body;
        for (uint32_t word : usedWords) {
            const std::string w = wordVar(word);
            fn += "  if (" + w + ") __atomic_fetch_or(d + " + dec(word) +
                  ", " + w + ", __ATOMIC_RELAXED);\n";
        }
        fn += "}\n\n";
        units.add(fn, part.chunks[c].steps.size());
    }
    if (numChunks > 0)
        out += "\n";

    // Sequential full sweep over all chunks (chunk ids are level-major,
    // hence topologically ordered); dirty marks land in a scratch
    // bitmap. The runtime uses this for whole-design sanity sweeps —
    // per-cycle evaluation drives the chunk functions directly.
    out += "extern \"C\" void strober_eval(uint64_t* s, uint64_t* const* "
           "m) {\n";
    if (numChunks == 0) {
        out += "  (void)s; (void)m;\n";
    } else {
        out += "  uint64_t scratch[" + dec(words) + "] = {0};\n";
        for (uint32_t c = 0; c < numChunks; ++c)
            out += "  " + std::string(kChunkSymbolPrefix) + dec(c) +
                   "(s, m, scratch);\n";
    }
    out += "}\n\n";

    emitCommit(out, d, plan);
    emitStamps(out, d, plan, numChunks);
    out += units.text();
    return out;
}

} // namespace codegen
} // namespace strober
