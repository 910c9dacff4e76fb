/**
 * @file
 * The "boom-like" target: a parameterized superscalar out-of-order RV32IM
 * core (paper Table II: fetch/issue width 1 or 2, issue window, ROB,
 * physical register file) with
 *   - explicit register renaming (rename table + free list + busy table),
 *   - a unified issue window with oldest-first select,
 *   - one full-capability issue port (ALU/mem/mul/div/branch) plus an
 *     ALU-only second port at width 2,
 *   - a store queue drained at commit; loads issue out of order but are
 *     conservatively blocked by any older in-flight store,
 *   - one outstanding branch/jalr with a rename-table checkpoint and
 *     execute-time recovery; the fetch stage predecodes jal and applies
 *     a static BTFN prediction (the paper BOOM's "simple branch
 *     predictor"), re-checked at execute,
 *   - the shared retime-annotated multiplier and iterative divider, and
 *   - the same L1 caches (16 KiB, optionally 2-way) and SoC interface
 *     as the in-order core, plus hpmcounter3/4 cache-miss CSRs.
 */

#include "cores/cache.h"
#include "cores/decoder.h"
#include "cores/exec_units.h"
#include "cores/rtl_util.h"
#include "cores/soc.h"
#include "cores/soc_internal.h"
#include "util/bits.h"
#include "util/logging.h"

namespace strober {
namespace cores {

namespace {

/** Modular pointer math for circular structures. Pointers live in
 *  [0, 2*depth) so occupancy/age are unambiguous (wrap-bit style). */
struct CircMath
{
    Builder &b;
    uint64_t depth;
    unsigned ptrW;
    unsigned idxW;

    CircMath(Builder &builder, uint64_t d)
        : b(builder), depth(d), ptrW(clog2(2 * d)),
          idxW(std::max(1u, clog2(d)))
    {
    }

    Signal
    add(Signal p, uint64_t k) const
    {
        Signal wide = b.pad(p, ptrW + 2) + b.lit(k, ptrW + 2);
        Signal m = b.lit(2 * depth, ptrW + 2);
        Signal wrapped = b.mux(geu(wide, m), wide - m, wide);
        return wrapped.bits(ptrW - 1, 0);
    }

    /** Variable advance by 0..3. */
    Signal
    addVar(Signal p, Signal k) const
    {
        Signal wide = b.pad(p, ptrW + 2) + b.pad(k, ptrW + 2);
        Signal m = b.lit(2 * depth, ptrW + 2);
        Signal wrapped = b.mux(geu(wide, m), wide - m, wide);
        return wrapped.bits(ptrW - 1, 0);
    }

    /** (a - c) mod 2*depth — occupancy or age. */
    Signal
    sub(Signal a, Signal c) const
    {
        Signal aw = b.pad(a, ptrW + 2);
        Signal cw = b.pad(c, ptrW + 2);
        Signal m = b.lit(2 * depth, ptrW + 2);
        Signal diff = b.mux(geu(aw, cw), aw - cw, aw + m - cw);
        return diff.bits(ptrW - 1, 0);
    }

    /** Slot index (p mod depth). */
    Signal
    idx(Signal p) const
    {
        Signal d = b.lit(depth, ptrW);
        Signal r = b.mux(geu(p, d), p - d, p);
        return b.resize(r, idxW);
    }
};

/** Oldest-first select over eligible entries. */
struct SelectResult
{
    Signal found;
    Signal index;
};

SelectResult
selectOldest(Builder &b, const std::vector<Signal> &eligible,
             const std::vector<Signal> &age, unsigned idxW)
{
    struct Cand
    {
        Signal elig, age, idx;
    };
    std::vector<Cand> cands;
    for (size_t i = 0; i < eligible.size(); ++i)
        cands.push_back({eligible[i], age[i], b.lit(i, idxW)});
    while (cands.size() > 1) {
        std::vector<Cand> next;
        for (size_t i = 0; i + 1 < cands.size(); i += 2) {
            const Cand &x = cands[i];
            const Cand &y = cands[i + 1];
            Signal pickX = x.elig & ((!y.elig) | ltu(x.age, y.age));
            next.push_back({x.elig | y.elig, b.mux(pickX, x.age, y.age),
                            b.mux(pickX, x.idx, y.idx)});
        }
        if (cands.size() % 2)
            next.push_back(cands.back());
        cands = std::move(next);
    }
    return {cands[0].elig, cands[0].idx};
}

// pCtrl payload bit positions.
enum CtrlBits : unsigned {
    kCtlAluFnLo = 0,  // [3:0]
    kCtlUseImm = 4,
    kCtlUsePc = 5,
    kCtlF3Lo = 6,     // [8:6]
    kCtlMulModeLo = 9, // [10:9]
    kCtlDivS = 11,
    kCtlDivR = 12,
    kCtlCsrSelLo = 13, // [15:13]
    kCtlIsJal = 16,
    kCtlIsJalr = 17,
    kCtlIsBranch = 18,
    kCtlIsCsr = 19,
    kCtlWritesRd = 20,
    kCtlPredTaken = 21, //!< BTFN static prediction made at dispatch
    kCtlWidth = 22,
};

// robFlags bit positions.
enum RobFlagBits : unsigned {
    kRfWritesRd = 0,
    kRfIsStore = 1,
    kRfIsEcall = 2,
    kRfIsCsr = 3,
};

} // namespace

rtl::Design
buildBoomSoc(const SocConfig &config)
{
    const unsigned W = config.issueWidth;
    if (W < 1 || W > 2 || config.fetchWidth != W)
        fatal("boom-like core supports matched fetch/issue width 1 or 2");
    const unsigned Q = config.issueSlots;
    const unsigned R = config.robSize;
    const unsigned P = config.physRegs;
    const unsigned SQ = config.storeQueue;
    const unsigned pregW = clog2(P);
    const unsigned iqIdxW = std::max(1u, clog2(Q));
    if (P < 34)
        fatal("need at least 34 physical registers");

    Builder b(config.name);
    MemWires mem = makeMemWires(b);
    CircMath rob(b, R), fl(b, P), stq(b, SQ), fb(b, 8);
    const unsigned tagW = rob.ptrW;

    Signal zero32 = b.lit(0, 32);
    Signal zero1 = b.lit(0, 1);
    Signal one1 = b.lit(1, 1);

    // =====================================================================
    // State.
    // =====================================================================
    b.pushScope("core");

    b.pushScope("fetch");
    Signal pc = b.reg("pc", 32, 0);
    rtl::MemHandle fbMem = b.mem("buffer", 64, 8, false);
    Signal fbHead = b.reg("head", fb.ptrW, 0);
    Signal fbTail = b.reg("tail", fb.ptrW, 0);
    b.popScope();

    b.pushScope("rename");
    std::vector<Signal> renameTable(32), ckptTable(32);
    for (unsigned i = 0; i < 32; ++i) {
        renameTable[i] = b.reg("map" + std::to_string(i), pregW, i);
        ckptTable[i] = b.reg("ckpt" + std::to_string(i), pregW, 0);
    }
    rtl::MemHandle flMem = b.mem("freelist", pregW, P, false);
    {
        // Pregs 0..31 back the initial architectural mappings; the free
        // list starts holding pregs 32..P-1.
        std::vector<uint64_t> freePregs;
        for (unsigned i = 32; i < P; ++i)
            freePregs.push_back(i);
        b.memInit(flMem, std::move(freePregs));
    }
    Signal flHead = b.reg("fl_head", fl.ptrW, 0);
    Signal flTail = b.reg("fl_tail", fl.ptrW, P - 32);
    Signal ckptFlHead = b.reg("ckpt_fl_head", fl.ptrW, 0);
    Signal ckptStqTail = b.reg("ckpt_stq_tail", stq.ptrW, 0);
    Signal branchOut = b.reg("branch_outstanding", 1, 0);
    Signal branchTag = b.reg("branch_tag", tagW, 0);
    std::vector<Signal> busy(P);
    for (unsigned i = 0; i < P; ++i)
        busy[i] = b.reg("busy" + std::to_string(i), 1, 0);
    b.popScope();

    b.pushScope("rob");
    rtl::MemHandle robPcM = b.mem("pc", 32, R, false);
    rtl::MemHandle robInstM = b.mem("inst", 32, R, false);
    rtl::MemHandle robArchRdM = b.mem("arch_rd", 5, R, false);
    rtl::MemHandle robPregM = b.mem("preg", pregW, R, false);
    rtl::MemHandle robOldPregM = b.mem("old_preg", pregW, R, false);
    rtl::MemHandle robFlagsM = b.mem("flags", 4, R, false);
    Signal robHead = b.reg("head", tagW, 0);
    Signal robTail = b.reg("tail", tagW, 0);
    std::vector<Signal> robDone(R);
    for (unsigned i = 0; i < R; ++i)
        robDone[i] = b.reg("done" + std::to_string(i), 1, 0);
    b.popScope();

    b.pushScope("issue");
    rtl::MemHandle pImmM = b.mem("imm", 32, R, false);
    rtl::MemHandle pPcM = b.mem("pc", 32, R, false);
    rtl::MemHandle pCtrlM = b.mem("ctrl", kCtlWidth, R, false);
    struct IqEntry
    {
        Signal valid, robTag, dst, src1, src2, rdy1, rdy2, fu, isLoad,
            isBrLike, wrRd, stqPtr;
    };
    std::vector<IqEntry> iq(Q);
    for (unsigned i = 0; i < Q; ++i) {
        std::string n = 'e' + std::to_string(i) + "_";
        iq[i].valid = b.reg(n + "valid", 1, 0);
        iq[i].robTag = b.reg(n + "rob", tagW, 0);
        iq[i].dst = b.reg(n + "dst", pregW, 0);
        iq[i].src1 = b.reg(n + "src1", pregW, 0);
        iq[i].src2 = b.reg(n + "src2", pregW, 0);
        iq[i].rdy1 = b.reg(n + "rdy1", 1, 0);
        iq[i].rdy2 = b.reg(n + "rdy2", 1, 0);
        iq[i].fu = b.reg(n + "fu", 2, 0);
        iq[i].isLoad = b.reg(n + "is_load", 1, 0);
        iq[i].isBrLike = b.reg(n + "is_br", 1, 0);
        iq[i].wrRd = b.reg(n + "wr_rd", 1, 0);
        iq[i].stqPtr = b.reg(n + "stq", stq.ptrW, 0);
    }
    b.popScope();

    b.pushScope("regfile");
    rtl::MemHandle prf = b.mem("prf", 32, P, false);
    b.popScope();

    b.pushScope("lsu");
    Signal lsuValid = b.reg("valid", 1, 0);
    Signal lsuTag = b.reg("rob", tagW, 0);
    Signal lsuDst = b.reg("dst", pregW, 0);
    Signal lsuWr = b.reg("wr_rd", 1, 0);
    Signal lsuF3 = b.reg("f3", 3, 0);
    Signal lsuAddr = b.reg("addr", 32, 0);
    struct StqEntry
    {
        Signal valid, robTag, addr, data, strb, isMmio;
    };
    std::vector<StqEntry> stqE(SQ);
    for (unsigned i = 0; i < SQ; ++i) {
        std::string n = 'q' + std::to_string(i) + "_";
        stqE[i].valid = b.reg(n + "valid", 1, 0);
        stqE[i].robTag = b.reg(n + "rob", tagW, 0);
        stqE[i].addr = b.reg(n + "addr", 32, 0);
        stqE[i].data = b.reg(n + "data", 32, 0);
        stqE[i].strb = b.reg(n + "strb", 4, 0);
        stqE[i].isMmio = b.reg(n + "mmio", 1, 0);
    }
    Signal stqHead = b.reg("head", stq.ptrW, 0);
    Signal stqTail = b.reg("tail", stq.ptrW, 0);
    b.popScope();

    b.pushScope("mulpipe");
    std::vector<Signal> mulV(3), mulTag(3), mulDst(3);
    for (unsigned i = 0; i < 3; ++i) {
        std::string n = 's' + std::to_string(i) + "_";
        mulV[i] = b.reg(n + "v", 1, 0);
        mulTag[i] = b.reg(n + "rob", tagW, 0);
        mulDst[i] = b.reg(n + "dst", pregW, 0);
    }
    b.popScope();

    b.pushScope("divunit");
    Signal divV = b.reg("v", 1, 0);
    Signal divTag = b.reg("rob", tagW, 0);
    Signal divDst = b.reg("dst", pregW, 0);
    b.popScope();

    b.pushScope("csr");
    Signal cycleCtr = b.reg("cycle", 64, 0);
    Signal instretCtr = b.reg("instret", 64, 0);
    Signal imissCtr = b.reg("imiss", 32, 0);
    Signal dmissCtr = b.reg("dmiss", 32, 0);
    Signal halted = b.reg("halted", 1, 0);
    b.next(cycleCtr, cycleCtr + b.lit(1, 64));
    b.popScope();

    b.popScope(); // core

    // Forward wires.
    Signal mispredict = b.wire("mispredict", 1);
    Signal mispredictTarget = b.wire("mispredict_target", 32);
    Signal haltFire = b.wire("halt_fire", 1);
    Signal storeDrainReq = b.wire("store_drain_req", 1);
    Signal storeDrainOk = b.wire("store_drain_ok", 1);
    std::vector<Signal> wbTagValid(5), wbTagSig(5);
    for (unsigned i = 0; i < 5; ++i) {
        wbTagValid[i] = b.wire("wb_tag_v" + std::to_string(i), 1);
        wbTagSig[i] = b.wire("wb_tag" + std::to_string(i), pregW);
    }

    auto wakeupHit = [&](Signal src) {
        Signal hit = zero1;
        for (unsigned i = 0; i < 5; ++i)
            hit = hit | (wbTagValid[i] & eq(wbTagSig[i], src));
        return hit;
    };
    auto ageOf = [&](Signal tag) { return rob.sub(tag, robHead); };
    auto youngerThanBranch = [&](Signal tag) {
        return ltu(ageOf(branchTag), ageOf(tag));
    };

    // =====================================================================
    // Frontend.
    // =====================================================================
    Signal fbCount = fb.sub(fbTail, fbHead);
    CacheInputs icIn;
    icIn.reqValid = !halted;
    icIn.reqAddr = pc;
    icIn.reqWrite = zero1;
    icIn.reqWdata = zero32;
    icIn.reqWstrb = b.lit(0, 4);
    icIn.memReqReady = mem.iReqReady;
    icIn.memRespValid = mem.iRespValid;
    icIn.memRespData = mem.respData;
    CacheIO icache = buildCache(b, "icache", config.icacheBytes, icIn, config.cacheWays);

    b.pushScope("core");
    b.pushScope("fetch");
    Signal lineLo = icache.respLine.bits(31, 0);
    Signal lineHi = icache.respLine.bits(63, 32);
    Signal inst0 = b.mux(pc.bit(2), lineHi, lineLo);
    Signal redirect = mispredict | haltFire;

    // Fetch-stage predecode: jal and BTFN backward branches steer the PC
    // here (the "simple branch predictor"); only correct-path slots are
    // enqueued. Conditional-branch predictions are re-checked at execute.
    auto predecode = [&](Signal inst, Signal instPc, Signal &target) {
        Signal isJalI = eqImm(inst.bits(6, 0), 0x6f);
        Signal isBrI = eqImm(inst.bits(6, 0), 0x63);
        Signal back = inst.bit(31);
        Signal immJ = b.sext(
            b.catAll({inst.bit(31), inst.bits(19, 12), inst.bit(20),
                      inst.bits(30, 21), b.lit(0, 1)}),
            32);
        Signal immB = b.sext(
            b.catAll({inst.bit(31), inst.bit(7), inst.bits(30, 25),
                      inst.bits(11, 8), b.lit(0, 1)}),
            32);
        target = instPc + b.mux(isJalI, immJ, immB);
        return isJalI | (isBrI & back);
    };
    Signal pcPlus4 = pc + b.lit(4, 32);
    Signal target0, target1;
    Signal taken0 = predecode(inst0, pc, target0);
    Signal taken1 = W == 2 ? predecode(lineHi, pcPlus4, target1) : zero1;

    Signal canFetch1 =
        icache.respValid & ltu(fbCount, b.lit(8, fb.ptrW)) & !halted;
    Signal canFetch2 = W == 2
                           ? (icache.respValid & !pc.bit(2) &
                              ltu(fbCount, b.lit(7, fb.ptrW)) & !halted &
                              !taken0)
                           : zero1;
    Signal doF1 = canFetch1 & !redirect;
    Signal doF2 = canFetch2 & !redirect;
    b.memWrite(fbMem, fb.idx(fbTail), b.cat(pc, inst0), doF1);
    b.memWrite(fbMem, fb.idx(fb.add(fbTail, 1)), b.cat(pcPlus4, lineHi),
               doF2);
    Signal fetchedN = b.pad(b.cat(doF2 & doF1, doF1 & !doF2), 2);
    // fetchedN: 2 when both, 1 when only first.
    Signal fbTailNext =
        b.mux(redirect, b.lit(0, fb.ptrW), fb.addVar(fbTail, fetchedN));
    b.next(fbTail, fbTailNext);
    std::vector<std::pair<Signal, Signal>> pcCases;
    pcCases.push_back({redirect, mispredictTarget});
    pcCases.push_back({doF1 & taken0, target0});
    if (W == 2) {
        pcCases.push_back({doF2 & taken1, target1});
        pcCases.push_back({doF2, pc + b.lit(8, 32)});
    }
    pcCases.push_back({doF1, pcPlus4});
    b.next(pc, muxChain(b, pc, pcCases));
    b.popScope(); // fetch

    // =====================================================================
    // Dispatch.
    // =====================================================================
    b.pushScope("dispatch");
    Signal flCount = fl.sub(flTail, flHead);
    Signal robCount = rob.sub(robTail, robHead);

    auto busyAt = [&](Signal src) { return b.select(src, busy); };

    // IQ free-slot search (two-deep priority encode).
    Signal free0Found = zero1, free0Idx = b.lit(0, iqIdxW);
    Signal free1Found = zero1, free1Idx = b.lit(0, iqIdxW);
    for (unsigned i = Q; i-- > 0;) {
        Signal here = !iq[i].valid;
        // Shift: current first-free becomes second-free.
        free1Found = b.mux(here, free0Found, free1Found);
        free1Idx = b.mux(here, free0Idx, free1Idx);
        free0Found = b.mux(here, one1, free0Found);
        free0Idx = b.mux(here, b.lit(i, iqIdxW), free0Idx);
    }

    struct DispSlot
    {
        Signal avail, pc, inst;
        DecodedCtrl dec;
        Signal isBr;      //!< branch or jalr (checkpointed)
        Signal fu;
        Signal robTag;
        Signal newPreg, oldPreg, ps1, ps2, rdy1, rdy2;
        Signal stqPtr;
        Signal dispatch;
    };
    std::vector<DispSlot> sl(W);

    for (unsigned k = 0; k < W; ++k) {
        DispSlot &s = sl[k];
        s.avail = ltu(b.lit(k, fb.ptrW), fbCount);
        Signal entry = b.memRead(fbMem, fb.idx(fb.add(fbHead, k)));
        s.pc = entry.bits(63, 32);
        s.inst = entry.bits(31, 0);
        s.dec = buildDecoder(b, "dec" + std::to_string(k), s.inst);
        s.isBr = s.dec.isBranch | s.dec.isJalr;
        s.fu = muxChain(b, b.lit(0, 2),
                        {{s.dec.isMem, b.lit(1, 2)},
                         {s.dec.isMul, b.lit(2, 2)},
                         {s.dec.isDiv, b.lit(3, 2)}});
        s.robTag = rob.add(robTail, k);
        if (k == 0)
            s.stqPtr = stqTail; // slot 1's pointer is set after slot 0's
    }                           // dispatch decision exists

    // Slot 0 resources and decision.
    Signal stqFull0 = b.select(stq.idx(stqTail), [&] {
        std::vector<Signal> v;
        for (unsigned i = 0; i < SQ; ++i)
            v.push_back(stqE[i].valid);
        return v;
    }());
    Signal blocked = mispredict | haltFire | halted;
    {
        DispSlot &s = sl[0];
        Signal needP = s.dec.writesRd;
        Signal okFl = (!needP) | geu(flCount, b.lit(1, fl.ptrW));
        Signal okRob = ltu(robCount, b.lit(R, tagW));
        Signal okIq = s.dec.isEcall | free0Found;
        Signal okStq = (!s.dec.isStore) | (!stqFull0);
        Signal okBr = (!s.isBr) | (!branchOut);
        s.dispatch =
            s.avail & !blocked & okFl & okRob & okIq & okStq & okBr;
        auto tap = [&](const char *n, Signal v) {
            Signal w = b.wire(n, 1);
            b.assign(w, v);
        };
        tap("dbg_avail0", s.avail);
        tap("dbg_okfl0", okFl);
        tap("dbg_okrob0", okRob);
        tap("dbg_okiq0", okIq);
        tap("dbg_okstq0", okStq);
        tap("dbg_okbr0", okBr);
        s.newPreg = b.memRead(flMem, fl.idx(flHead));
        s.oldPreg = b.select(s.dec.rd, renameTable);
        s.ps1 = b.select(s.dec.rs1, renameTable);
        s.ps2 = b.select(s.dec.rs2, renameTable);
        s.rdy1 = (!s.dec.usesRs1) | (!busyAt(s.ps1)) | wakeupHit(s.ps1);
        s.rdy2 = (!s.dec.usesRs2) | (!busyAt(s.ps2)) | wakeupHit(s.ps2);
    }

    if (W == 2) {
        DispSlot &s = sl[1];
        DispSlot &p = sl[0];
        s.stqPtr =
            stq.addVar(stqTail, b.pad(p.dec.isStore & p.dispatch, 2));
        Signal needP = s.dec.writesRd;
        Signal pNeedP = p.dec.writesRd;
        Signal flNeed = b.pad(needP, 2) + b.pad(pNeedP, 2);
        Signal okFl = geu(b.resize(flCount, 8), b.pad(flNeed, 8));
        Signal okRob = ltu(robCount, b.lit(R - 1, tagW));
        Signal okIq = s.dec.isEcall |
                      b.mux(p.dec.isEcall, free0Found, free1Found);
        Signal stqFull1 = b.select(stq.idx(s.stqPtr), [&] {
            std::vector<Signal> v;
            for (unsigned i = 0; i < SQ; ++i)
                v.push_back(stqE[i].valid);
            return v;
        }());
        Signal okStq = (!s.dec.isStore) | (!stqFull1);
        Signal okBr = (!s.isBr) | ((!branchOut) & (!p.isBr));
        // Stop slot 1 only after ecall; control flow is already steered
        // at fetch, so the buffer holds correct-path instructions after
        // jals and predicted-taken branches.
        Signal pStops = p.dec.isEcall;
        s.dispatch = p.dispatch & !pStops & s.avail & okFl & okRob &
                     okIq & okStq & okBr;
        s.newPreg = b.memRead(
            flMem, fl.idx(fl.addVar(flHead, b.pad(pNeedP, 2))));
        // Intra-group rename bypass from slot 0.
        Signal pWr = p.dispatch & pNeedP;
        auto renamed = [&](Signal rs) {
            Signal base = b.select(rs, renameTable);
            return b.mux(pWr & eq(p.dec.rd, rs), p.newPreg, base);
        };
        s.ps1 = renamed(s.dec.rs1);
        s.ps2 = renamed(s.dec.rs2);
        s.oldPreg = renamed(s.dec.rd);
        // Sources produced by slot 0 are not ready yet by definition.
        Signal dep1 = pWr & eq(p.dec.rd, s.dec.rs1);
        Signal dep2 = pWr & eq(p.dec.rd, s.dec.rs2);
        s.rdy1 = (!s.dec.usesRs1) |
                 ((!dep1) & ((!busyAt(s.ps1)) | wakeupHit(s.ps1)));
        s.rdy2 = (!s.dec.usesRs2) |
                 ((!dep2) & ((!busyAt(s.ps2)) | wakeupHit(s.ps2)));
    }

    // Dispatch side effects.
    Signal disp0 = sl[0].dispatch;
    Signal disp1 = W == 2 ? sl[1].dispatch : zero1;
    Signal nDisp = b.pad(disp0, 2) + b.pad(disp1, 2);

    // Debug/statistics taps (also used by the bench harnesses).
    {
        Signal dbgD0 = b.wire("dbg_disp0", 1);
        b.assign(dbgD0, disp0);
        Signal dbgD1 = b.wire("dbg_disp1", 1);
        b.assign(dbgD1, disp1);
    }

    for (unsigned k = 0; k < W; ++k) {
        DispSlot &s = sl[k];
        Signal en = s.dispatch;
        Signal robIdx = rob.idx(s.robTag);
        b.memWrite(robPcM, robIdx, s.pc, en);
        b.memWrite(robInstM, robIdx, s.inst, en);
        b.memWrite(robArchRdM, robIdx, s.dec.rd, en);
        b.memWrite(robPregM, robIdx, s.newPreg, en);
        b.memWrite(robOldPregM, robIdx, s.oldPreg, en);
        Signal flags = b.catAll({s.dec.isCsr, s.dec.isEcall,
                                 s.dec.isStore, s.dec.writesRd});
        b.memWrite(robFlagsM, robIdx, flags, en);

        // Payload: jal's ALU op computes the link, so force imm=4,
        // usePc, add. jalr keeps its original imm (target adder) and the
        // link is selected at exec.
        Signal imm = b.mux(s.dec.isJal, b.lit(4, 32), s.dec.imm);
        b.memWrite(pImmM, robIdx, imm, en);
        b.memWrite(pPcM, robIdx, s.pc, en);
        // BTFN: predict backward conditional branches taken at dispatch.
        Signal predTaken = s.dec.isBranch & s.dec.imm.bit(31);
        Signal ctrl = b.catAll(
            {predTaken, s.dec.writesRd, s.dec.isCsr, s.dec.isBranch,
             s.dec.isJalr, s.dec.isJal, s.dec.csrSel, s.dec.divRem,
             s.dec.divSigned, s.dec.mulMode, s.dec.funct3,
             s.dec.aluUsePc | s.dec.isJal,
             s.dec.aluUseImm | s.dec.isJal, s.dec.aluFn});
        b.memWrite(pCtrlM, robIdx, ctrl, en);

        // (STQ allocation happens in the update section below.)
    }

    b.popScope(); // dispatch
    b.popScope(); // core

    // =====================================================================
    // Issue select.
    // =====================================================================
    b.pushScope("core");
    b.pushScope("issue");

    // Older-store blocking per entry.
    std::vector<Signal> entryAge(Q), elig0(Q);
    Signal dcacheFreeForLoad = (!lsuValid) & (!storeDrainReq);
    for (unsigned i = 0; i < Q; ++i) {
        const IqEntry &e = iq[i];
        entryAge[i] = ageOf(e.robTag);
        Signal olderStore = zero1;
        for (unsigned sI = 0; sI < SQ; ++sI) {
            olderStore =
                olderStore | (stqE[sI].valid &
                              ltu(ageOf(stqE[sI].robTag), entryAge[i]));
        }
        Signal fuOk = muxChain(
            b, one1,
            {{eqImm(e.fu, 1) & e.isLoad,
              dcacheFreeForLoad & !olderStore},
             {eqImm(e.fu, 3), !divV}});
        elig0[i] = e.valid & e.rdy1 & e.rdy2 & fuOk;
    }
    SelectResult sel0 = selectOldest(b, elig0, entryAge, iqIdxW);

    auto iqField = [&](Signal index, auto getter) {
        std::vector<Signal> v;
        for (unsigned i = 0; i < Q; ++i)
            v.push_back(getter(iq[i]));
        return b.select(index, v);
    };

    Signal issued0 = sel0.found;
    Signal e0Tag = iqField(sel0.index, [](const IqEntry &e) {
        return e.robTag;
    });
    Signal e0Dst = iqField(sel0.index, [](const IqEntry &e) {
        return e.dst;
    });
    Signal e0Src1 = iqField(sel0.index, [](const IqEntry &e) {
        return e.src1;
    });
    Signal e0Src2 = iqField(sel0.index, [](const IqEntry &e) {
        return e.src2;
    });
    Signal e0Fu = iqField(sel0.index, [](const IqEntry &e) {
        return e.fu;
    });
    Signal e0IsLoad = iqField(sel0.index, [](const IqEntry &e) {
        return e.isLoad;
    });
    Signal e0IsBr = iqField(sel0.index, [](const IqEntry &e) {
        return e.isBrLike;
    });
    Signal e0WrRd = iqField(sel0.index, [](const IqEntry &e) {
        return e.wrRd;
    });
    Signal e0Stq = iqField(sel0.index, [](const IqEntry &e) {
        return e.stqPtr;
    });

    Signal issued1 = zero1, e1Tag, e1Dst, e1Src1, e1Src2, e1WrRd;
    SelectResult sel1{zero1, b.lit(0, iqIdxW)};
    if (W == 2) {
        std::vector<Signal> elig1(Q);
        for (unsigned i = 0; i < Q; ++i) {
            const IqEntry &e = iq[i];
            Signal takenBy0 =
                issued0 & eq(sel0.index, b.lit(i, iqIdxW));
            elig1[i] = e.valid & e.rdy1 & e.rdy2 & eqImm(e.fu, 0) &
                       !e.isBrLike & !takenBy0;
        }
        sel1 = selectOldest(b, elig1, entryAge, iqIdxW);
        issued1 = sel1.found;
        e1Tag = iqField(sel1.index, [](const IqEntry &e) {
            return e.robTag;
        });
        e1Dst = iqField(sel1.index, [](const IqEntry &e) {
            return e.dst;
        });
        e1Src1 = iqField(sel1.index, [](const IqEntry &e) {
            return e.src1;
        });
        e1Src2 = iqField(sel1.index, [](const IqEntry &e) {
            return e.src2;
        });
        e1WrRd = iqField(sel1.index, [](const IqEntry &e) {
            return e.wrRd;
        });
    }
    {
        Signal dbgI0 = b.wire("dbg_issued0", 1);
        b.assign(dbgI0, issued0);
        Signal dbgI1 = b.wire("dbg_issued1", 1);
        b.assign(dbgI1, issued1);
    }
    b.popScope(); // issue
    b.popScope(); // core

    // =====================================================================
    // Execute.
    // =====================================================================
    b.pushScope("core");
    b.pushScope("execute");

    auto ctrlOf = [&](Signal robIdx) { return b.memRead(pCtrlM, robIdx); };

    // ---- Port 0 (full capability) --------------------------------------
    Signal e0Idx = rob.idx(e0Tag);
    Signal c0 = ctrlOf(e0Idx);
    Signal imm0 = b.memRead(pImmM, e0Idx);
    Signal ppc0 = b.memRead(pPcM, e0Idx);
    Signal aluFn0 = c0.bits(kCtlAluFnLo + 3, kCtlAluFnLo);
    Signal useImm0 = c0.bit(kCtlUseImm);
    Signal usePc0 = c0.bit(kCtlUsePc);
    Signal f3_0 = c0.bits(kCtlF3Lo + 2, kCtlF3Lo);
    Signal mulMode0 = c0.bits(kCtlMulModeLo + 1, kCtlMulModeLo);
    Signal divS0 = c0.bit(kCtlDivS);
    Signal divR0 = c0.bit(kCtlDivR);
    Signal csrSel0 = c0.bits(kCtlCsrSelLo + 2, kCtlCsrSelLo);
    Signal isJal0 = c0.bit(kCtlIsJal);
    Signal isJalr0 = c0.bit(kCtlIsJalr);
    Signal isBranch0 = c0.bit(kCtlIsBranch);
    Signal isCsr0 = c0.bit(kCtlIsCsr);

    Signal rs1v0 = b.memRead(prf, e0Src1);
    Signal rs2v0 = b.memRead(prf, e0Src2);

    Signal aluOp1 = b.mux(usePc0, ppc0, rs1v0);
    Signal aluOp2 = b.mux(useImm0, imm0, rs2v0);
    Signal aluRes0 = buildAlu(b, "alu0", aluFn0, aluOp1, aluOp2);
    Signal link0 = ppc0 + b.lit(4, 32);
    Signal brTaken = buildBranchUnit(b, "branch", f3_0, rs1v0, rs2v0);
    Signal brTarget = ppc0 + imm0;
    Signal jalrTarget = (rs1v0 + imm0) & b.lit(0xfffffffe, 32);
    Signal csrVal = b.select(csrSel0,
                             {cycleCtr.bits(31, 0), instretCtr.bits(31, 0),
                              cycleCtr.bits(63, 32),
                              instretCtr.bits(63, 32), imissCtr,
                              dmissCtr});
    Signal res0 = muxChain(b, aluRes0,
                           {{isJal0 | isJalr0, link0}, {isCsr0, csrVal}});

    // Branch resolution against the BTFN prediction made at dispatch.
    Signal predTaken0 = c0.bit(kCtlPredTaken);
    Signal resolve = issued0 & e0IsBr;
    Signal misp =
        resolve & (isJalr0 | (isBranch0 & (brTaken ^ predTaken0)));
    b.assign(mispredict, misp);
    Signal actualNext = b.mux(brTaken, brTarget, link0);
    b.assign(mispredictTarget, b.mux(isJalr0, jalrTarget, actualNext));

    // Memory address generation (loads and stores share the adder).
    Signal memAddr = rs1v0 + imm0;
    Signal byteOff = memAddr.bits(1, 0);
    Signal shiftAmt = b.pad(b.cat(byteOff, b.lit(0, 3)), 32);
    Signal storeData = shl(rs2v0, shiftAmt);
    Signal strbByte = shl(b.lit(1, 4), b.pad(byteOff, 4));
    Signal strbHalf = shl(b.lit(3, 4), b.pad(byteOff, 4));
    Signal storeStrb = b.select(f3_0.bits(1, 0),
                                {strbByte, strbHalf, b.lit(0xf, 4),
                                 b.lit(0xf, 4)});
    Signal isMmioAddr = eqImm(memAddr.bits(31, 28), 0x4);

    Signal isStoreOp = issued0 & eqImm(e0Fu, 1) & !e0IsLoad;
    Signal isLoadOp = issued0 & eqImm(e0Fu, 1) & e0IsLoad;
    Signal isMulOp = issued0 & eqImm(e0Fu, 2);
    Signal isDivOp = issued0 & eqImm(e0Fu, 3);
    Signal isAluOp = issued0 & eqImm(e0Fu, 0);

    // STQ fill at store execution.
    for (unsigned i = 0; i < SQ; ++i) {
        Signal hit = isStoreOp & eqImm(stq.idx(e0Stq), i);
        b.next(stqE[i].addr, memAddr, hit);
        b.next(stqE[i].data, storeData, hit);
        b.next(stqE[i].strb, storeStrb, hit);
        b.next(stqE[i].isMmio, isMmioAddr, hit);
    }

    // Multiplier pipeline (retimed datapath + side bookkeeping).
    MulPipe mulPipe =
        buildMulPipe(b, "mul", rs1v0, rs2v0, mulMode0, isMulOp);
    Signal killYoung = misp; // squash in-flight younger ops
    Signal mulKill0 = killYoung & youngerThanBranch(e0Tag);
    b.next(mulV[0], isMulOp & !mulKill0);
    b.next(mulTag[0], e0Tag, isMulOp);
    b.next(mulDst[0], e0Dst, isMulOp);
    for (unsigned i = 1; i < 3; ++i) {
        Signal kill = killYoung & youngerThanBranch(mulTag[i - 1]);
        b.next(mulV[i], mulV[i - 1] & !kill);
        b.next(mulTag[i], mulTag[i - 1]);
        b.next(mulDst[i], mulDst[i - 1]);
    }

    // Divider.
    DivUnit div = buildDivider(
        b, "div", isDivOp, rs1v0, rs2v0, divS0, divR0,
        killYoung & divV & youngerThanBranch(divTag));
    Signal divKill0 = killYoung & youngerThanBranch(e0Tag);
    b.next(divV, b.mux(isDivOp, !divKill0,
                       divV & !div.done &
                           !(killYoung & youngerThanBranch(divTag))));
    b.next(divTag, e0Tag, isDivOp);
    b.next(divDst, e0Dst, isDivOp);

    // ---- Port 1 (ALU only) ----------------------------------------------
    Signal res1, wb1Valid = zero1;
    if (W == 2) {
        Signal e1Idx = rob.idx(e1Tag);
        Signal c1 = ctrlOf(e1Idx);
        Signal imm1 = b.memRead(pImmM, e1Idx);
        Signal ppc1 = b.memRead(pPcM, e1Idx);
        Signal rs1v1 = b.memRead(prf, e1Src1);
        Signal rs2v1 = b.memRead(prf, e1Src2);
        Signal aluFn1 = c1.bits(kCtlAluFnLo + 3, kCtlAluFnLo);
        Signal op1a = b.mux(c1.bit(kCtlUsePc), ppc1, rs1v1);
        Signal op1b = b.mux(c1.bit(kCtlUseImm), imm1, rs2v1);
        Signal aluRes1 = buildAlu(b, "alu1", aluFn1, op1a, op1b);
        Signal link1 = ppc1 + b.lit(4, 32);
        Signal csrVal1 =
            b.select(c1.bits(kCtlCsrSelLo + 2, kCtlCsrSelLo),
                     {cycleCtr.bits(31, 0), instretCtr.bits(31, 0),
                      cycleCtr.bits(63, 32), instretCtr.bits(63, 32),
                      imissCtr, dmissCtr});
        res1 = muxChain(b, aluRes1,
                        {{c1.bit(kCtlIsJal), link1},
                         {c1.bit(kCtlIsCsr), csrVal1}});
        wb1Valid = issued1 & !(misp & youngerThanBranch(e1Tag));
    }
    b.popScope(); // execute
    b.popScope(); // core

    // =====================================================================
    // LSU and data cache.
    // =====================================================================
    // Drain request from the STQ head (committed store).
    Signal stqHeadIdx = stq.idx(stqHead);
    auto stqField = [&](auto getter) {
        std::vector<Signal> v;
        for (unsigned i = 0; i < SQ; ++i)
            v.push_back(getter(stqE[i]));
        return b.select(stqHeadIdx, v);
    };
    Signal drAddr = stqField([](const StqEntry &e) { return e.addr; });
    Signal drData = stqField([](const StqEntry &e) { return e.data; });
    Signal drStrb = stqField([](const StqEntry &e) { return e.strb; });
    Signal drMmio = stqField([](const StqEntry &e) { return e.isMmio; });

    Signal drainCacheReq = storeDrainReq & !drMmio;
    Signal newLoad = isLoadOp; // from port 0 this cycle
    Signal dReqValid = drainCacheReq | lsuValid | newLoad;
    Signal dAddr = muxChain(b, memAddr,
                            {{drainCacheReq, drAddr},
                             {lsuValid, lsuAddr}});
    CacheInputs dcIn;
    dcIn.reqValid = dReqValid;
    dcIn.reqAddr = b.cat(dAddr.bits(31, 2), b.lit(0, 2));
    dcIn.reqWrite = drainCacheReq;
    dcIn.reqWdata = drData;
    dcIn.reqWstrb = drStrb;
    dcIn.memReqReady = mem.dReqReady;
    dcIn.memRespValid = mem.dRespValid;
    dcIn.memRespData = mem.respData;
    CacheIO dcache = buildCache(b, "dcache", config.dcacheBytes, dcIn, config.cacheWays);

    b.pushScope("core");
    b.pushScope("lsu");
    Signal drainHit = drainCacheReq & dcache.respValid;
    b.assign(storeDrainOk, drainHit | (storeDrainReq & drMmio));

    Signal loadHitNow = newLoad & !drainCacheReq & dcache.respValid;
    Signal heldHit = lsuValid & !drainCacheReq & dcache.respValid;
    Signal loadF3 = b.mux(lsuValid, lsuF3, f3_0);
    Signal loadAddrSel = b.mux(lsuValid, lsuAddr, memAddr);
    Signal lByteOff = loadAddrSel.bits(1, 0);
    Signal lShift = b.pad(b.cat(lByteOff, b.lit(0, 3)), 32);
    Signal rawWord = shru(dcache.respData, lShift);
    Signal loadByte = b.mux(loadF3.bit(2), b.pad(rawWord.bits(7, 0), 32),
                            b.sext(rawWord.bits(7, 0), 32));
    Signal loadHalf = b.mux(loadF3.bit(2), b.pad(rawWord.bits(15, 0), 32),
                            b.sext(rawWord.bits(15, 0), 32));
    Signal loadRes = b.select(loadF3.bits(1, 0),
                              {loadByte, loadHalf, rawWord, rawWord});

    Signal lsuWbValid = loadHitNow | heldHit;
    Signal lsuWbTag = b.mux(heldHit | lsuValid, lsuTag, e0Tag);
    Signal lsuWbDst = b.mux(heldHit | lsuValid, lsuDst, e0Dst);
    Signal lsuWbWr = b.mux(heldHit | lsuValid, lsuWr, e0WrRd);
    Signal lsuWbKill = killYoung & youngerThanBranch(lsuWbTag);
    lsuWbValid = lsuWbValid & !lsuWbKill;

    Signal lsuHoldNew = newLoad & !loadHitNow & !drainCacheReq &
                        !(killYoung & youngerThanBranch(e0Tag));
    Signal lsuKeep = lsuValid & !heldHit &
                     !(killYoung & youngerThanBranch(lsuTag));
    b.next(lsuValid, lsuHoldNew | lsuKeep);
    b.next(lsuTag, e0Tag, lsuHoldNew);
    b.next(lsuDst, e0Dst, lsuHoldNew);
    b.next(lsuWr, e0WrRd, lsuHoldNew);
    b.next(lsuF3, f3_0, lsuHoldNew);
    b.next(lsuAddr, memAddr, lsuHoldNew);
    b.popScope(); // lsu
    b.popScope(); // core

    // =====================================================================
    // Writeback: PRF writes, busy clears, wakeup tags, done sets.
    // =====================================================================
    b.pushScope("core");
    b.pushScope("writeback");

    // Port 0 squash for the same-cycle mispredict only applies to ops
    // *younger* than the branch; port 0's op is the branch itself or
    // older, so it always completes.
    Signal wb0Valid = isAluOp | (resolve & issued0);
    // (stores set done below; loads/mul/div via their own ports)

    struct WbPort
    {
        Signal valid;    //!< completes an ROB entry this cycle
        Signal tag;      //!< robTag
        Signal wr;       //!< writes the PRF
        Signal dst;
        Signal data;
    };
    std::vector<WbPort> wb;
    wb.push_back({(isAluOp | resolve | isStoreOp) & issued0, e0Tag,
                  (isAluOp | resolve) & e0WrRd, e0Dst, res0});
    if (W == 2)
        wb.push_back({wb1Valid, e1Tag, wb1Valid & e1WrRd, e1Dst, res1});
    else
        wb.push_back({zero1, e0Tag, zero1, e0Dst, zero32});
    wb.push_back({lsuWbValid, lsuWbTag, lsuWbValid & lsuWbWr, lsuWbDst,
                  loadRes});
    wb.push_back({mulV[2], mulTag[2], mulV[2], mulDst[2],
                  mulPipe.result});
    wb.push_back({divV & div.done, divTag, divV & div.done, divDst,
                  div.result});

    for (unsigned i = 0; i < 5; ++i) {
        b.memWrite(prf, wb[i].dst, wb[i].data, wb[i].wr);
        b.assign(wbTagValid[i], wb[i].wr);
        b.assign(wbTagSig[i], wb[i].dst);
    }
    (void)wb0Valid;
    b.popScope(); // writeback
    b.popScope(); // core

    // =====================================================================
    // Commit.
    // =====================================================================
    b.pushScope("core");
    b.pushScope("commit");

    auto doneAt = [&](Signal robIdx) { return b.select(robIdx, robDone); };

    std::vector<CommitInfo> commits(W);
    std::vector<Signal> commitFire(W);
    Signal head0Idx = rob.idx(robHead);
    Signal flags0 = b.memRead(robFlagsM, head0Idx);
    Signal isStore0c = flags0.bit(kRfIsStore);
    Signal isEcall0c = flags0.bit(kRfIsEcall);
    Signal head0Valid = ltu(b.lit(0, tagW), robCount);
    Signal head0Done = head0Valid & doneAt(head0Idx);

    b.assign(storeDrainReq, head0Done & isStore0c);
    Signal commit0 = head0Done & ((!isStore0c) | storeDrainOk);
    commitFire[0] = commit0;
    Signal halt0 = commit0 & isEcall0c;
    b.assign(haltFire, halt0);
    b.next(halted, halted | halt0);

    commits[0].valid = commit0;
    commits[0].pc = b.memRead(robPcM, head0Idx);
    commits[0].inst = b.memRead(robInstM, head0Idx);
    commits[0].wen = commit0 & flags0.bit(kRfWritesRd);
    commits[0].rd = b.memRead(robArchRdM, head0Idx);
    Signal preg0c = b.memRead(robPregM, head0Idx);
    commits[0].wdata = b.memRead(prf, preg0c);
    commits[0].isCsr = flags0.bit(kRfIsCsr);
    Signal old0c = b.memRead(robOldPregM, head0Idx);

    Signal commit1 = zero1, old1c, wen1;
    if (W == 2) {
        Signal head1Idx = rob.idx(rob.add(robHead, 1));
        Signal flags1 = b.memRead(robFlagsM, head1Idx);
        Signal head1Valid = ltu(b.lit(1, tagW), robCount);
        commit1 = commit0 & !isEcall0c & head1Valid & doneAt(head1Idx) &
                  !flags1.bit(kRfIsStore) & !flags1.bit(kRfIsEcall);
        commitFire[1] = commit1;
        commits[1].valid = commit1;
        commits[1].pc = b.memRead(robPcM, head1Idx);
        commits[1].inst = b.memRead(robInstM, head1Idx);
        wen1 = commit1 & flags1.bit(kRfWritesRd);
        commits[1].wen = wen1;
        commits[1].rd = b.memRead(robArchRdM, head1Idx);
        Signal preg1c = b.memRead(robPregM, head1Idx);
        commits[1].wdata = b.memRead(prf, preg1c);
        commits[1].isCsr = flags1.bit(kRfIsCsr);
        old1c = b.memRead(robOldPregM, head1Idx);
    }

    Signal nCommit = b.pad(commit0, 2) +
                     (W == 2 ? b.pad(commit1, 2) : b.lit(0, 2));
    b.next(robHead, rob.addVar(robHead, nCommit));
    b.next(instretCtr, instretCtr + b.pad(nCommit, 64));
    b.next(imissCtr, imissCtr + b.lit(1, 32), icache.missEvent);
    b.next(dmissCtr, dmissCtr + b.lit(1, 32), dcache.missEvent);

    // Free-list pushes of overwritten mappings.
    Signal push0 = commit0 & flags0.bit(kRfWritesRd);
    Signal push1 = W == 2 ? wen1 : zero1;
    b.memWrite(flMem, fl.idx(flTail), old0c, push0);
    if (W == 2) {
        b.memWrite(flMem,
                   fl.idx(fl.addVar(flTail, b.pad(push0, 2))), old1c,
                   push1);
    }
    Signal nPush = b.pad(push0, 2) + b.pad(push1, 2);
    b.next(flTail, fl.addVar(flTail, nPush));

    // STQ drain bookkeeping.
    Signal drained = commit0 & isStore0c;
    b.next(stqHead, stq.addVar(stqHead, b.pad(drained, 2)));
    b.popScope(); // commit
    b.popScope(); // core

    // =====================================================================
    // Remaining sequential updates (rename, ROB pointers, IQ, busy, done).
    // =====================================================================
    b.pushScope("core");
    b.pushScope("update");

    Signal disp0e = disp0;
    Signal disp1e = disp1;
    Signal wr0 = disp0e & sl[0].dec.writesRd;
    Signal wr1 = W == 2 ? disp1e & sl[1].dec.writesRd : zero1;

    // Rename table + checkpoint.
    Signal ckptEn = (disp0e & sl[0].isBr) |
                    (W == 2 ? disp1e & sl[1].isBr : zero1);
    for (unsigned i = 0; i < 32; ++i) {
        Signal lit5 = b.lit(i, 5);
        Signal afterSlot0 =
            b.mux(wr0 & eq(sl[0].dec.rd, lit5), sl[0].newPreg,
                  renameTable[i]);
        Signal afterBoth =
            W == 2 ? b.mux(wr1 & eq(sl[1].dec.rd, lit5), sl[1].newPreg,
                           afterSlot0)
                   : afterSlot0;
        b.next(renameTable[i],
               b.mux(mispredict, ckptTable[i], afterBoth));
        // Snapshot state *after* the branch's own rename.
        Signal snapVal =
            W == 2 ? b.mux(sl[1].isBr & disp1e, afterBoth, afterSlot0)
                   : afterSlot0;
        b.next(ckptTable[i], snapVal, ckptEn);
    }
    Signal nPop = b.pad(wr0, 2) + b.pad(wr1, 2);
    b.next(flHead,
           b.mux(mispredict, ckptFlHead, fl.addVar(flHead, nPop)));
    // The checkpoint must cover pops of slots up to and INCLUDING the
    // branch, but not younger ones (their pregs return on restore).
    Signal ckptPops =
        W == 2 ? b.mux(sl[1].isBr & disp1e, nPop, b.pad(wr0, 2)) : nPop;
    b.next(ckptFlHead, fl.addVar(flHead, ckptPops), ckptEn);
    Signal nStq = b.pad(disp0e & sl[0].dec.isStore, 2) +
                  (W == 2 ? b.pad(disp1e & sl[1].dec.isStore, 2)
                          : b.lit(0, 2));
    Signal stqAfterDisp = stq.addVar(stqTail, nStq);
    b.next(ckptStqTail,
           W == 2 ? b.mux(sl[1].isBr & disp1e, stqAfterDisp,
                          stq.addVar(stqTail,
                                     b.pad(disp0e & sl[0].dec.isStore,
                                           2)))
                  : stqAfterDisp,
           ckptEn);
    b.next(stqTail, b.mux(mispredict, ckptStqTail, stqAfterDisp));
    b.next(branchOut, ckptEn | (branchOut & !resolve));
    Signal brDispTag = (W == 2 && true)
                           ? b.mux(sl[0].isBr, sl[0].robTag, sl[1].robTag)
                           : sl[0].robTag;
    b.next(branchTag, brDispTag, ckptEn);

    // ROB tail.
    b.next(robTail, b.mux(mispredict, rob.add(branchTag, 1),
                          rob.addVar(robTail, nDisp)));

    // Fetch-buffer head.
    b.next(fbHead, b.mux(redirect, b.lit(0, fb.ptrW),
                         fb.addVar(fbHead, nDisp)));

    // Busy table: dispatch sets win over writeback clears.
    for (unsigned i = 0; i < P; ++i) {
        Signal lit = b.lit(i, pregW);
        Signal setIt = (wr0 & eq(sl[0].newPreg, lit)) |
                       (W == 2 ? wr1 & eq(sl[1].newPreg, lit) : zero1);
        Signal clearIt = zero1;
        for (unsigned p = 0; p < 5; ++p)
            clearIt = clearIt | (wbTagValid[p] & eq(wbTagSig[p], lit));
        b.next(busy[i], muxChain(b, busy[i],
                                 {{setIt, one1}, {clearIt, zero1}}));
    }

    // Done bits: writeback/dispatch.
    std::vector<Signal> doneSetValid = {wb[0].valid, wb[1].valid,
                                        wb[2].valid, wb[3].valid,
                                        wb[4].valid};
    std::vector<Signal> doneSetTag = {wb[0].tag, wb[1].tag, wb[2].tag,
                                      wb[3].tag, wb[4].tag};
    for (unsigned i = 0; i < R; ++i) {
        Signal setIt = zero1;
        for (unsigned p = 0; p < 5; ++p) {
            setIt = setIt | (doneSetValid[p] &
                             eqImm(rob.idx(doneSetTag[p]), i));
        }
        Signal d0Here = disp0e & eqImm(rob.idx(sl[0].robTag), i);
        Signal d1Here =
            W == 2 ? disp1e & eqImm(rob.idx(sl[1].robTag), i) : zero1;
        Signal dispHere = d0Here | d1Here;
        Signal dispDoneVal =
            (d0Here & sl[0].dec.isEcall) |
            (W == 2 ? d1Here & sl[1].dec.isEcall : zero1);
        b.next(robDone[i], muxChain(b, robDone[i],
                                    {{dispHere, dispDoneVal},
                                     {setIt, one1}}));
    }

    // IQ entries: allocate, issue-clear, flush-younger.
    for (unsigned i = 0; i < Q; ++i) {
        IqEntry &e = iq[i];
        Signal alloc0 = disp0e & !sl[0].dec.isEcall & free0Found &
                        eq(free0Idx, b.lit(i, iqIdxW));
        Signal slot1Free = W == 2
                               ? b.mux(sl[0].dec.isEcall, free0Idx,
                                       free1Idx)
                               : free0Idx;
        Signal alloc1 = W == 2
                            ? disp1e & !sl[1].dec.isEcall &
                                  eq(slot1Free, b.lit(i, iqIdxW))
                            : zero1;
        Signal issuedHere =
            (issued0 & eq(sel0.index, b.lit(i, iqIdxW))) |
            (W == 2 ? issued1 & eq(sel1.index, b.lit(i, iqIdxW))
                    : zero1);
        Signal flushHere =
            mispredict & e.valid & youngerThanBranch(e.robTag);

        Signal validNext = muxChain(
            b, e.valid & !issuedHere & !flushHere,
            {{alloc1, one1}, {alloc0, one1}});
        // A same-cycle allocation to a flushed... cannot happen: dispatch
        // is blocked during mispredict.
        b.next(e.valid, validNext);

        auto allocField = [&](Signal cur, Signal v0, Signal v1) {
            Signal next = cur;
            if (W == 2)
                next = b.mux(alloc1, v1, next);
            next = b.mux(alloc0, v0, next);
            return next;
        };
        Signal anyAlloc = alloc0 | alloc1;
        b.next(e.robTag,
               allocField(e.robTag, sl[0].robTag,
                          W == 2 ? sl[1].robTag : sl[0].robTag),
               anyAlloc);
        b.next(e.dst,
               allocField(e.dst, sl[0].newPreg,
                          W == 2 ? sl[1].newPreg : sl[0].newPreg),
               anyAlloc);
        b.next(e.src1,
               allocField(e.src1, sl[0].ps1,
                          W == 2 ? sl[1].ps1 : sl[0].ps1),
               anyAlloc);
        b.next(e.src2,
               allocField(e.src2, sl[0].ps2,
                          W == 2 ? sl[1].ps2 : sl[0].ps2),
               anyAlloc);
        b.next(e.fu,
               allocField(e.fu, sl[0].fu, W == 2 ? sl[1].fu : sl[0].fu),
               anyAlloc);
        b.next(e.isLoad,
               allocField(e.isLoad, sl[0].dec.isLoad,
                          W == 2 ? sl[1].dec.isLoad : sl[0].dec.isLoad),
               anyAlloc);
        b.next(e.isBrLike,
               allocField(e.isBrLike, sl[0].isBr,
                          W == 2 ? sl[1].isBr : sl[0].isBr),
               anyAlloc);
        b.next(e.wrRd,
               allocField(e.wrRd, sl[0].dec.writesRd,
                          W == 2 ? sl[1].dec.writesRd
                                 : sl[0].dec.writesRd),
               anyAlloc);
        b.next(e.stqPtr,
               allocField(e.stqPtr, sl[0].stqPtr,
                          W == 2 ? sl[1].stqPtr : sl[0].stqPtr),
               anyAlloc);
        // Wakeup when not being allocated this cycle.
        Signal rdy1Next = e.rdy1 | wakeupHit(e.src1);
        Signal rdy2Next = e.rdy2 | wakeupHit(e.src2);
        b.next(e.rdy1,
               allocField(rdy1Next, sl[0].rdy1,
                          W == 2 ? sl[1].rdy1 : sl[0].rdy1));
        b.next(e.rdy2,
               allocField(rdy2Next, sl[0].rdy2,
                          W == 2 ? sl[1].rdy2 : sl[0].rdy2));
    }

    // STQ valid bits: alloc at dispatch, clear at drain or flush.
    for (unsigned i = 0; i < SQ; ++i) {
        StqEntry &e = stqE[i];
        Signal alloc0 = disp0e & sl[0].dec.isStore &
                        eqImm(stq.idx(sl[0].stqPtr), i);
        Signal alloc1 = W == 2 ? disp1e & sl[1].dec.isStore &
                                     eqImm(stq.idx(sl[1].stqPtr), i)
                               : zero1;
        Signal drainHere =
            commitFire[0] & isStore0c & eqImm(stqHeadIdx, i);
        Signal flushHere =
            mispredict & e.valid & youngerThanBranch(e.robTag);
        b.next(e.valid, muxChain(b, e.valid,
                                 {{alloc0 | alloc1, one1},
                                  {drainHere | flushHere, zero1}}));
        Signal allocTag = b.mux(alloc0, sl[0].robTag,
                                W == 2 ? sl[1].robTag : sl[0].robTag);
        b.next(e.robTag, allocTag, alloc0 | alloc1);
    }

    b.popScope(); // update
    b.popScope(); // core

    // =====================================================================
    // Uncore: arbiter, MMIO, commit trace.
    // =====================================================================
    buildMemArbiter(b, mem, icache, dcache);
    Signal mmioFire = commitFire[0] & isStore0c & drMmio;
    b.output("mmio_valid", mmioFire);
    b.output("mmio_addr", drAddr);
    b.output("mmio_wdata", drData);
    b.output("halted", halted);
    for (unsigned k = 0; k < W; ++k)
        emitCommitPort(b, k, commits[k]);

    return b.finish();
}

} // namespace cores
} // namespace strober
