#include "gate/lane_sim.h"

#include <algorithm>
#include <stdexcept>

#include "util/bits.h"
#include "util/logging.h"

namespace strober {
namespace gate {

namespace {

template <typename Lane>
constexpr Lane
inv(Lane x)
{
    return static_cast<Lane>(~x);
}

/** Lane word whose bit k is bit @p b of @p words[k], k < @p lanes. */
template <typename Lane>
Lane
scatterBit(const uint64_t *words, unsigned lanes, unsigned b)
{
    Lane w = 0;
    for (unsigned k = 0; k < lanes; ++k)
        w |= static_cast<Lane>(((words[k] >> b) & 1) << k);
    return w;
}

} // namespace

template <typename Lane>
LaneSimulator<Lane>::LaneSimulator(const GateNetlist &netlist,
                                   const GateProgram &program,
                                   unsigned lanes)
    : nl(netlist), prog(program), nLanes(lanes),
      laneMask(lanes >= kLanes ? inv<Lane>(0)
                               : static_cast<Lane>((1ull << lanes) - 1))
{
    if (lanes == 0 || lanes > kLanes)
        panic("%u lanes requested of a %u-lane simulator", lanes, kLanes);
    reset();
}

template <typename Lane>
void
LaneSimulator<Lane>::reset()
{
    const size_t n = nl.numNodes();
    values.assign(n, 0);
    for (NetId id = 0; id < n; ++id) {
        const GateNode &g = nl.node(id);
        if (g.type == CellType::Tie1 || (g.type == CellType::Dff && g.init))
            values[id] = inv<Lane>(0);
    }
    releaseForces();
    const size_t macros = nl.macros().size();
    mems.resize(nLanes * macros);
    for (unsigned k = 0; k < nLanes; ++k) {
        for (size_t mi = 0; mi < macros; ++mi) {
            LaneMem &lm = mems[k * macros + mi];
            lm.own.clear();
            lm.words = prog.macroReset[mi].data();
        }
    }
    macroAcc.assign(nLanes, std::vector<MacroStats>(macros));
    syncReadPending.clear();
    for (const MacroMem &m : nl.macros())
        syncReadPending.emplace_back(m.reads.size() * m.width, 0);
    dffPending.assign(nl.dffs().size(), 0);
    cycleCount = 0;
    activityStart = 0;
    counters.assign(n * kPlanes, 0);
    portBound.assign(nl.inputs().size(), 0);
    // Settle the reset state so the first cycle's activity reflects real
    // switching, not the zero-to-reset-value transition.
    evalComb();
    clearCounts();
}

template <typename Lane>
void
LaneSimulator<Lane>::count(NetId net, Lane toggled)
{
    // Ripple-carry increment of the lanes in `toggled`.
    Lane *c = &counters[static_cast<size_t>(net) * kPlanes];
    for (unsigned p = 0; p < kPlanes && toggled; ++p) {
        Lane carry = c[p] & toggled;
        c[p] ^= toggled;
        toggled = carry;
    }
}

template <typename Lane>
void
LaneSimulator<Lane>::commit(NetId net, Lane next)
{
    Lane toggled = values[net] ^ next;
    if (toggled) {
        values[net] = next;
        count(net, toggled);
    }
}

template <typename Lane>
void
LaneSimulator<Lane>::reserveCount(unsigned &bound)
{
    if (bound == (1u << kPlanes) - 1)
        flush();
    ++bound;
    ++version;
}

template <typename Lane>
void
LaneSimulator<Lane>::flush()
{
    const size_t n = nl.numNodes();
    if (flushed.empty())
        flushed.assign(nLanes, std::vector<uint64_t>(n, 0));
    for (unsigned k = 0; k < nLanes; ++k) {
        std::vector<uint64_t> &total = flushed[k];
        for (size_t i = 0; i < n; ++i) {
            const Lane *c = &counters[i * kPlanes];
            uint64_t v = 0;
            for (unsigned p = 0; p < kPlanes; ++p)
                v |= static_cast<uint64_t>((c[p] >> k) & 1) << p;
            total[i] += v;
        }
    }
    std::fill(counters.begin(), counters.end(), 0);
    combBound = stateBound = 0;
    std::fill(portBound.begin(), portBound.end(), 0);
}

template <typename Lane>
void
LaneSimulator<Lane>::clearCounts()
{
    std::fill(counters.begin(), counters.end(), 0);
    flushed.clear();
    combBound = stateBound = 0;
    std::fill(portBound.begin(), portBound.end(), 0);
    ++version;
}

template <typename Lane>
void
LaneSimulator<Lane>::toggleCounts(unsigned lane,
                                  std::vector<uint64_t> &out) const
{
    const size_t n = nl.numNodes();
    if (flushed.empty())
        out.assign(n, 0);
    else
        out = flushed[lane];
    for (size_t i = 0; i < n; ++i) {
        const Lane *c = &counters[i * kPlanes];
        uint64_t v = 0;
        for (unsigned p = 0; p < kPlanes; ++p)
            v |= static_cast<uint64_t>((c[p] >> lane) & 1) << p;
        out[i] += v;
    }
}

template <typename Lane>
void
LaneSimulator<Lane>::clearActivity()
{
    clearCounts();
    std::fill(highTime.begin(), highTime.end(), 0);
    for (std::vector<MacroStats> &acc : macroAcc)
        std::fill(acc.begin(), acc.end(), MacroStats{});
    activityStart = cycleCount;
}

template <typename Lane>
void
LaneSimulator<Lane>::gather(const std::vector<NetId> &bits,
                            uint64_t *out) const
{
    std::fill(out, out + nLanes, 0);
    for (size_t b = 0; b < bits.size(); ++b) {
        Lane w = values[bits[b]] & laneMask;
        for (unsigned k = 0; w; ++k, w >>= 1)
            out[k] |= static_cast<uint64_t>(w & 1) << b;
    }
}

template <typename Lane>
void
LaneSimulator<Lane>::pokePort(size_t idx, const uint64_t *laneValues)
{
    reserveCount(portBound.at(idx));
    const BitPort &p = nl.inputs()[idx];
    for (size_t b = 0; b < p.bits.size(); ++b) {
        Lane next = scatterBit<Lane>(laneValues, nLanes,
                                     static_cast<unsigned>(b));
        if ((values[p.bits[b]] ^ next) & laneMask) {
            commit(p.bits[b], next);
            combStale = true;
        }
    }
}

template <typename Lane>
void
LaneSimulator<Lane>::peekPort(size_t idx, uint64_t *laneValues)
{
    if (combStale)
        evalComb();
    gather(nl.outputs().at(idx).bits, laneValues);
}

template <typename Lane>
template <bool Forced>
void
LaneSimulator<Lane>::evalAsyncRead(const AsyncReadPort &port)
{
    const MacroMem &m = nl.macros()[port.macro];
    uint64_t addr[kLanes];
    uint64_t word[kLanes];
    gather(m.reads[port.port].addr, addr);
    for (unsigned k = 0; k < nLanes; ++k)
        word[k] = addr[k] < m.depth ? memWords(k, port.macro)[addr[k]] : 0;
    for (const auto &[bitIdx, net] : port.bits) {
        Lane r = scatterBit<Lane>(word, nLanes, bitIdx);
        if (Forced)
            r = (r & inv(forceMask[net])) | (forceValue[net] & forceMask[net]);
        commit(net, r);
    }
}

template <typename Lane>
template <bool Forced>
void
LaneSimulator<Lane>::evalPass()
{
    const Lane *v = values.data();
    for (const LoweredGate &g : prog.gates) {
        if (g.op == GateOp::AsyncRead) {
            evalAsyncRead<Forced>(prog.asyncReads[g.in0]);
            continue;
        }
        Lane r = evalOp(g, v);
        if (Forced) {
            r = (r & inv(forceMask[g.out])) |
                (forceValue[g.out] & forceMask[g.out]);
        }
        commit(g.out, r);
    }
}

template <typename Lane>
void
LaneSimulator<Lane>::evalComb()
{
    reserveCount(combBound);
    if (forcedNets.empty()) {
        evalPass<false>();
    } else {
        // Forced values land on every forced net up front (uncounted),
        // so sources take them too and comb nets count no toggle in the
        // lanes they are forced in.
        for (NetId id : forcedNets) {
            values[id] = (values[id] & inv(forceMask[id])) |
                         (forceValue[id] & forceMask[id]);
        }
        evalPass<true>();
    }
    combStale = false;
}

template <typename Lane>
uint64_t *
LaneSimulator<Lane>::ownWords(unsigned lane, size_t macroIdx)
{
    LaneMem &lm = mems[lane * nl.macros().size() + macroIdx];
    if (lm.own.empty()) {
        lm.own.assign(lm.words, lm.words + nl.macros()[macroIdx].depth);
        lm.words = lm.own.data();
    }
    return lm.own.data();
}

template <typename Lane>
void
LaneSimulator<Lane>::step(uint64_t n)
{
    const std::vector<MacroMem> &macros = nl.macros();
    uint64_t addr[kLanes];
    uint64_t word[kLanes] = {};
    for (uint64_t cyc = 0; cyc < n; ++cyc) {
        if (combStale)
            evalComb();
        reserveCount(stateBound);

        // Latch DFF next values.
        for (size_t i = 0; i < prog.dffD.size(); ++i)
            dffPending[i] = values[prog.dffD[i]];

        // Sync macro reads latch old contents; count accesses.
        for (size_t mi = 0; mi < macros.size(); ++mi) {
            const MacroMem &m = macros[mi];
            if (!m.syncRead) {
                // Async ports burn a read access every cycle.
                for (unsigned k = 0; k < nLanes; ++k)
                    macroAcc[k][mi].reads += m.reads.size();
                continue;
            }
            for (size_t p = 0; p < m.reads.size(); ++p) {
                const MacroMem::ReadPort &port = m.reads[p];
                Lane en = enabled(port.en);
                if (!en)
                    continue;
                gather(port.addr, addr);
                for (unsigned k = 0; k < nLanes; ++k) {
                    if (!((en >> k) & 1))
                        continue;
                    word[k] = addr[k] < m.depth ? memWords(k, mi)[addr[k]]
                                                : 0;
                    ++macroAcc[k][mi].reads;
                }
                Lane *pend = &syncReadPending[mi][p * m.width];
                for (unsigned b = 0; b < m.width; ++b) {
                    // Disabled lanes' word[] is stale; the mask drops it.
                    Lane fresh = scatterBit<Lane>(word, nLanes, b);
                    pend[b] = (pend[b] & inv(en)) | (fresh & en);
                }
            }
        }

        // Macro writes (after reads: read-before-write).
        for (size_t mi = 0; mi < macros.size(); ++mi) {
            const MacroMem &m = macros[mi];
            for (const MacroMem::WritePort &port : m.writes) {
                Lane en = enabled(port.en);
                if (!en)
                    continue;
                gather(port.addr, addr);
                gather(port.data, word);
                for (unsigned k = 0; k < nLanes; ++k) {
                    if (!((en >> k) & 1))
                        continue;
                    if (addr[k] < m.depth)
                        ownWords(k, mi)[addr[k]] = word[k];
                    ++macroAcc[k][mi].writes;
                }
            }
        }

        // Commit state, counting output toggles. Sync read data commits
        // under its enable as it reads after the DFF commit.
        for (size_t i = 0; i < prog.dffD.size(); ++i)
            commit(nl.dffs()[i], dffPending[i]);
        for (size_t mi = 0; mi < macros.size(); ++mi) {
            const MacroMem &m = macros[mi];
            if (!m.syncRead)
                continue;
            for (size_t p = 0; p < m.reads.size(); ++p) {
                const MacroMem::ReadPort &port = m.reads[p];
                Lane en = enabled(port.en);
                if (!en)
                    continue;
                const Lane *pend = &syncReadPending[mi][p * m.width];
                for (unsigned b = 0; b < m.width; ++b) {
                    NetId net = port.data[b];
                    commit(net, (values[net] & inv(en)) | (pend[b] & en));
                }
            }
        }

        if (dutyTracking) {
            if (highTime.size() != values.size())
                highTime.assign(values.size(), 0);
            for (size_t i = 0; i < values.size(); ++i)
                highTime[i] += values[i] & 1;
        }

        ++cycleCount;
        combStale = true;
    }
}

template <typename Lane>
void
LaneSimulator<Lane>::setDff(NetId net, unsigned lane, bool value)
{
    if (nl.node(net).type != CellType::Dff)
        fatal("setDff on non-DFF net %u ('%s')", net,
              nl.node(net).name.c_str());
    Lane bitK = static_cast<Lane>(Lane(1) << lane);
    values[net] = value ? (values[net] | bitK) : (values[net] & inv(bitK));
    combStale = true;
}

template <typename Lane>
uint64_t
LaneSimulator<Lane>::macroWord(size_t macroIdx, unsigned lane,
                               uint64_t addr) const
{
    if (macroIdx >= nl.macros().size() || addr >= nl.macros()[macroIdx].depth)
        throw std::out_of_range("macroWord: no such macro word");
    return memWords(lane, macroIdx)[addr];
}

template <typename Lane>
void
LaneSimulator<Lane>::loadMacro(size_t macroIdx, unsigned lane,
                               const std::vector<uint64_t> &words,
                               bool borrow)
{
    const MacroMem &m = nl.macros().at(macroIdx);
    if (words.size() != m.depth)
        panic("loadMacro: %zu words for macro '%s' of depth %llu",
              words.size(), m.name.c_str(), (unsigned long long)m.depth);
    LaneMem &lm = mems[lane * nl.macros().size() + macroIdx];
    if (borrow) {
        lm.own.clear();
        lm.words = words.data();
    } else {
        lm.own.resize(words.size());
        for (size_t a = 0; a < words.size(); ++a)
            lm.own[a] = truncate(words[a], m.width);
        lm.words = lm.own.data();
    }
    combStale = true;
}

template <typename Lane>
void
LaneSimulator<Lane>::setMacroReadData(size_t macroIdx, size_t port,
                                      unsigned lane, uint64_t value)
{
    const MacroMem &m = nl.macros().at(macroIdx);
    if (!m.syncRead)
        fatal("setMacroReadData on async macro '%s'", m.name.c_str());
    Lane bitK = static_cast<Lane>(Lane(1) << lane);
    for (unsigned b = 0; b < m.width; ++b) {
        Lane &w = values[m.reads[port].data[b]];
        w = bit(value, b) ? (w | bitK) : (w & inv(bitK));
    }
    combStale = true;
}

template <typename Lane>
void
LaneSimulator<Lane>::forceNet(NetId net, unsigned lane, bool value)
{
    if (forceMask.empty()) {
        forceMask.assign(nl.numNodes(), 0);
        forceValue.assign(nl.numNodes(), 0);
    }
    Lane bitK = static_cast<Lane>(Lane(1) << lane);
    if (!forceMask[net])
        forcedNets.push_back(net);
    forceMask[net] |= bitK;
    forceValue[net] = value ? (forceValue[net] | bitK)
                            : (forceValue[net] & inv(bitK));
    combStale = true;
}

template <typename Lane>
void
LaneSimulator<Lane>::releaseForces()
{
    for (NetId id : forcedNets)
        forceMask[id] = forceValue[id] = 0;
    forcedNets.clear();
    combStale = true;
}

template class LaneSimulator<uint8_t>;
template class LaneSimulator<uint16_t>;
template class LaneSimulator<uint32_t>;
template class LaneSimulator<uint64_t>;

} // namespace gate
} // namespace strober
