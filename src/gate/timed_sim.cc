#include "gate/timed_sim.h"

#include <algorithm>
#include <queue>

namespace strober {
namespace gate {

TimedGateSimulator::TimedGateSimulator(const GateNetlist &netlist)
    : nl(netlist), prog(netlist), state(netlist, prog, 1)
{
    for (size_t op = 0; op < kGateOps; ++op) {
        delayPs[op] = static_cast<uint32_t>(
            cellSpec(cellTypeOf(static_cast<GateOp>(op))).delayPs);
    }
    delayPs[static_cast<size_t>(GateOp::AsyncRead)] = 250; // SRAM access

    // The fanout of a net is the ops that read it; an async read port
    // reads its address.
    std::vector<std::pair<NetId, uint32_t>> reads;
    drivers.resize(nl.numNodes());
    for (uint32_t op = 0; op < prog.gates.size(); ++op) {
        const LoweredGate &g = prog.gates[op];
        if (g.op != GateOp::AsyncRead) {
            for (NetId in : {g.in0, g.in1, g.in2}) {
                if (in != kNoNet)
                    reads.emplace_back(in, op);
            }
            drivers[g.out] = Driver{op, 0};
            continue;
        }
        const AsyncReadPort &port = prog.asyncReads[g.in0];
        for (NetId a : nl.macros()[port.macro].reads[port.port].addr)
            reads.emplace_back(a, op);
        for (const auto &[bit, net] : port.bits)
            drivers[net] = Driver{op, bit};
    }
    std::sort(reads.begin(), reads.end());
    fanoutStart.assign(nl.numNodes() + 1, 0);
    for (const auto &[net, op] : reads) {
        ++fanoutStart[net + 1];
        fanoutOps.push_back(op);
    }
    for (size_t i = 0; i < nl.numNodes(); ++i)
        fanoutStart[i + 1] += fanoutStart[i];

    edgeNets = nl.dffs();
    for (const MacroMem &m : nl.macros()) {
        if (!m.syncRead)
            continue;
        for (const MacroMem::ReadPort &port : m.reads)
            edgeNets.insert(edgeNets.end(), port.data.begin(), port.data.end());
    }
    reset();
}

void
TimedGateSimulator::reset()
{
    // The shadow starts from the state simulator's settled reset.
    state.reset();
    shadow.resize(nl.numNodes());
    for (NetId id = 0; id < nl.numNodes(); ++id)
        shadow[id] = state.netValue(id, 0);
    toggles.assign(nl.numNodes(), 0);
    pendingSources.clear();
    eventCount = 0;
    settled = true;
}

bool
TimedGateSimulator::setSource(NetId net, uint8_t v)
{
    if (shadow[net] == v)
        return false;
    shadow[net] = v;
    pendingSources.push_back(net);
    settled = false;
    return true;
}

void
TimedGateSimulator::pokePort(size_t idx, uint64_t value)
{
    state.pokePort(idx, &value);
    for (NetId net : nl.inputs()[idx].bits)
        setSource(net, state.netValue(net, 0));
}

uint64_t
TimedGateSimulator::busValue(const std::vector<NetId> &bits) const
{
    uint64_t v = 0;
    for (size_t b = 0; b < bits.size(); ++b)
        v |= static_cast<uint64_t>(shadow[bits[b]] & 1) << b;
    return v;
}

uint64_t
TimedGateSimulator::readWord(const AsyncReadPort &port) const
{
    const MacroMem &m = nl.macros()[port.macro];
    uint64_t addr = busValue(m.reads[port.port].addr);
    return addr < m.depth ? state.macroWord(port.macro, 0, addr) : 0;
}

void
TimedGateSimulator::settle()
{
    // Min-heap of (time_ps, net) evaluation events: same-time events run
    // in net-id order, and each async read data bit is its own event.
    using Event = std::pair<uint32_t, NetId>;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        queue;
    auto scheduleFanout = [&](NetId src, uint32_t now) {
        for (uint32_t e = fanoutStart[src]; e < fanoutStart[src + 1]; ++e) {
            const LoweredGate &g = prog.gates[fanoutOps[e]];
            uint32_t at = now + delayPs[static_cast<size_t>(g.op)];
            if (g.op != GateOp::AsyncRead) {
                queue.push({at, g.out});
                continue;
            }
            for (const auto &bit : prog.asyncReads[g.in0].bits)
                queue.push({at, bit.second});
        }
    };
    for (NetId src : pendingSources)
        scheduleFanout(src, 0);
    pendingSources.clear();

    while (!queue.empty()) {
        auto [now, id] = queue.top();
        queue.pop();
        ++eventCount;
        const LoweredGate &g = prog.gates[drivers[id].op];
        uint64_t out = g.op == GateOp::AsyncRead
                           ? readWord(prog.asyncReads[g.in0]) >>
                                 drivers[id].bit
                           : evalOp(g, shadow.data());
        if ((out & 1) != shadow[id]) {
            shadow[id] = out & 1;
            ++toggles[id];
            scheduleFanout(id, now);
        }
    }
    settled = true;
}

uint64_t
TimedGateSimulator::peekPort(size_t idx)
{
    if (!settled)
        settle();
    return busValue(nl.outputs().at(idx).bits);
}

void
TimedGateSimulator::step(uint64_t n)
{
    for (uint64_t k = 0; k < n; ++k) {
        if (!settled)
            settle();
        state.adoptValues(shadow);
        state.step();
        for (NetId net : edgeNets)
            setSource(net, state.netValue(net, 0));
        // New contents can change async read data with no address toggle:
        // re-read every port at the pre-settle address and seed the bits
        // that changed.
        for (const AsyncReadPort &port : prog.asyncReads) {
            uint64_t word = readWord(port);
            for (const auto &[bit, net] : port.bits)
                toggles[net] += setSource(net, (word >> bit) & 1);
        }
    }
}

const std::vector<uint64_t> &
TimedGateSimulator::toggleCounts() const
{
    state.toggleCounts(0, counts);
    for (size_t id = 0; id < counts.size(); ++id)
        counts[id] += toggles[id];
    return counts;
}

void
TimedGateSimulator::clearActivity()
{
    state.clearActivity();
    std::fill(toggles.begin(), toggles.end(), 0);
}

} // namespace gate
} // namespace strober
