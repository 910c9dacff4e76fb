#include "gate/gate_sim.h"

namespace strober {
namespace gate {

GateSimulator::GateSimulator(const GateNetlist &netlist)
    : program(netlist), sim(netlist, program, 1)
{
}

const std::vector<uint64_t> &
GateSimulator::toggleCounts() const
{
    if (togglesVersion != sim.activityVersion()) {
        sim.toggleCounts(0, toggles);
        togglesVersion = sim.activityVersion();
    }
    return toggles;
}

} // namespace gate
} // namespace strober
