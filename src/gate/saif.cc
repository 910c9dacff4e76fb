#include "gate/saif.h"

#include <sstream>

#include "util/logging.h"

namespace strober {
namespace gate {

namespace {

/** SAIF identifiers cannot contain brackets; escape like netlist tools. */
std::string
saifName(const std::string &name, NetId id)
{
    if (name.empty())
        return 'n' + std::to_string(id);
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        if (c == '[')
            out += "_";
        else if (c == ']')
            continue;
        else if (c == '/')
            out += ".";
        else
            out += c;
    }
    return out;
}

} // namespace

std::string
writeSaif(const GateNetlist &netlist, const ActivityReport &activity,
          const SaifOptions &options)
{
    if (activity.netToggles.size() != netlist.numNodes())
        fatal("SAIF: activity does not match netlist");
    if (options.highCycles &&
        options.highCycles->size() != netlist.numNodes())
        fatal("SAIF: duty data does not match netlist");

    // Duration in picoseconds at the target clock.
    double cyclePs = 1e12 / options.clockHz;
    uint64_t durationPs =
        static_cast<uint64_t>(cyclePs * static_cast<double>(activity.cycles));

    std::ostringstream os;
    os << "(SAIFILE\n"
          "  (SAIFVERSION \"2.0\")\n"
          "  (DIRECTION \"backward\")\n"
          "  (DESIGN \"" << options.designName << "\")\n"
          "  (TIMESCALE 1 ps)\n"
          "  (DURATION " << durationPs << ")\n"
          "  (INSTANCE " << options.designName << "\n"
          "    (NET\n";

    for (NetId id = 0; id < netlist.numNodes(); ++id) {
        const GateNode &n = netlist.node(id);
        if (n.dead)
            continue;
        uint64_t toggles = activity.netToggles[id];
        if (options.omitQuiet && toggles == 0)
            continue;
        uint64_t t1Ps;
        if (options.highCycles) {
            t1Ps = static_cast<uint64_t>(
                cyclePs *
                static_cast<double>((*options.highCycles)[id]));
        } else {
            t1Ps = durationPs / 2;
        }
        uint64_t t0Ps = durationPs - t1Ps;
        os << "      (" << saifName(n.name, id) << "\n"
           << "        (T0 " << t0Ps << ") (T1 " << t1Ps
           << ") (TX 0)\n"
           << "        (TC " << toggles << ") (IG 0)\n"
           << "      )\n";
    }
    os << "    )\n  )\n)\n";
    return os.str();
}

} // namespace gate
} // namespace strober
