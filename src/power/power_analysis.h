/**
 * @file
 * Power analysis from gate-level switching activity — the repository's
 * PrimeTime PX substitute (paper Figure 5). Inputs: the netlist, the
 * placement parasitics, and an ActivityReport (the "SAIF" file of this
 * flow). Output: average power over the activity window, total and
 * broken down by RTL hierarchy group (Figure 9a).
 *
 * Model, per net i driven by cell g over a window of C cycles at f Hz:
 *   switching  P = toggles_i / C * f * (1/2) (Cwire_i + ΣCin(fanout)) V²
 *   internal   P = toggles_i / C * f * Einternal(g)
 *   leakage    P = Σ leak(g)              (state-independent)
 *   macros     P = (reads*Eread + writes*Ewrite)/time + leakage(bits)
 */

#ifndef STROBER_POWER_POWER_ANALYSIS_H
#define STROBER_POWER_POWER_ANALYSIS_H

#include <string>
#include <vector>

#include "gate/netlist.h"
#include "gate/placement.h"
#include "gate/replay.h"

namespace strober {
namespace power {

/**
 * Version of the power model's equations and cell-library coefficients.
 * Farm result-cache keys include it: bump this whenever analyzePower's
 * numbers can change for identical activity inputs, so stale cached
 * power results are invalidated instead of silently reused.
 */
constexpr uint32_t kPowerModelVersion = 1;

/** Power of one hierarchy group, in watts. */
struct GroupPower
{
    std::string group;
    double switching = 0;
    double internal = 0;
    double leakage = 0;
    double macroDynamic = 0;
    double clock = 0; //!< clock-network power (toggles every cycle)
    double total() const
    {
        return switching + internal + leakage + macroDynamic + clock;
    }
};

/** A full power report for one activity window. */
struct PowerReport
{
    double clockHz = 0;
    uint64_t cycles = 0;
    std::vector<GroupPower> groups;

    double totalWatts() const;
    /** Power of groups whose path starts with @p prefix. */
    double prefixWatts(const std::string &prefix) const;
    /** Render as an aligned table (mW). */
    std::string table() const;
};

/**
 * The part of the model that depends only on the netlist and its
 * placement: each net's switched capacitance (wire plus fanout pins).
 * Built once per netlist and shared read-only by every analysis of it.
 */
struct PowerModel
{
    PowerModel(const gate::GateNetlist &netlist,
               const gate::Placement &placement);

    std::vector<double> netCapFf; //!< per net: wire + fanout pin cap
};

/** Analyze one activity window. @p clockHz is the target clock. */
PowerReport analyzePower(const gate::GateNetlist &netlist,
                         const PowerModel &model,
                         const gate::ActivityReport &activity,
                         double clockHz);

/** As above, building the netlist's PowerModel for this one call. */
PowerReport analyzePower(const gate::GateNetlist &netlist,
                         const gate::Placement &placement,
                         const gate::ActivityReport &activity,
                         double clockHz);

} // namespace power
} // namespace strober

#endif // STROBER_POWER_POWER_ANALYSIS_H
