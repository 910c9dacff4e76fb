/**
 * @file
 * The Strober energy-simulation flow (paper Sections III-B, IV): the
 * public entry point a user hands an arbitrary rtl::Design plus a
 * HostDriver, and gets back a workload-specific average-power estimate
 * with confidence intervals.
 *
 * Pipeline:
 *  1. FAME1-transform the design; run it fast under the host driver while
 *     reservoir-sampling replayable snapshots (performance measurement is
 *     cycle-exact — it IS the RTL).
 *  2. Push the same design through the ASIC flow: synthesis → placement →
 *     RTL/gate matching (this is independent of step 1 and cached).
 *  3. Replay every snapshot on the gate-level simulator, verify its
 *     outputs against the trace, run power analysis on its activity.
 *  4. Aggregate: sample mean + confidence interval over the population of
 *     all L-cycle intervals of the run (Section III-A estimators).
 */

#ifndef STROBER_CORE_ENERGY_SIM_H
#define STROBER_CORE_ENERGY_SIM_H

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/harness.h"
#include "fame/fame1.h"
#include "fame/sampler.h"
#include "gate/matching.h"
#include "gate/placement.h"
#include "gate/replay.h"
#include "gate/state_loader.h"
#include "gate/synthesis.h"
#include "power/power_analysis.h"
#include "stats/sampling.h"

namespace strober {

namespace inject {
class StallPlan;
} // namespace inject

namespace core {

class ReplayStore;
struct ReplayContext;
struct JobControl;

/** Performance results of the fast simulation phase. */
struct RunStats
{
    uint64_t targetCycles = 0;
    uint64_t hostCycles = 0;       //!< incl. sampling + service stalls
    uint64_t recordCount = 0;      //!< reservoir record events
    uint64_t intervalsSeen = 0;    //!< population size N (in L-intervals)
    double wallSeconds = 0;        //!< measured wall-clock of the phase
    double simulatedHz = 0;        //!< targetCycles / wallSeconds
};

/** Mean + CI for one hierarchy group (Figure 9a bars + error bounds). */
struct GroupEstimate
{
    std::string group;
    stats::Estimate power; //!< watts
};

/** How one sampled snapshot fared in the replay pipeline. */
enum class SnapshotStatus
{
    Replayed,  //!< verified replay; contributes to the estimate
    Diverged,  //!< outputs disagreed with the trace; quarantined
    LoadFailed, //!< state transfer failed (geometry/corruption)
    TimedOut,  //!< exceeded the per-snapshot watchdog budget
    ReplayError, //!< any other structured replay failure
};

/** Stable lowercase name ("replayed", "diverged", ...). */
const char *snapshotStatusName(SnapshotStatus status);

/** Per-snapshot record of the replay pipeline's fault handling. */
struct SnapshotOutcome
{
    size_t index = 0;         //!< position in the replayed sample
    uint64_t cycle = 0;       //!< capture cycle of the snapshot
    SnapshotStatus status = SnapshotStatus::Replayed;
    unsigned attempts = 0;    //!< replay attempts made (1 or 2)
    bool retriedOnAlternateLoader = false;
    uint64_t mismatches = 0;  //!< output mismatches of the last attempt
    std::string detail;       //!< diagnostic for non-Replayed outcomes

    bool replayed() const { return status == SnapshotStatus::Replayed; }
};

/**
 * Final energy report. When snapshots are quarantined the estimator
 * *degrades* instead of aborting (the Section III-A estimators are
 * well-defined over any surviving subsample): `degraded` is set, the
 * mean/CI cover the survivors only, and `outcomes` records what
 * happened to every snapshot. `valid` is cleared when no trustworthy
 * estimate exists at all (everything quarantined, survivor count under
 * the configured floor, drop count over the configured ceiling, or a
 * run too short to define the interval population) — `statusMessage`
 * says why.
 */
struct EnergyReport
{
    stats::Estimate averagePower;   //!< watts, with CI (Eq. 7)
    std::vector<GroupEstimate> groups;
    uint64_t population = 0;        //!< N (number of L-intervals)
    size_t snapshots = 0;           //!< n sampled (incl. quarantined)
    size_t droppedSnapshots = 0;    //!< quarantined, excluded from mean/CI
    uint64_t replayMismatches = 0;  //!< total mismatches observed
    double replayWallSeconds = 0;
    /** Per-phase wall clocks. A phased run's total is fastSim + replay;
     *  a streamed run (estimateStreaming) overlaps the two, and
     *  overlapWallSeconds measures how much replay wall ran concurrent
     *  with the fast sim — overlap / min(fastSim, replay) is the
     *  pipeline's overlap efficiency. Wall clocks are excluded from the
     *  deterministic rendering (farm::renderReportDeterministic). */
    double fastSimWallSeconds = 0;
    double overlapWallSeconds = 0;
    /** Adaptive termination fired: the run stopped once the CI met
     *  Config::ciBound. Only ever true for streamed runs; a
     *  false value is part of the deterministic rendering (streamed
     *  and phased reports stay byte-identical when no stop occurs). */
    bool earlyStopped = false;
    /** Streamed captures superseded by reservoir replacement (their
     *  queued or completed work was canceled/discarded). */
    size_t supersededReplays = 0;
    double modeledLoadSeconds = 0;  //!< Section IV-C2 loader accounting
    /** Replay-result cache accounting (src/farm). A plain in-process
     *  run counts every snapshot as a miss; a warm farm::ResultCache
     *  serves hits without any gate-level replay. Hits never change
     *  the numbers — only where they came from. */
    size_t cacheHits = 0;
    size_t cacheMisses = 0;
    bool degraded = false;          //!< some snapshots were quarantined
    bool valid = true;              //!< false: no trustworthy estimate
    std::string statusMessage;      //!< why degraded / invalid
    std::vector<SnapshotOutcome> outcomes; //!< per-snapshot records

    /** Energy per cycle in joules (power / clock). */
    double energyPerCycle(double clockHz) const
    {
        return averagePower.mean / clockHz;
    }
};

/** The ASIC-flow products of one design (pipeline step 2). */
struct AsicProducts
{
    gate::SynthesisResult synth;
    gate::Placement placement;
    gate::MatchTable match;
};

/**
 * Synthesis → placement → RTL/gate matching of one design, run once on
 * first use (EnergySimulator and farm::FarmOrchestrator each own one).
 */
class AsicFlow
{
  public:
    explicit AsicFlow(const rtl::Design &target) : dsn(target) {}

    const AsicProducts &products();

  private:
    const rtl::Design &dsn;
    std::unique_ptr<AsicProducts> built;
};

/** End-to-end sample-based energy simulation of one design. */
class EnergySimulator
{
  public:
    struct Config
    {
        size_t sampleSize = 30;
        unsigned replayLength = 128;
        uint64_t seed = 0x5eed5eedULL;
        double confidence = 0.99;
        double clockHz = 1e9;           //!< target clock (paper: 1 GHz)
        bool samplingEnabled = true;
        /** Fast-simulator backend for phase 1. Every backend is
         *  observationally equivalent (locked down four ways by
         *  tests/test_differential.cc); InterpretedActivity scales with
         *  per-cycle activity instead of design size, Compiled trades a
         *  one-time host-compiler invocation for the fastest sweeps,
         *  and CompiledParallel gates the compiled code on activity at
         *  chunk granularity, with results bit-identical to every
         *  other backend. */
        sim::Backend backend = sim::Backend::InterpretedActivity;
        gate::LoaderKind loader = gate::LoaderKind::FastVpi;
        /** Host-service stall modeling: every @p hostServiceInterval
         *  target cycles the host services target I/O, costing
         *  @p hostServiceStall stalled host cycles (paper Section V-B:
         *  stalls every 256 cycles). */
        uint64_t hostServiceInterval = 256;
        uint64_t hostServiceStall = 16;
        /** Snapshots are independent; replay them on this many parallel
         *  gate-level simulator instances (paper Section III-B / IV-E's
         *  P). The report is bit-identical for any worker count. */
        unsigned parallelReplays = 1;

        // --- Fault tolerance (replay farm survival knobs) ---------------
        /** Watchdog: simulator steps one replay may consume (warm-up +
         *  trace + stalls) before it is declared hung and quarantined.
         *  0 derives a generous budget from the replay length and the
         *  retiming warm-up depth. */
        uint64_t replayTimeoutCycles = 0;
        /** A faulty snapshot gets one bounded retry (on the alternate
         *  LoaderKind, in case the state-transfer path itself is the
         *  fault) before quarantine. */
        bool retryFaultySnapshots = true;
        /** More quarantined snapshots than this invalidates the report
         *  (report.valid = false) instead of silently estimating from
         *  a sliver of the sample. */
        size_t maxDroppedSnapshots = std::numeric_limits<size_t>::max();
        /** Minimum surviving samples for a trustworthy CI; fewer clears
         *  report.valid. At least 2 survivors are always required (the
         *  Eq. 4 sample variance is undefined below that). */
        size_t minSurvivingSamples = 2;
        /** Fault injection: per-snapshot stall cycles simulating a hung
         *  gate-level simulator (tests; see src/inject). */
        const inject::StallPlan *stallPlan = nullptr;

        // --- Replay orchestration (src/farm) ----------------------------
        /** Optional result store the replay engine consults in both
         *  estimate() and estimateStreaming(): a farm::
         *  CachingReplayExecutor adds a persistent content-addressed
         *  result cache so a warm re-estimate of an unchanged design
         *  replays nothing. Any store must produce bit-identical
         *  reports (not owned). */
        ReplayStore *replayExecutor = nullptr;
        /** Optional job-scoped cancel/deadline flags (core/job_control.h,
         *  not owned). A passed deadline turns not-yet-started replays
         *  into deterministic TimedOut outcomes (degraded report); a
         *  cancel makes the farm orchestrator checkpoint and return
         *  ErrorCode::Canceled so a later run resumes bit-identically.
         *  Mutable because the flags are atomics the supervisor side
         *  stores to while replay threads poll. */
        JobControl *job = nullptr;

        // --- Streaming / adaptive termination (core::ReplayEngine) -------
        /** Adaptive accuracy knob for streamed runs: stop the fast sim
         *  AND the replay stream as soon as the Section III-A estimate's
         *  relativeError() (CI half-width over mean) drops below this
         *  bound, with the Eq. 8 floor of n >= 30 surviving replays.
         *  0 disables early termination (the default: streamed reports
         *  stay bit-identical to phased ones). Ignored by the phased
         *  estimate() path. */
        double ciBound = 0;
        /** Streamed-farm adaptive termination hook: polled at every
         *  replay-interval boundary of run(); returning true stops the
         *  fast sim there (the caller performs its own CI-bound check,
         *  e.g. over farm::StreamFeed completions, and throttles
         *  itself). Null = run to the driver/cycle-budget end.
         *  estimateStreaming() ignores it — it probes the engine's
         *  ciBound check at the same point. Excluded from the replay cache
         *  fingerprint (an aggregation/termination knob, never a
         *  replay input). */
        std::function<bool()> earlyStopProbe;

        // --- Trace stimulus (src/trace) ---------------------------------
        /** Content hash of the external stimulus file driving this run
         *  (0 for generated workloads). Folded into the replay cache
         *  fingerprint so results from different traces never alias,
         *  and mirrored into farm shard manifests so detached workers
         *  reconstruct matching cache keys. */
        uint64_t stimulusFingerprint = 0;
    };

    EnergySimulator(const rtl::Design &target, Config config);

    /** Phase 1: fast simulation with sampling. */
    RunStats run(HostDriver &driver, uint64_t maxCycles);

    /** Phases 2-4: ASIC flow (cached), replay, power aggregation. */
    EnergyReport estimate();

    /**
     * Streamed pipeline: phases 1 and 3 run concurrently — snapshots
     * replay on cfg.parallelReplays worker threads while the fast sim
     * (run()'s loop) is still producing them, so end-to-end latency
     * approaches max(fast-sim, replay) instead of the sum. Replaces
     * run() + estimate() for one workload. With cfg.ciBound == 0 the
     * report is byte-identical (deterministic rendering) to the phased
     * path for any worker count and any cfg.replayExecutor; with a
     * bound set, the run stops early once the CI is tight enough and
     * report.earlyStopped records it.
     */
    EnergyReport estimateStreaming(HostDriver &driver, uint64_t maxCycles,
                                   RunStats *outRun = nullptr);

    /** Re-arm phase 1 for another workload on the same design. */
    void resetSampling();

    // --- Component access (benches, tests, examples) --------------------
    const fame::Fame1Design &fameDesign() const { return fame; }
    FameHarness &harness() { return *fameHarness; }
    fame::SnapshotSampler &sampler() { return *snapSampler; }
    const gate::SynthesisResult &synthesis() { return asic.products().synth; }
    const gate::Placement &placement() { return asic.products().placement; }
    const gate::MatchTable &matchTable() { return asic.products().match; }
    const Config &config() const { return cfg; }
    const rtl::Design &target() const { return dsn; }

  private:
    const rtl::Design &dsn;
    Config cfg;
    fame::Fame1Design fame;
    std::unique_ptr<fame::SnapshotSampler> snapSampler;
    std::unique_ptr<FameHarness> fameHarness;
    AsicFlow asic;

    uint64_t lastRunCycles = 0;
    double lastFastSimWall = 0;

    /** run()'s loop: @p stopProbe (if set) is polled at every
     *  replay-interval boundary and ends the fast sim when true. */
    RunStats runFastSim(HostDriver &driver, uint64_t maxCycles,
                        const std::function<bool()> &stopProbe);
    /** Replay context over this run's snapshots (builds the ASIC flow). */
    ReplayContext replayContext();
    /** Shared short-run guard: population/snapshots must already be
     *  set; marks the report invalid (with the canonical status
     *  message) and returns true when there is nothing to estimate. */
    bool markShortRun(EnergyReport &report) const;
};

/** What a ground-truth run measured. */
struct GroundTruth
{
    power::PowerReport power;      //!< exact average power
    gate::ActivityReport activity; //!< whole-run switching activity
    /** Cycles each net spent at 1 (SAIF T1); empty unless duty
     *  tracking was requested. */
    std::vector<uint64_t> highCycles;
    uint64_t cycles = 0; //!< gate-level cycles executed
};

/**
 * Ground truth (Figure 8 validation): run the whole workload at gate
 * level and return the exact average-power report, plus the activity it
 * came from (and, with @p trackDuty, each net's high-cycle count for a
 * duty-tracked SAIF export). Slow by construction. A run that executes
 * no cycle is an InvalidArgument error.
 */
util::Result<GroundTruth> measureGroundTruth(EnergySimulator &sim,
                                             HostDriver &driver,
                                             uint64_t maxCycles,
                                             bool trackDuty = false);

} // namespace core
} // namespace strober

#endif // STROBER_CORE_ENERGY_SIM_H
