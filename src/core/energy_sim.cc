#include "core/energy_sim.h"

#include <algorithm>

#include "core/replay_executor.h"
#include "util/env.h"
#include "util/logging.h"

namespace strober {
namespace core {

const AsicProducts &
AsicFlow::products()
{
    if (!built) {
        auto p = std::make_unique<AsicProducts>();
        p->synth = gate::synthesize(dsn);
        p->placement = gate::place(p->synth.netlist);
        p->match =
            gate::matchDesigns(dsn, p->synth.netlist, p->synth.guide);
        built = std::move(p);
    }
    return *built;
}

EnergySimulator::EnergySimulator(const rtl::Design &target, Config config)
    : dsn(target), cfg(config), fame(fame::fame1Transform(target)),
      asic(target)
{
    resetSampling();
}

void
EnergySimulator::resetSampling()
{
    fame::SnapshotSampler::Config scfg;
    scfg.sampleSize = cfg.sampleSize;
    scfg.replayLength = cfg.replayLength;
    scfg.seed = cfg.seed;
    scfg.enabled = cfg.samplingEnabled;
    snapSampler = std::make_unique<fame::SnapshotSampler>(fame, scfg);
    fameHarness = std::make_unique<FameHarness>(fame, snapSampler.get(),
                                                cfg.backend);
    lastRunCycles = 0;
}

RunStats
EnergySimulator::run(HostDriver &driver, uint64_t maxCycles)
{
    return runFastSim(driver, maxCycles, cfg.earlyStopProbe);
}

RunStats
EnergySimulator::runFastSim(HostDriver &driver, uint64_t maxCycles,
                            const std::function<bool()> &stopProbe)
{
    RunStats stats;
    double start = util::monotonicSeconds();
    fame::TokenSimulator &tsim = fameHarness->tokenSim();
    uint64_t nextService = cfg.hostServiceInterval;
    uint64_t nextProbe = stopProbe ? cfg.replayLength : 0;
    while (!driver.done() && tsim.targetCycles() < maxCycles) {
        driver.drive(*fameHarness);
        fameHarness->clock();
        if (cfg.hostServiceInterval &&
            tsim.targetCycles() >= nextService) {
            tsim.addHostStallCycles(cfg.hostServiceStall);
            nextService += cfg.hostServiceInterval;
        }
        if (nextProbe != 0 && tsim.targetCycles() >= nextProbe) {
            if (stopProbe())
                break;
            nextProbe += cfg.replayLength;
        }
    }
    stats.wallSeconds = util::monotonicSeconds() - start;
    stats.targetCycles = tsim.targetCycles();
    stats.hostCycles = tsim.hostCycles();
    stats.recordCount = snapSampler->recordCount();
    stats.intervalsSeen = snapSampler->intervalsSeen();
    stats.simulatedHz = stats.wallSeconds > 0
                            ? static_cast<double>(stats.targetCycles) /
                                  stats.wallSeconds
                            : 0;
    lastRunCycles = stats.targetCycles;
    lastFastSimWall = stats.wallSeconds;
    return stats;
}

ReplayContext
EnergySimulator::replayContext()
{
    const AsicProducts &p = asic.products();
    return ReplayContext{dsn,
                         p.synth,
                         p.placement,
                         p.match,
                         snapSampler->chains(),
                         cfg,
                         resolveReplayBudget(cfg, p.synth)};
}

const char *
snapshotStatusName(SnapshotStatus status)
{
    switch (status) {
      case SnapshotStatus::Replayed:
        return "replayed";
      case SnapshotStatus::Diverged:
        return "diverged";
      case SnapshotStatus::LoadFailed:
        return "load-failed";
      case SnapshotStatus::TimedOut:
        return "timed-out";
      case SnapshotStatus::ReplayError:
        return "replay-error";
    }
    return "unknown";
}

// No complete interval was ever captured: there is nothing to replay
// and (for a short run) N = floor(cycles/L) is zero, so any CI would be
// meaningless. Report the condition instead of computing garbage.
// Shared by the phased and streamed paths so both emit the exact same
// invalid report.
bool
EnergySimulator::markShortRun(EnergyReport &report) const
{
    if (report.snapshots != 0 && report.population != 0)
        return false;
    report.valid = false;
    report.degraded = true;
    if (lastRunCycles < cfg.replayLength) {
        report.statusMessage = strfmt(
            "run of %llu target cycles is shorter than one replay "
            "interval (L = %u): zero complete intervals, no estimate",
            (unsigned long long)lastRunCycles, cfg.replayLength);
    } else {
        report.statusMessage =
            "no complete snapshots; run a workload with sampling "
            "enabled first";
    }
    warn("estimate(): %s", report.statusMessage.c_str());
    return true;
}

EnergyReport
EnergySimulator::estimate()
{
    ReplayContext ctx = replayContext();
    EnergyReport report;

    auto snapshots = snapSampler->snapshots();
    report.population = lastRunCycles / cfg.replayLength;
    report.snapshots = snapshots.size();
    report.fastSimWallSeconds = lastFastSimWall;
    if (markShortRun(report))
        return report;

    double start = util::monotonicSeconds();
    // A phased run is a stream whose feed closes before replay ends.
    // The sampler owns the snapshots, so the published pointers are
    // non-owning.
    ReplayEngine engine(
        ctx, cfg.replayExecutor,
        std::min<unsigned>(std::max(1u, cfg.parallelReplays),
                           snapshots.size()),
        snapshots.size());
    for (size_t i = 0; i < snapshots.size(); ++i) {
        engine.onSnapshotReady(
            i, 1,
            std::shared_ptr<const fame::ReplayableSnapshot>(
                std::shared_ptr<void>(), snapshots[i]));
    }
    engine.finish();

    uint64_t population = report.population;
    report = aggregateReplayRecords(engine.takeAll(), population, cfg);
    report.replayWallSeconds = util::monotonicSeconds() - start;
    report.fastSimWallSeconds = lastFastSimWall;
    return report;
}

EnergyReport
EnergySimulator::estimateStreaming(HostDriver &driver, uint64_t maxCycles,
                                   RunStats *outRun)
{
    // The ASIC-flow products are independent of the fast sim (pipeline
    // step 2) and replay consumes them immediately, so build them
    // before the clock starts.
    ReplayContext ctx = replayContext();
    // The queue bound covers the reservoir and an eviction frees its
    // queued item first, so publishing never blocks the fast sim. The
    // reservoir holds at most sampleSize snapshots, so workers beyond
    // that would idle (like estimate()'s clamp to the snapshot count).
    ReplayEngine engine(
        ctx, cfg.replayExecutor,
        static_cast<unsigned>(std::clamp<size_t>(
            cfg.parallelReplays, 1, std::max<size_t>(cfg.sampleSize, 1))),
        cfg.sampleSize + 1);
    snapSampler->setObserver(&engine);

    // Adaptive termination: the CI-bound rule over the completed
    // current-generation replays, at every interval boundary of the
    // fast sim and then between completions while the queue drains.
    auto ciBoundMet = [&](uint64_t population) {
        return stats::ciBoundMet(engine.completedPower(), cfg.ciBound,
                                 cfg.confidence,
                                 std::max<uint64_t>(population, 1),
                                 cfg.sampleSize);
    };
    bool earlyStopped = false;
    std::function<bool()> probe;
    if (cfg.ciBound > 0) {
        probe = [&] {
            earlyStopped = ciBoundMet(
                fameHarness->tokenSim().targetCycles() / cfg.replayLength);
            return earlyStopped;
        };
    }
    double t0 = util::monotonicSeconds();
    RunStats rstats = runFastSim(driver, maxCycles, probe);
    if (outRun)
        *outRun = rstats;

    // Publish a capture that completed exactly at the final cycle.
    snapSampler->flushPending();

    uint64_t population = lastRunCycles / cfg.replayLength;
    // Stopping the replay side alone still saves the remaining replays.
    while (cfg.ciBound > 0 && !earlyStopped && !engine.waitIdle(5))
        earlyStopped = ciBoundMet(population);
    if (earlyStopped)
        engine.cancelQueued();
    engine.finish();
    snapSampler->setObserver(nullptr);

    std::vector<ReplayRecord> records;
    if (earlyStopped) {
        // The frozen decision set: completed current-generation
        // replays, slot order. Reindex compactly for the rendering.
        records = engine.takeAll();
        for (size_t i = 0; i < records.size(); ++i)
            records[i].outcome.index = i;
    } else {
        auto snapshots = snapSampler->snapshots();
        std::vector<size_t> slots = snapSampler->completeSlots();
        EnergyReport report;
        report.population = population;
        report.snapshots = snapshots.size();
        report.fastSimWallSeconds = lastFastSimWall;
        report.supersededReplays = engine.stats().superseded();
        if (markShortRun(report))
            return report;
        records.resize(snapshots.size());
        for (size_t i = 0; i < snapshots.size(); ++i) {
            std::optional<ReplayRecord> rec =
                engine.take(slots[i], snapSampler->generationOf(slots[i]));
            // Under a fault-injection stall plan the replay itself is a
            // function of the sample index, so a record replayed under
            // a shifted provisional index (slot != final compacted
            // index, possible when an incomplete trailing capture
            // vacates an earlier slot) must be redone with the real
            // one. Without a stall plan the index is labeling only.
            if (rec && (cfg.stallPlan == nullptr || slots[i] == i)) {
                rec->outcome.index = i;
                records[i] = std::move(*rec);
            } else {
                records[i] = engine.replayInline(ReplayUnit{i, snapshots[i]});
            }
        }
    }

    ReplayEngine::Stats ss = engine.stats();
    EnergyReport report = aggregateReplayRecords(
        std::move(records), std::max<uint64_t>(population, 1), cfg);
    double replayEnd = util::monotonicSeconds();
    double fastEndAbs = t0 + lastFastSimWall;
    double replayStart =
        ss.firstReplayStart > 0 ? ss.firstReplayStart : fastEndAbs;
    report.fastSimWallSeconds = lastFastSimWall;
    report.replayWallSeconds = replayEnd - replayStart;
    report.overlapWallSeconds = std::max(
        0.0, std::min(fastEndAbs, ss.lastReplayEnd) - replayStart);
    report.earlyStopped = earlyStopped;
    report.supersededReplays = ss.superseded();
    return report;
}

util::Result<GroundTruth>
measureGroundTruth(EnergySimulator &sim, HostDriver &driver,
                   uint64_t maxCycles, bool trackDuty)
{
    const gate::SynthesisResult &synth = sim.synthesis();
    GateHarness harness(synth.netlist);
    if (trackDuty)
        harness.simulator().enableDutyTracking();
    harness.simulator().clearActivity();
    runLoop(harness, driver, maxCycles);
    if (harness.cycles() == 0) {
        return util::errorf(util::ErrorCode::InvalidArgument,
                            "ground-truth run executed zero cycles");
    }
    GroundTruth truth;
    truth.activity = gate::ActivityReport{
        harness.simulator().toggleCounts(),
        harness.simulator().macroStats(),
        harness.simulator().activityCycles()};
    truth.power = power::analyzePower(synth.netlist, sim.placement(),
                                      truth.activity, sim.config().clockHz);
    truth.highCycles = harness.simulator().highCycles();
    truth.cycles = harness.cycles();
    return truth;
}

} // namespace core
} // namespace strober
