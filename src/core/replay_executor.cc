#include "core/replay_executor.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <map>

#include "core/job_control.h"
#include "inject/fault_injector.h"
#include "util/env.h"
#include "util/logging.h"

namespace strober {
namespace core {

namespace {

SnapshotStatus
classifyReplayError(util::ErrorCode code)
{
    switch (code) {
      case util::ErrorCode::Timeout:
        return SnapshotStatus::TimedOut;
      case util::ErrorCode::LoadFailure:
      case util::ErrorCode::GeometryMismatch:
      case util::ErrorCode::Corrupt:
        return SnapshotStatus::LoadFailed;
      default:
        return SnapshotStatus::ReplayError;
    }
}

} // namespace

uint64_t
resolveReplayBudget(const EnergySimulator::Config &cfg,
                    const gate::SynthesisResult &synth)
{
    if (cfg.replayTimeoutCycles)
        return cfg.replayTimeoutCycles;
    // A healthy replay consumes warm-up + L steps; give it generous
    // slack so only genuinely hung replays trip the watchdog.
    unsigned maxLat = 0;
    for (const gate::RetimeNetInfo &r : synth.netlist.retime())
        maxLat = std::max(maxLat, r.latency);
    return 4ull * (cfg.replayLength + maxLat) + 256;
}

ReplayRecord
replaySnapshot(gate::GateSimulator &gsim, const ReplayContext &ctx,
               const ReplayUnit &unit)
{
    ReplayRecord out;
    SnapshotOutcome &oc = out.outcome;
    oc.index = unit.index;
    oc.cycle = unit.snap->cycle();
    const EnergySimulator::Config &cfg = ctx.cfg;
    // Job deadline: a replay that has not started by the deadline is
    // recorded as a deterministic TimedOut outcome (attempts = 0, fixed
    // detail string) so the degraded report's bytes depend only on
    // *which* snapshots were cut off, never on wall-clock noise — and
    // the job still terminates with survivors-only statistics.
    if (cfg.job != nullptr && cfg.job->deadlineExpired()) {
        oc.status = SnapshotStatus::TimedOut;
        oc.attempts = 0;
        oc.detail = "job deadline exceeded before replay";
        return out;
    }
    const unsigned maxAttempts = cfg.retryFaultySnapshots ? 2 : 1;
    for (unsigned attempt = 0; attempt < maxAttempts; ++attempt) {
        oc.attempts = attempt + 1;
        gate::ReplayOptions opts;
        opts.loader = attempt == 0 ? cfg.loader
                                   : gate::alternateLoader(cfg.loader);
        oc.retriedOnAlternateLoader = attempt > 0;
        opts.cycleBudget = ctx.cycleBudget;
        if (cfg.stallPlan)
            opts.injectedStallCycles = cfg.stallPlan->stallFor(unit.index);
        try {
            util::Result<gate::GateReplayResult> r = gate::replayOnGate(
                gsim, ctx.target, ctx.match, *unit.snap, opts);
            if (!r.isOk()) {
                oc.status = classifyReplayError(r.status().code());
                oc.detail = r.status().toString();
                continue; // bounded retry, then quarantine
            }
            out.modeledLoadSeconds += r->load.modeledSeconds;
            if (r->outputMismatches) {
                oc.status = SnapshotStatus::Diverged;
                oc.mismatches = r->outputMismatches;
                oc.detail = r->firstMismatch;
                continue;
            }
            oc.status = SnapshotStatus::Replayed;
            oc.mismatches = 0;
            oc.detail.clear();
            power::PowerReport p =
                power::analyzePower(ctx.synth.netlist, ctx.placement,
                                    r->activity, cfg.clockHz);
            out.totalWatts = p.totalWatts();
            out.groups.clear();
            for (const power::GroupPower &g : p.groups)
                out.groups.emplace_back(g.group, g.total());
        } catch (const std::exception &e) {
            // Defense in depth: an exception escaping a replay must
            // cost one sample, not the whole farm run.
            oc.status = SnapshotStatus::ReplayError;
            oc.detail = strfmt("unexpected exception: %s", e.what());
            continue;
        }
        break;
    }
    return out;
}

ReplayEngine::ReplayEngine(const ReplayContext &ctx, ReplayStore *store,
                           unsigned workerCount, size_t queueBound)
    : ctx(ctx), store(store), bound(std::max<size_t>(queueBound, 1))
{
    if (store)
        store->bind(ctx);
    unsigned n = std::max(1u, workerCount);
    workers.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers.emplace_back([this] { workerMain(); });
}

ReplayEngine::~ReplayEngine()
{
    finish();
}

void
ReplayEngine::onSnapshotReady(
    size_t slot, uint64_t generation,
    std::shared_ptr<const fame::ReplayableSnapshot> snap)
{
    std::unique_lock<std::mutex> lk(mtx);
    // Backpressure: a streamed run's bound covers the reservoir and
    // eviction dequeues eagerly, so this wait only ever fires when
    // replay is pathologically slower than capture.
    spaceCv.wait(lk, [&] { return queue.size() < bound || closed; });
    if (closed)
        return;
    if (slot >= slots.size())
        slots.resize(slot + 1);
    slots[slot].live = generation;
    queue.push_back(Item{slot, generation, std::move(snap)});
    readyCv.notify_one();
}

void
ReplayEngine::onSlotEvicted(size_t slot, uint64_t generation)
{
    std::lock_guard<std::mutex> lk(mtx);
    if (slot >= slots.size() || slots[slot].live != generation)
        return; // never published: the feed was already closed
    Slot &s = slots[slot];
    s.live = 0;
    auto queued = std::find_if(queue.begin(), queue.end(), [&](const Item &it) {
        return it.slot == slot && it.generation == generation;
    });
    if (queued != queue.end()) {
        queue.erase(queued);
        ++counters.supersededQueued;
        spaceCv.notify_one();
    } else if (s.done) {
        s.done = false;
        s.record = ReplayRecord();
        ++counters.supersededResults;
    }
    // Otherwise the capture is replaying right now; its worker finds the
    // slot moved on and discards the result.
}

ReplayRecord
ReplayEngine::replay(std::unique_ptr<gate::GateSimulator> &gsim,
                     const ReplayUnit &unit)
{
    // Built lazily: store hits and idle workers never pay for a
    // gate-level simulator.
    auto run = [&] {
        if (!gsim)
            gsim = std::make_unique<gate::GateSimulator>(ctx.synth.netlist);
        return replaySnapshot(*gsim, ctx, unit);
    };
    return store ? store->fetch(ctx, unit, run) : run();
}

void
ReplayEngine::workerMain()
{
    std::unique_ptr<gate::GateSimulator> gsim;
    for (;;) {
        Item item;
        {
            std::unique_lock<std::mutex> lk(mtx);
            readyCv.wait(lk, [&] { return !queue.empty() || closed; });
            if (queue.empty())
                return;
            item = std::move(queue.front());
            queue.pop_front();
            ++inFlight;
            if (counters.firstReplayStart == 0)
                counters.firstReplayStart = util::monotonicSeconds();
            spaceCv.notify_one();
        }
        // The slot is the provisional sample index; estimateStreaming()
        // maps it to the final compacted one.
        ReplayRecord rec = replay(gsim, ReplayUnit{item.slot, item.snap.get()});
        std::lock_guard<std::mutex> lk(mtx);
        --inFlight;
        counters.lastReplayEnd = util::monotonicSeconds();
        Slot &s = slots[item.slot];
        if (s.live == item.generation) {
            s.record = std::move(rec);
            s.done = true;
        } else {
            ++counters.supersededResults;
        }
        doneCv.notify_all();
    }
}

stats::SampleStats
ReplayEngine::completedPower() const
{
    std::lock_guard<std::mutex> lk(mtx);
    stats::SampleStats power;
    for (const Slot &s : slots) {
        if (s.done && s.record.outcome.replayed())
            power.add(s.record.totalWatts);
    }
    return power;
}

void
ReplayEngine::cancelQueued()
{
    std::lock_guard<std::mutex> lk(mtx);
    queue.clear();
    spaceCv.notify_all();
}

bool
ReplayEngine::waitIdle(uint64_t maxWaitMs)
{
    std::unique_lock<std::mutex> lk(mtx);
    return doneCv.wait_for(lk, std::chrono::milliseconds(maxWaitMs), [&] {
        return queue.empty() && inFlight == 0;
    });
}

void
ReplayEngine::finish()
{
    {
        std::lock_guard<std::mutex> lk(mtx);
        closed = true;
        readyCv.notify_all();
        spaceCv.notify_all();
    }
    for (std::thread &t : workers) {
        if (t.joinable())
            t.join();
    }
}

std::optional<ReplayRecord>
ReplayEngine::take(size_t slot, uint64_t generation)
{
    std::lock_guard<std::mutex> lk(mtx);
    if (slot >= slots.size() || slots[slot].live != generation ||
        !slots[slot].done)
        return std::nullopt;
    slots[slot].done = false;
    return std::move(slots[slot].record);
}

std::vector<ReplayRecord>
ReplayEngine::takeAll()
{
    std::lock_guard<std::mutex> lk(mtx);
    std::vector<ReplayRecord> out;
    for (Slot &s : slots) {
        if (s.done)
            out.push_back(std::move(s.record));
        s.done = false;
    }
    return out;
}

ReplayRecord
ReplayEngine::replayInline(const ReplayUnit &unit)
{
    return replay(inlineSim, unit);
}

ReplayEngine::Stats
ReplayEngine::stats() const
{
    std::lock_guard<std::mutex> lk(mtx);
    return counters;
}

EnergyReport
aggregateReplayRecords(std::vector<ReplayRecord> records,
                       uint64_t population,
                       const EnergySimulator::Config &cfg)
{
    EnergyReport report;
    report.population = population;
    report.snapshots = records.size();

    // Aggregate in snapshot order: survivors feed the estimators,
    // quarantined snapshots are accounted and excluded — the paper's
    // statistics are exactly as valid over the surviving subsample,
    // just with a wider interval.
    stats::SampleStats totalPower;
    std::map<std::string, stats::SampleStats> groupPower;
    for (ReplayRecord &r : records) {
        const SnapshotOutcome &oc = r.outcome;
        report.replayMismatches += oc.mismatches;
        report.modeledLoadSeconds += r.modeledLoadSeconds;
        if (r.fromCache)
            ++report.cacheHits;
        else
            ++report.cacheMisses;
        if (!oc.replayed()) {
            ++report.droppedSnapshots;
            warn("snapshot %zu (cycle %llu) quarantined after %u "
                 "attempt(s): %s: %s",
                 oc.index, (unsigned long long)oc.cycle, oc.attempts,
                 snapshotStatusName(oc.status), oc.detail.c_str());
        } else {
            totalPower.add(r.totalWatts);
            for (const auto &[name, watts] : r.groups)
                groupPower[name].add(watts);
        }
        report.outcomes.push_back(std::move(r.outcome));
    }
    report.degraded = report.droppedSnapshots > 0;

    size_t survivors = records.size() - report.droppedSnapshots;
    size_t sampleFloor = std::max<size_t>(cfg.minSurvivingSamples, 2);
    if (survivors == 0) {
        report.valid = false;
        report.statusMessage = strfmt(
            "all %zu snapshots quarantined; no estimate", records.size());
        warn("estimate(): %s", report.statusMessage.c_str());
        return report;
    }

    uint64_t effPopulation =
        std::max<uint64_t>(report.population, records.size());
    if (survivors == 1) {
        // A single survivor defines a mean but no variance (Eq. 4
        // needs n >= 2); report the point estimate, flagged invalid.
        report.averagePower.mean = totalPower.mean();
        report.averagePower.confidence = cfg.confidence;
    } else {
        report.averagePower =
            totalPower.estimate(cfg.confidence, effPopulation);
        for (auto &[name, samples] : groupPower) {
            GroupEstimate g;
            g.group = name;
            g.power = samples.estimate(cfg.confidence, effPopulation);
            report.groups.push_back(std::move(g));
        }
    }

    if (report.droppedSnapshots > cfg.maxDroppedSnapshots) {
        report.valid = false;
        report.statusMessage = strfmt(
            "%zu snapshots quarantined, over the configured ceiling of "
            "%zu", report.droppedSnapshots, cfg.maxDroppedSnapshots);
    } else if (survivors < sampleFloor) {
        report.valid = false;
        report.statusMessage = strfmt(
            "only %zu of %zu snapshots survived replay, under the "
            "minimum-sample floor of %zu",
            survivors, records.size(), sampleFloor);
    } else if (report.degraded) {
        report.statusMessage = strfmt(
            "degraded: %zu of %zu snapshots quarantined; estimate uses "
            "the %zu survivors (CI widened accordingly)",
            report.droppedSnapshots, records.size(), survivors);
    }
    if (!report.valid)
        warn("estimate(): %s", report.statusMessage.c_str());
    return report;
}

} // namespace core
} // namespace strober
