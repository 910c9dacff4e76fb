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

namespace {

/** Fill @p out's power numbers from a verified replay's report. */
void
setPower(ReplayRecord &out, const power::PowerReport &p)
{
    out.totalWatts = p.totalWatts();
    out.groups.clear();
    for (const power::GroupPower &g : p.groups)
        out.groups.emplace_back(g.group, g.total());
}

/** Record that attempt @p attempt of @p out threw @p e. */
void
recordException(ReplayRecord &out, unsigned attempt, const std::exception &e)
{
    // Defense in depth: an exception escaping a replay must cost one
    // sample, not the whole farm run.
    SnapshotOutcome &oc = out.outcome;
    oc.attempts = attempt + 1;
    oc.retriedOnAlternateLoader = attempt > 0;
    oc.status = SnapshotStatus::ReplayError;
    oc.detail = strfmt("unexpected exception: %s", e.what());
}

/**
 * The records of @p units under the full fault-handling policy: a first
 * attempt on the configured loader and, with retries enabled, one more
 * on the alternate loader for every unit it did not verify. Each
 * attempt is one `replayLanes(lanes, onLane)` call over the units still
 * open; a verified replay's power comes from @p model.
 */
template <typename ReplayLanes>
std::vector<ReplayRecord>
replayUnits(const ReplayContext &ctx, const std::vector<ReplayUnit> &units,
            const ReplayLanes &replayLanes, const power::PowerModel &model)
{
    const EnergySimulator::Config &cfg = ctx.cfg;
    // Job deadline: a replay that has not started by the deadline is
    // recorded as a deterministic TimedOut outcome (attempts = 0, fixed
    // detail string) so the degraded report's bytes depend only on
    // *which* snapshots were cut off, never on wall-clock noise — and
    // the job still terminates with survivors-only statistics.
    const bool cutOff = cfg.job != nullptr && cfg.job->deadlineExpired();
    std::vector<ReplayRecord> out(units.size());
    std::vector<size_t> open; // units no attempt has verified yet
    for (size_t k = 0; k < units.size(); ++k) {
        SnapshotOutcome &oc = out[k].outcome;
        oc.index = units[k].index;
        oc.cycle = units[k].snap->cycle();
        if (!cutOff) {
            open.push_back(k);
            continue;
        }
        oc.status = SnapshotStatus::TimedOut;
        oc.attempts = 0;
        oc.detail = "job deadline exceeded before replay";
    }
    const unsigned maxAttempts = cfg.retryFaultySnapshots ? 2 : 1;
    for (unsigned attempt = 0; attempt < maxAttempts && !open.empty();
         ++attempt) {
        std::vector<gate::ReplayLane> lanes;
        for (size_t k : open) {
            gate::ReplayOptions opts;
            opts.loader = attempt == 0 ? cfg.loader
                                       : gate::alternateLoader(cfg.loader);
            opts.cycleBudget = ctx.cycleBudget;
            if (cfg.stallPlan) {
                opts.injectedStallCycles =
                    cfg.stallPlan->stallFor(units[k].index);
            }
            lanes.push_back(gate::ReplayLane{units[k].snap, opts});
        }
        std::vector<bool> reported(open.size(), false);
        std::vector<size_t> failed; // bounded retry, then quarantine
        auto record = [&](size_t j, util::Result<gate::GateReplayResult> &r) {
            reported[j] = true;
            ReplayRecord &rec = out[open[j]];
            SnapshotOutcome &oc = rec.outcome;
            oc.attempts = attempt + 1;
            oc.retriedOnAlternateLoader = attempt > 0;
            if (!r.isOk()) {
                oc.status = classifyReplayError(r.status().code());
                oc.detail = r.status().toString();
                failed.push_back(open[j]);
                return;
            }
            rec.modeledLoadSeconds += r->load.modeledSeconds;
            if (r->outputMismatches) {
                oc.status = SnapshotStatus::Diverged;
                oc.mismatches = r->outputMismatches;
                oc.detail = r->firstMismatch;
                failed.push_back(open[j]);
                return;
            }
            oc.status = SnapshotStatus::Replayed;
            oc.mismatches = 0;
            oc.detail.clear();
            try {
                setPower(rec, power::analyzePower(ctx.synth.netlist, model,
                                                  r->activity, cfg.clockHz));
            } catch (const std::exception &e) {
                recordException(rec, attempt, e);
                failed.push_back(open[j]);
            }
        };
        try {
            replayLanes(lanes, record);
        } catch (const std::exception &) {
            // Contain the exception per snapshot: the lanes it cut off
            // replay one at a time.
            for (size_t j = 0; j < open.size(); ++j) {
                if (reported[j])
                    continue;
                try {
                    replayLanes({lanes[j]},
                                [&](size_t, util::Result<gate::GateReplayResult>
                                                &r) { record(j, r); });
                } catch (const std::exception &e) {
                    recordException(out[open[j]], attempt, e);
                    failed.push_back(open[j]);
                }
            }
        }
        std::sort(failed.begin(), failed.end());
        open = std::move(failed);
    }
    return out;
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
    auto replayAlone = [&](const std::vector<gate::ReplayLane> &lanes,
                           const gate::LaneResultFn &onLane) {
        for (size_t j = 0; j < lanes.size(); ++j) {
            util::Result<gate::GateReplayResult> r = gate::replayOnGate(
                gsim, ctx.target, ctx.match, *lanes[j].snap, lanes[j].options);
            onLane(j, r);
        }
    };
    power::PowerModel model(ctx.synth.netlist, ctx.placement);
    return std::move(replayUnits(ctx, {unit}, replayAlone, model).front());
}

std::vector<ReplayRecord>
replaySnapshots(const ReplayContext &ctx, const ReplayTables &tables,
                const std::vector<ReplayUnit> &units)
{
    auto replayLanes = [&](const std::vector<gate::ReplayLane> &lanes,
                           const gate::LaneResultFn &onLane) {
        gate::replayLanesOnGate(tables.program, ctx.synth.netlist,
                                ctx.target, ctx.match, lanes, onLane);
    };
    return replayUnits(ctx, units, replayLanes, tables.power);
}

ReplayEngine::ReplayEngine(const ReplayContext &ctx, ReplayStore *store,
                           unsigned workerCount, size_t queueBound)
    : ctx(ctx), store(store), bound(std::max<size_t>(queueBound, 1)),
      nWorkers(std::max(1u, workerCount))
{
    if (store)
        store->bind(ctx);
    workers.reserve(nWorkers);
    for (unsigned i = 0; i < nWorkers; ++i)
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

std::vector<ReplayRecord>
ReplayEngine::replay(const std::vector<ReplayUnit> &units)
{
    auto run = [&](const std::vector<ReplayUnit> &misses) {
        return replaySnapshots(ctx, tables(), misses);
    };
    return store ? store->fetch(ctx, units, run) : run(units);
}

const ReplayTables &
ReplayEngine::tables()
{
    std::call_once(tablesOnce,
                   [&] { builtTables = std::make_unique<ReplayTables>(ctx); });
    return *builtTables;
}

void
ReplayEngine::workerMain()
{
    for (;;) {
        std::vector<Item> batch;
        {
            std::unique_lock<std::mutex> lk(mtx);
            readyCv.wait(lk, [&] { return !queue.empty() || closed; });
            if (queue.empty())
                return;
            // This worker's share of the queue, at most one pass wide.
            size_t take = std::min<size_t>(
                gate::kReplayLanes,
                (queue.size() + nWorkers - 1) / nWorkers);
            for (size_t i = 0; i < take; ++i) {
                batch.push_back(std::move(queue.front()));
                queue.pop_front();
            }
            inFlight += take;
            if (counters.firstReplayStart == 0)
                counters.firstReplayStart = util::monotonicSeconds();
            spaceCv.notify_all();
        }
        // The slot is the provisional sample index; estimateStreaming()
        // maps it to the final compacted one.
        std::vector<ReplayUnit> units;
        for (const Item &item : batch)
            units.push_back(ReplayUnit{item.slot, item.snap.get()});
        std::vector<ReplayRecord> recs = replay(units);
        std::lock_guard<std::mutex> lk(mtx);
        inFlight -= batch.size();
        counters.lastReplayEnd = util::monotonicSeconds();
        for (size_t i = 0; i < batch.size(); ++i) {
            Slot &s = slots[batch[i].slot];
            if (s.live == batch[i].generation) {
                s.record = std::move(recs[i]);
                s.done = true;
            } else {
                ++counters.supersededResults;
            }
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
    return std::move(replay({unit}).front());
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
