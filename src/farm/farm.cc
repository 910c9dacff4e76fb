#include "farm/farm.h"

#include <filesystem>
#include <unordered_map>
#include <unordered_set>

#include "core/job_control.h"
#include "gate/netlist.h"
#include "inject/fault_injector.h"
#include "power/power_analysis.h"
#include "util/env.h"
#include "util/logging.h"

namespace strober {
namespace farm {

namespace fs = std::filesystem;
using core::EnergyReport;
using core::ReplayRecord;
using core::ReplayUnit;
using core::SnapshotStatus;
using util::ErrorCode;
using util::errorf;
using util::Result;
using util::Status;

namespace {

constexpr const char *kManifestSuffix = ".strbfarm";

/** Same mapping gate-replay failures get inside replaySnapshot. */
SnapshotStatus
classifySnapshotFileError(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Corrupt:
      case ErrorCode::GeometryMismatch:
      case ErrorCode::LoadFailure:
        return SnapshotStatus::LoadFailed;
      default:
        return SnapshotStatus::ReplayError;
    }
}

} // namespace

// ---------------------------------------------------------------------------
// CachingReplayExecutor

void
CachingReplayExecutor::bind(const core::ReplayContext &ctx)
{
    netlistFp = gate::netlistFingerprint(ctx.synth.netlist);
    configFp = replayConfigFingerprint(ctx.cfg);
}

std::vector<ReplayRecord>
CachingReplayExecutor::fetch(const core::ReplayContext &ctx,
                             const std::vector<ReplayUnit> &units,
                             const Replay &replay)
{
    std::vector<ReplayRecord> out(units.size());
    std::vector<std::optional<CacheKey>> keys(units.size());
    std::vector<ReplayUnit> misses;
    std::vector<size_t> missAt;
    for (size_t i = 0; i < units.size(); ++i) {
        const ReplayUnit &unit = units[i];
        // An undigestible snapshot replays uncached: the replay path
        // owns the quarantine decision, not the cache.
        Result<fame::SnapshotDigest> digest =
            fame::snapshotDigest(ctx.chains, *unit.snap);
        if (digest.isOk()) {
            uint64_t stalls = ctx.cfg.stallPlan
                                  ? ctx.cfg.stallPlan->stallFor(unit.index)
                                  : 0;
            keys[i] = makeCacheKey(*digest, netlistFp, configFp,
                                   power::kPowerModelVersion, stalls);
            std::optional<ReplayRecord> hit = store.lookup(*keys[i]);
            if (hit) {
                hit->outcome.index = unit.index;
                out[i] = std::move(*hit);
                continue;
            }
        }
        misses.push_back(unit);
        missAt.push_back(i);
    }
    if (misses.empty())
        return out;
    executed += misses.size();
    std::vector<ReplayRecord> fresh = replay(misses);
    for (size_t m = 0; m < misses.size(); ++m) {
        size_t i = missAt[m];
        if (keys[i] && fresh[m].outcome.replayed()) {
            Status st = store.store(*keys[i], fresh[m]);
            if (!st.isOk()) {
                warn("result cache store failed (run continues uncached): "
                     "%s",
                     st.toString().c_str());
            }
        }
        out[i] = std::move(fresh[m]);
    }
    return out;
}

// ---------------------------------------------------------------------------
// Manifest <-> record failure round-trip

void
recordFailure(ManifestEntry &entry, const ReplayRecord &rec)
{
    const core::SnapshotOutcome &oc = rec.outcome;
    entry.failStatus = static_cast<uint32_t>(oc.status);
    entry.failAttempts = oc.attempts;
    entry.failRetried = oc.retriedOnAlternateLoader ? 1 : 0;
    entry.failMismatches = oc.mismatches;
    entry.failLoadSeconds = rec.modeledLoadSeconds;
    entry.failDetail = oc.detail;
}

ReplayRecord
failureRecord(const ManifestEntry &entry)
{
    ReplayRecord rec;
    rec.outcome.index = entry.index;
    rec.outcome.cycle = entry.cycle;
    rec.outcome.status =
        static_cast<SnapshotStatus>(entry.failStatus & 0xff);
    rec.outcome.attempts = entry.failAttempts;
    rec.outcome.retriedOnAlternateLoader = entry.failRetried != 0;
    rec.outcome.mismatches = entry.failMismatches;
    rec.outcome.detail = entry.failDetail;
    rec.modeledLoadSeconds = entry.failLoadSeconds;
    return rec;
}

// ---------------------------------------------------------------------------
// FarmOrchestrator

FarmOrchestrator::FarmOrchestrator(const rtl::Design &targetDesign,
                                   FarmConfig config)
    : target(targetDesign), cfg(std::move(config)),
      store(cfg.effectiveCacheDir()), fame(fame::fame1Transform(target)),
      chainMeta(fame.design), asic(target)
{
    if (cfg.shards == 0)
        fatal("FarmConfig.shards must be at least 1");
}

std::string
FarmOrchestrator::manifestPath(uint32_t shard) const
{
    return (fs::path(cfg.dir) / shardManifestName(shard)).string();
}

Status
FarmOrchestrator::checkCompatible(const ShardManifest &m)
{
    uint64_t netFp = gate::netlistFingerprint(asic.products().synth.netlist);
    if (m.netlistFingerprint != netFp) {
        return errorf(ErrorCode::GeometryMismatch,
                      "manifest was planned against a different netlist "
                      "(fingerprint %016llx, ours %016llx)",
                      (unsigned long long)m.netlistFingerprint,
                      (unsigned long long)netFp);
    }
    if (m.powerModelVersion != power::kPowerModelVersion) {
        return errorf(ErrorCode::Unsupported,
                      "manifest was planned against power model v%u "
                      "(ours v%u)",
                      m.powerModelVersion, power::kPowerModelVersion);
    }
    core::EnergySimulator::Config applied = cfg.sim;
    m.applyTo(applied);
    if (m.configFingerprint != replayConfigFingerprint(applied)) {
        return errorf(ErrorCode::Unsupported,
                      "manifest config mirror does not reproduce its own "
                      "fingerprint; manifest is stale or corrupt");
    }
    return Status::ok();
}

Status
FarmOrchestrator::plan(
    const std::vector<const fame::ReplayableSnapshot *> &snapshots,
    uint64_t population)
{
    std::error_code ec;
    fs::create_directories(cfg.dir, ec);
    if (ec) {
        return errorf(ErrorCode::IoError,
                      "cannot create farm run directory '%s': %s",
                      cfg.dir.c_str(), ec.message().c_str());
    }

    uint64_t netFp = gate::netlistFingerprint(asic.products().synth.netlist);
    uint64_t cfgFp = replayConfigFingerprint(cfg.sim);

    // Harvest completed work from a previous compatible run (resume):
    // only Done states carry over — quarantines always recompute, like
    // the cache's only-successes policy, so a transient fault of the
    // killed run never pins a stale quarantine.
    std::unordered_set<std::string> priorDone;
    std::vector<fs::path> staleManifests;
    for (const auto &de : fs::directory_iterator(cfg.dir, ec)) {
        if (de.path().extension() != kManifestSuffix)
            continue;
        staleManifests.push_back(de.path());
        Result<ShardManifest> prior =
            readManifestFile(de.path().string(), /*reclaimLeases=*/true);
        if (!prior.isOk()) {
            warn("ignoring unreadable prior manifest '%s': %s",
                 de.path().string().c_str(),
                 prior.status().toString().c_str());
            continue;
        }
        if (prior->netlistFingerprint != netFp ||
            prior->configFingerprint != cfgFp ||
            prior->powerModelVersion != power::kPowerModelVersion)
            continue; // design/config drift: replan from scratch
        for (const ManifestEntry &e : prior->entries) {
            if (e.state == EntryState::Done)
                priorDone.insert(e.key.hex());
        }
    }

    std::vector<ShardManifest> shards(cfg.shards);
    for (uint32_t k = 0; k < cfg.shards; ++k) {
        ShardManifest &m = shards[k];
        m.shard = k;
        m.shards = cfg.shards;
        m.population = population;
        m.sampleCount = snapshots.size();
        m.netlistFingerprint = netFp;
        m.configFingerprint = cfgFp;
        m.powerModelVersion = power::kPowerModelVersion;
        m.coreName = cfg.coreName;
        m.workloadName = cfg.workloadName;
        m.mirrorFrom(cfg.sim);
    }

    for (size_t i = 0; i < snapshots.size(); ++i) {
        ManifestEntry e;
        e.index = i;
        e.cycle = snapshots[i]->cycle();
        e.snapshotFile = strfmt("snap_%05zu.strb", i);
        // Always rewrite the snapshot file: heals any on-disk
        // corruption and keeps plan() idempotent.
        Status ws = fame::writeSnapshotFile(
            (fs::path(cfg.dir) / e.snapshotFile).string(), chainMeta,
            *snapshots[i]);
        if (!ws.isOk())
            return ws;
        Result<fame::SnapshotDigest> digest =
            fame::snapshotDigest(chainMeta, *snapshots[i]);
        if (!digest.isOk())
            return digest.status();
        e.injectedStallCycles =
            cfg.sim.stallPlan ? cfg.sim.stallPlan->stallFor(i) : 0;
        e.key = makeCacheKey(*digest, netFp, cfgFp,
                             power::kPowerModelVersion,
                             e.injectedStallCycles);
        if (priorDone.count(e.key.hex()))
            e.state = EntryState::Done;
        shards[i % cfg.shards].entries.push_back(std::move(e));
    }

    // Replace the queue atomically enough: stale manifests (e.g. from a
    // run with a different shard count) go first, then the new set is
    // written. A kill in between just means the next plan() starts from
    // an empty queue — completed results still live in the cache.
    for (const fs::path &p : staleManifests)
        fs::remove(p, ec);
    for (uint32_t k = 0; k < cfg.shards; ++k) {
        Status st = writeManifestFile(manifestPath(k), shards[k]);
        if (!st.isOk())
            return st;
    }
    return Status::ok();
}

ReplayRecord
FarmOrchestrator::replayEntry(gate::GateSimulator &gsim,
                              const ShardManifest &m,
                              const ManifestEntry &entry,
                              const core::EnergySimulator::Config &baseCfg,
                              uint64_t budget)
{
    (void)m;
    Result<fame::ReplayableSnapshot> snap = fame::readSnapshotFile(
        (fs::path(cfg.dir) / entry.snapshotFile).string(), chainMeta);
    if (!snap.isOk()) {
        // A bad snapshot *file* is a capture/storage fault of this
        // sample: quarantine it (exactly what estimate() does for a
        // corrupt in-memory snapshot), never abort the run.
        ReplayRecord rec;
        rec.outcome.index = entry.index;
        rec.outcome.cycle = entry.cycle;
        rec.outcome.status = classifySnapshotFileError(snap.status().code());
        rec.outcome.attempts = 1;
        rec.outcome.detail = snap.status().toString();
        return rec;
    }
    core::EnergySimulator::Config local = baseCfg;
    inject::StallPlan stalls;
    if (entry.injectedStallCycles) {
        stalls.stallSnapshot(entry.index, entry.injectedStallCycles);
        local.stallPlan = &stalls;
    } else {
        local.stallPlan = nullptr;
    }
    const core::AsicProducts &p = asic.products();
    core::ReplayContext ctx{target,    p.synth, p.placement, p.match,
                            chainMeta, local,   budget};
    ReplayUnit unit{static_cast<size_t>(entry.index), &*snap};
    ++executed;
    return core::replaySnapshot(gsim, ctx, unit);
}

Status
FarmOrchestrator::workShard(unsigned shard)
{
    const gate::SynthesisResult &synth = asic.products().synth;
    Result<ShardManifest> mr =
        readManifestFile(manifestPath(shard), /*reclaimLeases=*/true);
    if (!mr.isOk())
        return mr.status();
    ShardManifest m = std::move(*mr);
    if (m.shard != shard) {
        return errorf(ErrorCode::Corrupt,
                      "'%s' claims to be shard %u, expected %u",
                      manifestPath(shard).c_str(), m.shard, shard);
    }
    Status compat = checkCompatible(m);
    if (!compat.isOk())
        return compat;

    core::EnergySimulator::Config applied = cfg.sim;
    m.applyTo(applied);
    uint64_t budget = core::resolveReplayBudget(applied, synth);
    gate::GateSimulator gsim(synth.netlist);

    core::JobControl *job = cfg.sim.job;

    // Drain our own shard: lease → cache-or-replay → publish → done.
    // One atomic manifest write per state change; a SIGKILL leaves at
    // most one entry Leased, which the next reader reclaims (on resume,
    // or by lease expiry while the run is still live).
    for (ManifestEntry &e : m.entries) {
        if (e.state == EntryState::Done ||
            e.state == EntryState::Quarantined)
            continue;
        // Graceful drain: stop before taking new work. Everything not
        // yet leased stays Pending; the queue on disk already says so.
        if (job != nullptr && job->canceled())
            return Status::ok();
        e.state = EntryState::Leased;
        e.leaseDeadlineUnixMs = util::nowUnixMs() + cfg.leaseDurationMs;
        Status st = writeManifestFile(manifestPath(shard), m);
        if (!st.isOk())
            return st;

        if (cfg.entryHook)
            cfg.entryHook(shard, e);
        if (job != nullptr && job->canceled()) {
            // Drain arrived after the lease was persisted: checkpoint
            // by reverting it to Pending — never a quarantine, so the
            // resumed run replays it and reports bit-identically.
            e.state = EntryState::Pending;
            e.leaseDeadlineUnixMs = 0;
            return writeManifestFile(manifestPath(shard), m);
        }

        if (store.lookup(e.key)) {
            e.state = EntryState::Done; // stolen or previous-run result
        } else {
            ReplayRecord rec = replayEntry(gsim, m, e, applied, budget);
            if (rec.outcome.replayed()) {
                Status ss = store.store(e.key, rec);
                if (ss.isOk()) {
                    e.state = EntryState::Done;
                } else {
                    // Unpublishable result: leave the entry pending so
                    // the collector replays it inline rather than
                    // trusting a result nobody can read back.
                    warn("shard %u: cannot publish result for snapshot "
                         "%llu: %s",
                         shard, (unsigned long long)e.index,
                         ss.toString().c_str());
                    e.state = EntryState::Pending;
                }
            } else {
                e.state = EntryState::Quarantined;
                recordFailure(e, rec);
            }
        }
        st = writeManifestFile(manifestPath(shard), m);
        if (!st.isOk())
            return st;
    }

    // Work stealing: replay other shards' pending entries — plus
    // entries whose lease has expired on the wall clock (their worker
    // is dead or wedged; waiting for it would serialize the farm on
    // its corpse) — publishing to the content-addressed cache ONLY.
    // The owner (or the collector) observes the hit and marks the
    // entry done — no manifest is ever written by a non-owner, so
    // there is nothing to race on. Note the expiry demotion here is
    // in-memory only: if the leaseholder is merely slow and finishes
    // anyway, both workers store the same content-addressed bytes.
    for (uint32_t other = 0; other < m.shards; ++other) {
        if (other == shard)
            continue;
        if (job != nullptr && job->canceled())
            return Status::ok();
        Result<ShardManifest> omr =
            readManifestFile(manifestPath(other), /*reclaimLeases=*/false);
        if (!omr.isOk())
            continue; // mid-rewrite or missing; its owner handles it
        if (!checkCompatible(*omr).isOk())
            continue;
        reclaimLeases(*omr, util::nowUnixMs());
        for (const ManifestEntry &e : omr->entries) {
            if (e.state != EntryState::Pending)
                continue;
            if (job != nullptr && job->canceled())
                return Status::ok();
            if (store.lookup(e.key))
                continue;
            ReplayRecord rec = replayEntry(gsim, *omr, e, applied, budget);
            if (rec.outcome.replayed()) {
                Status ss = store.store(e.key, rec);
                if (!ss.isOk()) {
                    warn("work steal: cannot publish result for snapshot "
                         "%llu: %s",
                         (unsigned long long)e.index,
                         ss.toString().c_str());
                }
            }
            // Failures are not recorded anywhere: the owner will replay
            // the entry itself and reach the same (deterministic)
            // quarantine verdict with the authority to record it.
        }
    }
    return Status::ok();
}

Result<std::vector<ShardManifest>>
FarmOrchestrator::loadAllManifests(bool reclaimLeases) const
{
    Result<ShardManifest> head =
        readManifestFile(manifestPath(0), reclaimLeases);
    if (!head.isOk())
        return head.status();
    uint32_t shardCount = head->shards;
    std::vector<ShardManifest> all;
    all.push_back(std::move(*head));
    for (uint32_t k = 1; k < shardCount; ++k) {
        Result<ShardManifest> mr =
            readManifestFile(manifestPath(k), reclaimLeases);
        if (!mr.isOk())
            return mr.status();
        if (mr->shard != k || mr->shards != shardCount ||
            mr->sampleCount != all[0].sampleCount ||
            mr->netlistFingerprint != all[0].netlistFingerprint ||
            mr->configFingerprint != all[0].configFingerprint) {
            return errorf(ErrorCode::Corrupt,
                          "shard manifests disagree ('%s' is not from "
                          "the same run as shard 0)",
                          manifestPath(k).c_str());
        }
        all.push_back(std::move(*mr));
    }
    return all;
}

Result<EnergyReport>
FarmOrchestrator::collect()
{
    const gate::SynthesisResult &synth = asic.products().synth;
    Result<std::vector<ShardManifest>> all =
        loadAllManifests(/*reclaimLeases=*/true);
    if (!all.isOk())
        return all.status();
    for (const ShardManifest &m : *all) {
        Status compat = checkCompatible(m);
        if (!compat.isOk())
            return compat;
    }

    const ShardManifest &head = (*all)[0];
    core::EnergySimulator::Config applied = cfg.sim;
    head.applyTo(applied);
    uint64_t budget = core::resolveReplayBudget(applied, synth);

    size_t total = head.sampleCount;
    std::vector<ReplayRecord> records(total);
    std::vector<bool> filled(total, false);
    std::unique_ptr<gate::GateSimulator> gsim; // only if something is left

    for (ShardManifest &m : *all) {
        bool dirty = false;
        for (ManifestEntry &e : m.entries) {
            if (e.index >= total || filled[e.index]) {
                return errorf(ErrorCode::Corrupt,
                              "manifest entry index %llu is out of range "
                              "or duplicated",
                              (unsigned long long)e.index);
            }
            ReplayRecord rec;
            if (e.state == EntryState::Quarantined) {
                rec = failureRecord(e);
            } else {
                std::optional<ReplayRecord> hit = store.lookup(e.key);
                if (hit) {
                    rec = std::move(*hit);
                    rec.outcome.index = e.index;
                } else {
                    // Unfinished entry, or a Done entry whose cache file
                    // was lost/corrupted: replay inline. One recompute,
                    // never a wrong number.
                    if (cfg.sim.job != nullptr && cfg.sim.job->canceled()) {
                        // Drain mid-collect: persist the Done markings
                        // observed so far, then checkpoint. The next
                        // collect() resumes from the cache and produces
                        // the bit-identical report.
                        if (dirty)
                            writeManifestFile(manifestPath(m.shard), m);
                        return errorf(ErrorCode::Canceled,
                                      "collect drained before snapshot "
                                      "%llu; run is checkpointed",
                                      (unsigned long long)e.index);
                    }
                    if (!gsim) {
                        gsim = std::make_unique<gate::GateSimulator>(
                            synth.netlist);
                    }
                    rec = replayEntry(*gsim, m, e, applied, budget);
                    if (rec.outcome.replayed()) {
                        Status ss = store.store(e.key, rec);
                        if (!ss.isOk()) {
                            warn("collect: cannot publish result for "
                                 "snapshot %llu: %s",
                                 (unsigned long long)e.index,
                                 ss.toString().c_str());
                        }
                    } else {
                        e.state = EntryState::Quarantined;
                        recordFailure(e, rec);
                        dirty = true;
                    }
                }
                if (rec.outcome.replayed() &&
                    e.state != EntryState::Done) {
                    e.state = EntryState::Done;
                    dirty = true;
                }
            }
            records[e.index] = std::move(rec);
            filled[e.index] = true;
        }
        if (dirty) {
            Status st = writeManifestFile(manifestPath(m.shard), m);
            if (!st.isOk()) {
                warn("collect: cannot update manifest '%s': %s",
                     manifestPath(m.shard).c_str(),
                     st.toString().c_str());
            }
        }
    }
    for (size_t i = 0; i < total; ++i) {
        if (!filled[i]) {
            return errorf(ErrorCode::Corrupt,
                          "work queue lost snapshot %zu (no manifest "
                          "entry); re-plan the run",
                          i);
        }
    }

    EnergyReport report = core::aggregateReplayRecords(
        std::move(records), head.population, applied);
    return report;
}

Result<FarmOrchestrator::Progress>
FarmOrchestrator::progress() const
{
    Result<std::vector<ShardManifest>> all =
        loadAllManifests(/*reclaimLeases=*/false);
    if (!all.isOk())
        return all.status();
    Progress p;
    p.shards = static_cast<uint32_t>(all->size());
    for (const ShardManifest &m : *all) {
        p.pending += m.count(EntryState::Pending);
        p.leased += m.count(EntryState::Leased);
        p.done += m.count(EntryState::Done);
        p.quarantined += m.count(EntryState::Quarantined);
        p.total += m.entries.size();
    }
    return p;
}

} // namespace farm
} // namespace strober
