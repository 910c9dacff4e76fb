#include "farm/farm.h"

#include <algorithm>
#include <filesystem>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/job_control.h"
#include "gate/netlist.h"
#include "gate/replay.h"
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
using core::SnapshotOutcome;
using core::SnapshotStatus;
using util::ErrorCode;
using util::errorf;
using util::Result;
using util::Status;

namespace {

constexpr const char *kManifestSuffix = ".strbfarm";

/** Mark @p entry Done for a verified @p rec, else Quarantined with its
 *  failure recorded. */
void
settle(ManifestEntry &entry, const ReplayRecord &rec)
{
    if (rec.outcome.replayed()) {
        entry.state = EntryState::Done;
    } else {
        entry.state = EntryState::Quarantined;
        recordFailure(entry, rec);
    }
}

} // namespace

// ---------------------------------------------------------------------------
// StoreFailures

StoreFailures::~StoreFailures()
{
    if (failures != 0) {
        warn("%s failed for %llu result(s); the run went on uncached "
             "(first failure: %s)",
             what, (unsigned long long)failures, first.c_str());
    }
}

void
StoreFailures::note(const std::string &detail)
{
    std::lock_guard<std::mutex> lock(mu);
    if (failures++ == 0)
        first = detail;
}

uint64_t
StoreFailures::count() const
{
    std::lock_guard<std::mutex> lock(mu);
    return failures;
}

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
            if (!st.isOk())
                failedStores.note(st.toString());
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
    if (cfg.shards == 0)
        return errorf(ErrorCode::InvalidArgument,
                      "FarmConfig.shards must be at least 1");
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

FarmOrchestrator::FileUnit
FarmOrchestrator::unitOf(const ManifestEntry &entry) const
{
    return FileUnit{static_cast<size_t>(entry.index), entry.cycle,
                    (fs::path(cfg.dir) / entry.snapshotFile).string(),
                    entry.injectedStallCycles, entry.key};
}

std::vector<ReplayRecord>
FarmOrchestrator::replayAndPublish(std::vector<FileUnit> &units,
                                   const core::EnergySimulator::Config &applied,
                                   const std::function<bool(size_t)> &keep)
{
    std::vector<FileUnit> kept;
    std::vector<Result<fame::ReplayableSnapshot>> snaps;
    for (size_t k = 0; k < units.size(); ++k) {
        Result<fame::ReplayableSnapshot> snap =
            fame::readSnapshotFile(units[k].path, chainMeta);
        if (keep && !keep(k))
            continue;
        kept.push_back(std::move(units[k]));
        snaps.push_back(std::move(snap));
    }
    units = std::move(kept);

    std::vector<ReplayRecord> out(units.size());
    std::vector<ReplayUnit> batch;
    std::vector<size_t> batchAt;
    inject::StallPlan stalls;
    for (size_t k = 0; k < units.size(); ++k) {
        if (!snaps[k].isOk()) {
            // A bad snapshot *file* is a capture/storage fault of this
            // sample: quarantine it (exactly what estimate() does for a
            // corrupt in-memory snapshot), never abort the run.
            SnapshotOutcome &oc = out[k].outcome;
            oc.index = units[k].index;
            oc.cycle = units[k].cycle;
            oc.status = core::classifyReplayError(snaps[k].status().code());
            oc.attempts = 1;
            oc.detail = snaps[k].status().toString();
            continue;
        }
        if (units[k].stallCycles)
            stalls.stallSnapshot(units[k].index, units[k].stallCycles);
        batch.push_back(ReplayUnit{units[k].index, &*snaps[k]});
        batchAt.push_back(k);
    }
    if (batch.empty())
        return out;

    core::EnergySimulator::Config local = applied;
    local.stallPlan = stalls.empty() ? nullptr : &stalls;
    const core::AsicProducts &p = asic.products();
    core::ReplayContext ctx{target,    p.synth, p.placement,
                            p.match,   chainMeta, local,
                            core::resolveReplayBudget(local, p.synth)};
    if (!tables)
        tables = std::make_unique<core::ReplayTables>(ctx);
    executed += batch.size();
    std::vector<ReplayRecord> recs =
        core::replaySnapshots(ctx, *tables, gsim, batch);
    for (size_t m = 0; m < batch.size(); ++m) {
        size_t k = batchAt[m];
        out[k] = std::move(recs[m]);
        if (!out[k].outcome.replayed())
            continue;
        // An unpublished result costs the collector one inline replay,
        // never a wrong number.
        Status ss = store.store(units[k].key, out[k]);
        if (!ss.isOk()) {
            // Bound first: GCC 12 at -O3 raises a false -Wrestrict on
            // "literal" + std::string&&.
            const std::string index = std::to_string(units[k].index);
            failedPublishes.note("snapshot " + index + ": " +
                                 ss.toString());
        }
    }
    return out;
}

Status
FarmOrchestrator::workShard(unsigned shard)
{
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
    core::JobControl *job = cfg.sim.job;
    auto canceled = [job] { return job != nullptr && job->canceled(); };

    // Drain our own shard: lease entries one manifest write each,
    // gather up to a pass of cache misses, replay them as one batch and
    // record their outcomes in one more manifest write. A SIGKILL
    // leaves at most one batch Leased, which the next reader reclaims
    // (on resume, or by lease expiry while the run is still live).
    std::vector<ManifestEntry *> held; // leased cache misses
    auto finishHeld = [&] {
        std::vector<FileUnit> units;
        for (const ManifestEntry *e : held)
            units.push_back(unitOf(*e));
        std::vector<ReplayRecord> recs = replayAndPublish(units, applied);
        for (size_t k = 0; k < held.size(); ++k)
            settle(*held[k], recs[k]);
        held.clear();
        return writeManifestFile(manifestPath(shard), m);
    };
    bool drained = false;
    for (ManifestEntry &e : m.entries) {
        if (e.state == EntryState::Done ||
            e.state == EntryState::Quarantined)
            continue;
        // Graceful drain: stop before taking new work. Everything not
        // yet leased stays Pending; the queue on disk already says so.
        if (canceled()) {
            drained = true;
            break;
        }
        e.state = EntryState::Leased;
        e.leaseDeadlineUnixMs = util::nowUnixMs() + cfg.leaseDurationMs;
        Status st = writeManifestFile(manifestPath(shard), m);
        if (!st.isOk())
            return st;

        if (cfg.entryHook)
            cfg.entryHook(shard, e);
        if (canceled()) {
            // Drain arrived after the lease was persisted: checkpoint
            // by reverting it to Pending — never a quarantine, so the
            // resumed run replays it and reports bit-identically. The
            // leases already held finish their batch below.
            e.state = EntryState::Pending;
            e.leaseDeadlineUnixMs = 0;
            drained = true;
            break;
        }
        if (store.lookup(e.key)) {
            e.state = EntryState::Done; // stolen or previous-run result
            continue;
        }
        held.push_back(&e);
        if (held.size() == gate::kReplayLanes) {
            st = finishHeld();
            if (!st.isOk())
                return st;
        }
    }
    // Also persists the Done marks of cache hits and a reverted lease.
    Status st = finishHeld();
    if (!st.isOk() || drained)
        return st;

    // Work stealing: replay other shards' pending entries — plus
    // entries whose lease has expired on the wall clock (their worker
    // is dead or wedged; waiting for it would serialize the farm on
    // its corpse) — publishing to the content-addressed cache ONLY.
    // The owner (or the collector) observes the hit and marks the
    // entry done — no manifest is ever written by a non-owner, so
    // there is nothing to race on. Note the expiry demotion here is
    // in-memory only: if the leaseholder is merely slow and finishes
    // anyway, both workers store the same content-addressed bytes.
    // Thieves take from the back of the list and owners lease from the
    // front, so a stolen batch rarely duplicates the owner's. A stolen
    // failure is not recorded: the owner replays the entry itself and
    // records the same deterministic quarantine.
    for (uint32_t other = 0; other < m.shards; ++other) {
        if (other == shard)
            continue;
        if (canceled())
            return Status::ok();
        Result<ShardManifest> omr =
            readManifestFile(manifestPath(other), /*reclaimLeases=*/false);
        if (!omr.isOk())
            continue; // mid-rewrite or missing; its owner handles it
        if (!checkCompatible(*omr).isOk())
            continue;
        reclaimLeases(*omr, util::nowUnixMs());
        std::vector<FileUnit> batch;
        for (auto e = omr->entries.rbegin(); e != omr->entries.rend(); ++e) {
            if (e->state != EntryState::Pending || store.lookup(e->key))
                continue;
            batch.push_back(unitOf(*e));
            if (batch.size() == gate::kReplayLanes) {
                if (canceled())
                    return Status::ok();
                replayAndPublish(batch, applied);
                batch.clear();
            }
        }
        if (!batch.empty()) {
            if (canceled())
                return Status::ok();
            replayAndPublish(batch, applied);
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

    size_t total = head.sampleCount;
    std::vector<ReplayRecord> records(total);
    std::vector<bool> filled(total, false);
    bool changed = false; // an entry state the manifests do not have yet
    // Unfinished entries, and Done entries whose cache file was lost or
    // corrupted: replayed inline below. One recompute, never a wrong
    // number.
    std::vector<ManifestEntry *> misses;
    for (ShardManifest &m : *all) {
        for (ManifestEntry &e : m.entries) {
            if (e.index >= total || filled[e.index]) {
                return errorf(ErrorCode::Corrupt,
                              "manifest entry index %llu is out of range "
                              "or duplicated",
                              (unsigned long long)e.index);
            }
            filled[e.index] = true;
            if (e.state == EntryState::Quarantined) {
                records[e.index] = failureRecord(e);
                continue;
            }
            std::optional<ReplayRecord> hit = store.lookup(e.key);
            if (!hit) {
                misses.push_back(&e);
                continue;
            }
            hit->outcome.index = e.index;
            records[e.index] = std::move(*hit);
            changed = changed || e.state != EntryState::Done;
            e.state = EntryState::Done;
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

    auto persist = [&] {
        for (size_t k = 0; changed && k < all->size(); ++k) {
            Status st = writeManifestFile(manifestPath(k), (*all)[k]);
            if (!st.isOk()) {
                warn("collect: cannot update manifest '%s': %s",
                     manifestPath(k).c_str(), st.toString().c_str());
            }
        }
    };
    for (size_t b = 0; b < misses.size(); b += gate::kReplayLanes) {
        if (cfg.sim.job != nullptr && cfg.sim.job->canceled()) {
            // Drain mid-collect: persist the Done markings observed so
            // far, then checkpoint. The next collect() resumes from the
            // cache and produces the bit-identical report.
            persist();
            return errorf(ErrorCode::Canceled,
                          "collect drained before snapshot %llu; run is "
                          "checkpointed",
                          (unsigned long long)misses[b]->index);
        }
        size_t end = std::min<size_t>(b + gate::kReplayLanes, misses.size());
        std::vector<FileUnit> units;
        for (size_t k = b; k < end; ++k)
            units.push_back(unitOf(*misses[k]));
        std::vector<ReplayRecord> recs = replayAndPublish(units, applied);
        for (size_t k = b; k < end; ++k) {
            settle(*misses[k], recs[k - b]);
            records[misses[k]->index] = std::move(recs[k - b]);
        }
        changed = true;
    }
    persist();

    return core::aggregateReplayRecords(std::move(records), head.population,
                                        applied);
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
