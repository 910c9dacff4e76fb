#include "farm/stream.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>

#include "core/job_control.h"
#include "farm/farm.h"
#include "farm/manifest.h"
#include "farm/wire.h"
#include "gate/netlist.h"
#include "gate/replay.h"
#include "inject/fault_injector.h"
#include "power/power_analysis.h"
#include "stats/sampling.h"
#include "util/env.h"
#include "util/file_io.h"
#include "util/logging.h"

namespace strober {
namespace farm {

namespace fs = std::filesystem;
using core::ReplayRecord;
using util::ErrorCode;
using util::errorf;
using util::Result;
using util::Status;

namespace {

constexpr const char *kEntrySuffix = ".strbent";
constexpr const char *kMetaName = "meta.strbfarm";
constexpr const char *kDoneName = "done.strbdone";
constexpr const char *kPlanName = "plan.strbdone";
constexpr uint64_t kEntryVersion = 1;

std::string
tombName(uint64_t slot, uint64_t generation)
{
    return strfmt("tomb_%05llu_%06llu", (unsigned long long)slot,
                  (unsigned long long)generation);
}

Result<StreamFeed::LiveEntry>
parseEntryFile(const std::string &path)
{
    Result<std::string> bytes = util::readFile(path);
    if (!bytes.isOk())
        return bytes.status();
    wire::Reader r(std::move(*bytes));
    StreamFeed::LiveEntry e;
    uint64_t version = r.u64();
    e.seq = r.u64();
    e.slot = r.u64();
    e.generation = r.u64();
    e.cycle = r.u64();
    e.stallCycles = r.u64();
    e.snapshotFile = r.str();
    std::string keyHex = r.str();
    if (r.failed() || !r.atEnd() || version != kEntryVersion) {
        return errorf(ErrorCode::Corrupt, "stream entry '%s' is corrupt",
                      path.c_str());
    }
    std::optional<CacheKey> key = CacheKey::fromHex(keyHex);
    if (!key) {
        return errorf(ErrorCode::Corrupt,
                      "stream entry '%s' has a malformed cache key",
                      path.c_str());
    }
    e.key = *key;
    return e;
}

} // namespace

std::string
streamDir(const std::string &runDir)
{
    return (fs::path(runDir) / "stream").string();
}

std::string
streamMetaPath(const std::string &runDir)
{
    return (fs::path(streamDir(runDir)) / kMetaName).string();
}

Status
writePlanMarker(const std::string &runDir)
{
    wire::Writer w;
    w.u64(kEntryVersion);
    return util::writeFileAtomic(
        (fs::path(streamDir(runDir)) / kPlanName).string(), w.sealed());
}

bool
planMarkerExists(const std::string &runDir)
{
    std::error_code ec;
    return fs::exists(fs::path(streamDir(runDir)) / kPlanName, ec);
}

// ---------------------------------------------------------------------------
// StreamFeed (producer)

StreamFeed::StreamFeed(std::string streamDirPath,
                       const fame::ScanChains &chains,
                       const core::EnergySimulator::Config &simCfg,
                       uint64_t netFp, uint64_t cfgFp)
    : dir(std::move(streamDirPath)), chainMeta(chains), sim(simCfg),
      netlistFp(netFp), configFp(cfgFp)
{
}

void
StreamFeed::gauge(int64_t delta)
{
    if (inFlightHook)
        inFlightHook(delta);
}

void
StreamFeed::onSnapshotReady(size_t slot, uint64_t generation,
                            std::shared_ptr<const fame::ReplayableSnapshot>
                                snap)
{
    LiveEntry e;
    e.seq = nextSeq++;
    e.slot = slot;
    e.generation = generation;
    e.cycle = snap->cycle();
    // Provisional stall keying by slot: the plan() phase keys by final
    // sample index, so under a fault-injection stall plan a shifted
    // entry simply misses and replays there — never a wrong record.
    e.stallCycles = sim.stallPlan ? sim.stallPlan->stallFor(slot) : 0;
    e.snapshotFile = strfmt("ssnap_%05llu_%06llu.strb",
                            (unsigned long long)slot,
                            (unsigned long long)generation);

    Result<fame::SnapshotDigest> digest =
        fame::snapshotDigest(chainMeta, *snap);
    Status ws = digest.isOk()
                    ? fame::writeSnapshotFile(
                          (fs::path(dir) / e.snapshotFile).string(),
                          chainMeta, *snap)
                    : digest.status();
    if (ws.isOk()) {
        e.key = makeCacheKey(*digest, netlistFp, configFp,
                             power::kPowerModelVersion, e.stallCycles);
        wire::Writer w;
        w.u64(kEntryVersion);
        w.u64(e.seq);
        w.u64(e.slot);
        w.u64(e.generation);
        w.u64(e.cycle);
        w.u64(e.stallCycles);
        w.str(e.snapshotFile);
        w.str(e.key.hex());
        ws = util::writeFileAtomic(
            (fs::path(dir) / strfmt("entry_%06llu%s",
                                    (unsigned long long)e.seq,
                                    kEntrySuffix))
                .string(),
            w.sealed());
    }
    if (!ws.isOk()) {
        if (firstError.isOk()) {
            warn("stream feed: publish failed, entry skipped (plan phase "
                 "will replay it): %s",
                 ws.toString().c_str());
            firstError = ws;
        }
        return;
    }
    ++publishedCount;
    live[slot] = std::move(e);
    gauge(+1);
}

void
StreamFeed::onSlotEvicted(size_t slot, uint64_t generation)
{
    auto it = live.find(slot);
    if (it == live.end() || it->second.generation != generation)
        return; // the evicted capture never made it into the feed
    Status ts = util::writeFileAtomic(
        (fs::path(dir) / tombName(slot, generation)).string(),
        std::string());
    if (!ts.isOk())
        warn("stream feed: cannot tombstone superseded entry: %s",
             ts.toString().c_str());
    bool hadResult = completed.erase(slot) != 0;
    live.erase(it);
    ++supersededCount;
    if (!hadResult)
        gauge(-1);
}

Status
StreamFeed::finish(bool earlyStop)
{
    wire::Writer w;
    w.u64(kEntryVersion);
    w.u64(earlyStop ? 1 : 0);
    return util::writeFileAtomic((fs::path(dir) / kDoneName).string(),
                                 w.sealed());
}

size_t
StreamFeed::pollCompleted(ResultCache &store)
{
    for (const auto &kv : live) {
        if (completed.count(kv.first))
            continue;
        std::optional<ReplayRecord> hit = store.lookup(kv.second.key);
        if (hit) {
            hit->outcome.index = kv.first; // provisional; rewritten later
            hit->outcome.cycle = kv.second.cycle;
            completed[kv.first] = std::move(*hit);
            gauge(-1);
        }
    }
    return completed.size();
}

std::vector<ReplayRecord>
StreamFeed::completedRecords() const
{
    std::vector<ReplayRecord> out;
    out.reserve(completed.size());
    for (const auto &kv : completed)
        out.push_back(kv.second);
    for (size_t i = 0; i < out.size(); ++i)
        out[i].outcome.index = i;
    return out;
}

uint64_t
StreamFeed::outstanding() const
{
    return live.size() - completed.size();
}

bool
StreamFeed::ciBoundMet(ResultCache &store, double bound, double confidence,
                       uint64_t populationSize, size_t reservoirSize)
{
    pollCompleted(store);
    stats::SampleStats power;
    for (const auto &kv : completed)
        power.add(kv.second.totalWatts);
    return stats::ciBoundMet(power, bound, confidence, populationSize,
                             reservoirSize);
}

// ---------------------------------------------------------------------------
// FarmOrchestrator streaming methods

Result<std::unique_ptr<StreamFeed>>
FarmOrchestrator::openStreamFeed()
{
    std::string sdir = streamDir(cfg.dir);
    std::error_code ec;
    // A stale feed (a prior killed run's entries, done or plan marker)
    // would make fresh workers exit their drain instantly or race the
    // planner against old manifests — start from an empty directory.
    // The real results live in the content-addressed cache and survive.
    fs::remove_all(sdir, ec);
    ec.clear();
    fs::create_directories(sdir, ec);
    if (ec) {
        return errorf(ErrorCode::IoError,
                      "cannot create stream directory '%s': %s",
                      sdir.c_str(), ec.message().c_str());
    }
    uint64_t netFp = gate::netlistFingerprint(asic.products().synth.netlist);
    uint64_t cfgFp = replayConfigFingerprint(cfg.sim);

    // Compatibility meta: a header-only shard manifest, so stream
    // workers verify design/config/power-model identity with the exact
    // machinery the manifest flow uses.
    ShardManifest meta;
    meta.shard = 0;
    meta.shards = cfg.shards;
    meta.population = 0;
    meta.sampleCount = 0;
    meta.netlistFingerprint = netFp;
    meta.configFingerprint = cfgFp;
    meta.powerModelVersion = power::kPowerModelVersion;
    meta.coreName = cfg.coreName;
    meta.workloadName = cfg.workloadName;
    meta.mirrorFrom(cfg.sim);
    Status st =
        writeManifestFile((fs::path(sdir) / kMetaName).string(), meta);
    if (!st.isOk())
        return st;

    return std::unique_ptr<StreamFeed>(
        new StreamFeed(sdir, chainMeta, cfg.sim, netFp, cfgFp));
}

Result<StreamDrainOutcome>
FarmOrchestrator::drainStream(unsigned slot, unsigned slots,
                              uint64_t pollMs, uint64_t metaWaitMs)
{
    if (slots == 0)
        slots = 1;
    std::string sdir = streamDir(cfg.dir);
    std::string metaPath = (fs::path(sdir) / kMetaName).string();
    core::JobControl *job = cfg.sim.job;
    auto canceled = [job] { return job != nullptr && job->canceled(); };
    StreamDrainOutcome out;

    uint64_t metaDeadline = util::nowUnixMs() + metaWaitMs;
    while (!fs::exists(metaPath)) {
        if (canceled()) {
            out.canceled = true;
            return out;
        }
        if (util::nowUnixMs() >= metaDeadline) {
            return errorf(ErrorCode::Timeout,
                          "stream meta '%s' did not appear within %llu ms",
                          metaPath.c_str(),
                          (unsigned long long)metaWaitMs);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(pollMs));
    }
    Result<ShardManifest> meta =
        readManifestFile(metaPath, /*reclaimLeases=*/false);
    if (!meta.isOk())
        return meta.status();
    Status compat = checkCompatible(*meta);
    if (!compat.isOk())
        return compat;

    core::EnergySimulator::Config applied = cfg.sim;
    meta->applyTo(applied);

    std::set<std::string> seen;
    std::vector<StreamFeed::LiveEntry> pending;
    std::string donePath = (fs::path(sdir) / kDoneName).string();

    auto tombstoned = [&](const StreamFeed::LiveEntry &e) {
        return fs::exists(fs::path(sdir) /
                          tombName(e.slot, e.generation));
    };
    // Live entries that missed the cache, replayed one pass at a time.
    // Failures are not recorded: the plan phase replays the entry with
    // full authority and reaches the same deterministic verdict.
    std::vector<const StreamFeed::LiveEntry *> batch;
    auto replayBatch = [&] {
        std::vector<FileUnit> units;
        for (const StreamFeed::LiveEntry *e : batch) {
            units.push_back(FileUnit{
                static_cast<size_t>(e->slot), e->cycle,
                (fs::path(sdir) / e->snapshotFile).string(),
                e->stallCycles, e->key});
        }
        // Last-instant supersede check: a tombstone written while the
        // batch loaded saves its replay entirely.
        uint64_t before = executed;
        replayAndPublish(units, applied, [&](size_t k) {
            return !tombstoned(*batch[k]);
        });
        // An unreadable snapshot file counts as neither: it is left to
        // the plan phase, which owns quarantines.
        out.replayed += executed - before;
        out.tombstoned += batch.size() - units.size();
        batch.clear();
    };

    for (;;) {
        if (canceled()) {
            out.canceled = true;
            return out;
        }
        // Pick up the done marker first: entries observed after it was
        // written are still processed below (the producer wrote them
        // before the marker; directory iteration just found them late).
        if (!out.sawDoneMarker && fs::exists(donePath)) {
            Result<std::string> bytes = util::readFile(donePath);
            if (bytes.isOk()) {
                wire::Reader r(std::move(*bytes));
                uint64_t version = r.u64();
                uint64_t early = r.u64();
                if (!r.failed() && r.atEnd() &&
                    version == kEntryVersion) {
                    out.sawDoneMarker = true;
                    out.earlyStop = early != 0;
                }
            }
        }

        size_t newEntries = 0;
        std::error_code ec;
        for (const auto &de : fs::directory_iterator(sdir, ec)) {
            if (de.path().extension() != kEntrySuffix)
                continue;
            std::string name = de.path().filename().string();
            if (seen.count(name))
                continue;
            seen.insert(name);
            ++newEntries;
            Result<StreamFeed::LiveEntry> e =
                parseEntryFile(de.path().string());
            if (!e.isOk()) {
                warn("stream drain: skipping bad entry '%s': %s",
                     name.c_str(), e.status().toString().c_str());
                continue;
            }
            pending.push_back(std::move(*e));
        }

        if (out.earlyStop) {
            // Adaptive termination: the producer has its estimate;
            // everything still pending is abandoned, not replayed.
            return out;
        }

        // Own partition first (seq % slots), then steal the rest —
        // workers sweep everything, so a dead peer only costs latency.
        std::stable_sort(pending.begin(), pending.end(),
                         [&](const StreamFeed::LiveEntry &a,
                             const StreamFeed::LiveEntry &b) {
                             bool aOwn = a.seq % slots == slot;
                             bool bOwn = b.seq % slots == slot;
                             if (aOwn != bOwn)
                                 return aOwn;
                             return a.seq < b.seq;
                         });
        for (const StreamFeed::LiveEntry &e : pending) {
            if (canceled()) {
                out.canceled = true;
                return out;
            }
            if (tombstoned(e)) {
                ++out.tombstoned;
                continue;
            }
            if (store.lookup(e.key)) {
                ++out.cacheHits;
                continue;
            }
            batch.push_back(&e);
            if (batch.size() == gate::kReplayLanes)
                replayBatch();
        }
        if (!batch.empty())
            replayBatch();
        pending.clear();

        if (out.sawDoneMarker && newEntries == 0)
            return out;
        std::this_thread::sleep_for(std::chrono::milliseconds(pollMs));
    }
}

Result<core::EnergyReport>
FarmOrchestrator::collectStreamEarly(StreamFeed &feed, uint64_t population)
{
    feed.pollCompleted(store);
    std::vector<ReplayRecord> records = feed.completedRecords();
    core::EnergyReport report = core::aggregateReplayRecords(
        std::move(records), std::max<uint64_t>(population, 1), cfg.sim);
    report.earlyStopped = true;
    report.supersededReplays =
        static_cast<size_t>(feed.superseded());
    return report;
}

} // namespace farm
} // namespace strober
