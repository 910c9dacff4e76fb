/**
 * @file
 * Replay-farm orchestration tests (src/farm): the content-addressed
 * result cache, the durable sharded work queue, the multi-process
 * worker pool, and incremental re-estimation.
 *
 * The contract under test is the determinism guarantee the whole
 * subsystem leans on: a replay record is a pure function of (snapshot,
 * design products, replay-relevant config), so the final report must be
 * bit-identical for any worker count, any shard assignment, any cache
 * hit pattern, and any kill/resume history — and a warm cache must
 * serve a re-estimate of an unchanged design with ZERO gate-level
 * replays.
 */

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/energy_sim.h"
#include "core/harness.h"
#include "core/job_control.h"
#include "farm/farm.h"
#include "farm/manifest.h"
#include "farm/report.h"
#include "farm/result_cache.h"
#include "farm/stream.h"
#include "inject/fault_injector.h"
#include "rtl/builder.h"
#include "stats/rng.h"
#include "util/env.h"
#include "util/status.h"

namespace strober {
namespace farm {
namespace {

namespace fs = std::filesystem;
using core::EnergyReport;
using core::EnergySimulator;
using core::ReplayRecord;
using core::SnapshotOutcome;
using core::SnapshotStatus;
using rtl::Builder;
using rtl::Design;
using rtl::MemHandle;
using rtl::Scope;
using rtl::Signal;

uint64_t
faultSeed()
{
    const char *env = std::getenv("STROBER_FAULT_SEED");
    return env ? std::strtoull(env, nullptr, 0) : 0xf001f001ull;
}

/** Same small DUT the fault matrix uses: regs + async/sync memories. */
Design
makeDut()
{
    Builder b("dut");
    Signal in = b.input("in", 8);
    Signal wen = b.input("wen", 1);
    Signal acc, back, tdata;
    {
        Scope core(b, "engine");
        acc = b.reg("acc", 16, 0);
        b.next(acc, acc + b.pad(in, 16));
        MemHandle scratch = b.mem("scratch", 8, 32, false);
        Signal ptr = b.reg("ptr", 5, 0);
        b.next(ptr, ptr + b.lit(1, 5), wen);
        b.memWrite(scratch, ptr, in, wen);
        back = b.memRead(scratch, ptr);
        MemHandle table = b.mem("table", 16, 16, true);
        tdata = b.memReadSync(table, acc.bits(3, 0));
        b.memWrite(table, acc.bits(3, 0), acc, wen);
    }
    b.output("acc", acc);
    b.output("back", back);
    b.output("tdata", tdata);
    return b.finish();
}

class NoiseDriver : public core::HostDriver
{
  public:
    NoiseDriver(uint64_t seed, uint64_t cycles) : rng(seed), budget(cycles)
    {
    }

    void
    drive(core::TargetHarness &h) override
    {
        h.setInput(0, rng.nextBounded(256));
        h.setInput(1, rng.nextBounded(2));
        --budget;
    }

    bool done() const override { return budget == 0; }

  private:
    stats::Rng rng;
    uint64_t budget;
};

EnergySimulator::Config
standardConfig()
{
    EnergySimulator::Config cfg;
    cfg.sampleSize = 10;
    cfg.replayLength = 64;
    return cfg;
}

struct Standard
{
    std::unique_ptr<EnergySimulator> es;
    uint64_t population = 0;
};

/** Run the deterministic standard workload; sampling is seed-fixed, so
 *  every call reproduces the identical snapshot reservoir. */
Standard
runStandard(const Design &d, EnergySimulator::Config cfg,
            uint64_t cycles = 10'000)
{
    Standard s;
    s.es = std::make_unique<EnergySimulator>(d, cfg);
    NoiseDriver driver(42, cycles);
    core::RunStats run = s.es->run(driver, UINT64_MAX);
    s.population = run.targetCycles / cfg.replayLength;
    return s;
}

/** Field-by-field bit-identity, minus wall clocks and cache counters
 *  (which legitimately differ between cold, warm and resumed runs). */
void
expectReportsBitIdentical(const EnergyReport &a, const EnergyReport &b)
{
    EXPECT_EQ(a.averagePower.mean, b.averagePower.mean);
    EXPECT_EQ(a.averagePower.halfWidth, b.averagePower.halfWidth);
    EXPECT_EQ(a.averagePower.confidence, b.averagePower.confidence);
    EXPECT_EQ(a.population, b.population);
    EXPECT_EQ(a.snapshots, b.snapshots);
    EXPECT_EQ(a.droppedSnapshots, b.droppedSnapshots);
    EXPECT_EQ(a.replayMismatches, b.replayMismatches);
    EXPECT_EQ(a.modeledLoadSeconds, b.modeledLoadSeconds);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.statusMessage, b.statusMessage);
    ASSERT_EQ(a.groups.size(), b.groups.size());
    for (size_t i = 0; i < a.groups.size(); ++i) {
        EXPECT_EQ(a.groups[i].group, b.groups[i].group);
        EXPECT_EQ(a.groups[i].power.mean, b.groups[i].power.mean);
        EXPECT_EQ(a.groups[i].power.halfWidth,
                  b.groups[i].power.halfWidth);
    }
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (size_t i = 0; i < a.outcomes.size(); ++i) {
        EXPECT_EQ(a.outcomes[i].index, b.outcomes[i].index);
        EXPECT_EQ(a.outcomes[i].cycle, b.outcomes[i].cycle);
        EXPECT_EQ(a.outcomes[i].status, b.outcomes[i].status);
        EXPECT_EQ(a.outcomes[i].attempts, b.outcomes[i].attempts);
        EXPECT_EQ(a.outcomes[i].mismatches, b.outcomes[i].mismatches);
        EXPECT_EQ(a.outcomes[i].detail, b.outcomes[i].detail);
    }
}

class FarmTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = fs::temp_directory_path() /
              ("strober_farm_" + std::to_string(::getpid()) + "_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name());
        fs::remove_all(dir);
        fs::create_directories(dir);
    }

    void
    TearDown() override
    {
        fs::remove_all(dir);
    }

    std::string
    sub(const char *name) const
    {
        return (dir / name).string();
    }

    fs::path dir;
};

// ---------------------------------------------------------------------------
// Content addressing
// ---------------------------------------------------------------------------

TEST(CacheKey, HexRoundTripAndRejection)
{
    CacheKey key{0x0123456789abcdefull, 0xfedcba9876543210ull};
    std::string hex = key.hex();
    EXPECT_EQ(hex.size(), 32u);
    auto back = CacheKey::fromHex(hex);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(*back == key);
    EXPECT_FALSE(CacheKey::fromHex("short").has_value());
    EXPECT_FALSE(
        CacheKey::fromHex(std::string(32, 'g')).has_value());
}

TEST(CacheKey, ReplayRelevantConfigChangesTheFingerprint)
{
    EnergySimulator::Config base = standardConfig();
    uint64_t fp = replayConfigFingerprint(base);

    EnergySimulator::Config c = base;
    c.replayLength = 128;
    EXPECT_NE(replayConfigFingerprint(c), fp);
    c = base;
    c.loader = gate::alternateLoader(base.loader);
    EXPECT_NE(replayConfigFingerprint(c), fp);
    c = base;
    c.replayTimeoutCycles = 12345;
    EXPECT_NE(replayConfigFingerprint(c), fp);
    c = base;
    c.retryFaultySnapshots = !base.retryFaultySnapshots;
    EXPECT_NE(replayConfigFingerprint(c), fp);

    // Aggregation-level knobs must NOT invalidate cached replays: that
    // is the incremental re-estimation path.
    c = base;
    c.confidence = 0.5;
    c.minSurvivingSamples = 9;
    c.maxDroppedSnapshots = 1;
    c.sampleSize = 99;
    c.parallelReplays = 7;
    EXPECT_EQ(replayConfigFingerprint(c), fp);
}

TEST_F(FarmTest, ResultCacheRoundTripsRecordsBitExactly)
{
    ResultCache cache(sub("cache"));
    CacheKey key{1, 2};

    ReplayRecord rec;
    rec.outcome.cycle = 777;
    rec.outcome.status = SnapshotStatus::Replayed;
    rec.outcome.attempts = 1;
    rec.modeledLoadSeconds = 0.125;
    rec.totalWatts = 0.0123456789;
    rec.groups = {{"engine", 0.001}, {"engine/table", 2e-5}};

    EXPECT_FALSE(cache.lookup(key).has_value()); // cold miss
    ASSERT_TRUE(cache.store(key, rec).isOk());
    auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->fromCache);
    EXPECT_EQ(hit->outcome.cycle, rec.outcome.cycle);
    EXPECT_EQ(hit->outcome.status, SnapshotStatus::Replayed);
    EXPECT_EQ(hit->modeledLoadSeconds, rec.modeledLoadSeconds);
    EXPECT_EQ(hit->totalWatts, rec.totalWatts);
    ASSERT_EQ(hit->groups.size(), rec.groups.size());
    for (size_t i = 0; i < rec.groups.size(); ++i) {
        EXPECT_EQ(hit->groups[i].first, rec.groups[i].first);
        EXPECT_EQ(hit->groups[i].second, rec.groups[i].second);
    }
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.entryCount(), 1u);

    // Failures are never cacheable: a corrupt/transient fault must not
    // be laundered into a persistent quarantine.
    ReplayRecord failed = rec;
    failed.outcome.status = SnapshotStatus::Diverged;
    util::Status st = cache.store(CacheKey{3, 4}, failed);
    ASSERT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), util::ErrorCode::InvalidArgument);
}

TEST_F(FarmTest, ResultCacheTrimKeepsNewest)
{
    ResultCache cache(sub("cache"));
    ReplayRecord rec;
    rec.outcome.status = SnapshotStatus::Replayed;
    for (uint64_t i = 0; i < 8; ++i)
        ASSERT_TRUE(cache.store(CacheKey{i, i}, rec).isOk());
    EXPECT_EQ(cache.entryCount(), 8u);
    EXPECT_EQ(cache.trim(3), 5u);
    EXPECT_EQ(cache.entryCount(), 3u);
    EXPECT_EQ(cache.trim(3), 0u);
}

TEST_F(FarmTest, TrimPolicyWarmEntriesSurviveStaleEntriesGo)
{
    ResultCache cache(sub("cache"));
    ReplayRecord rec;
    rec.outcome.status = SnapshotStatus::Replayed;
    for (uint64_t i = 0; i < 6; ++i)
        ASSERT_TRUE(cache.store(CacheKey{i, i}, rec).isOk());

    // Age three entries past the cutoff by backdating their mtime; the
    // other three stay warm.
    namespace ch = std::chrono;
    auto stale = fs::file_time_type::clock::now() - ch::hours(2);
    size_t aged = 0;
    for (const auto &ent : fs::directory_iterator(sub("cache"))) {
        if (aged >= 3)
            break;
        fs::last_write_time(ent.path(), stale);
        ++aged;
    }
    ASSERT_EQ(aged, 3u);

    ResultCache::TrimPolicy policy;
    policy.maxAgeSeconds = 3600; // 1h: the backdated three are stale
    ResultCache::TrimResult res = cache.trim(policy);
    EXPECT_EQ(res.examined, 6u);
    EXPECT_EQ(res.evicted, 3u);
    EXPECT_GT(res.bytesEvicted, 0u);
    EXPECT_EQ(cache.entryCount(), 3u);
    EXPECT_EQ(cache.stats().evictions, 3u);

    // Warm survivors are untouched by a repeat sweep.
    res = cache.trim(policy);
    EXPECT_EQ(res.evicted, 0u);
    EXPECT_EQ(cache.stats().evictions, 3u);
}

TEST_F(FarmTest, TrimPolicySizeBudgetEvictsOldestFirst)
{
    ResultCache cache(sub("cache"));
    ReplayRecord rec;
    rec.outcome.status = SnapshotStatus::Replayed;
    rec.groups = {{"engine", 0.001}};
    for (uint64_t i = 0; i < 4; ++i)
        ASSERT_TRUE(cache.store(CacheKey{i, i}, rec).isOk());

    uint64_t total = 0;
    uint64_t one = 0;
    for (const auto &ent : fs::directory_iterator(sub("cache"))) {
        one = fs::file_size(ent.path());
        total += one;
    }
    ASSERT_GT(one, 0u);

    // Budget for roughly two entries: the two oldest must go, newest
    // survive, and the byte accounting must add up.
    ResultCache::TrimPolicy policy;
    policy.maxTotalBytes = 2 * one;
    ResultCache::TrimResult res = cache.trim(policy);
    EXPECT_EQ(res.examined, 4u);
    EXPECT_EQ(res.evicted, 2u);
    EXPECT_EQ(res.bytesKept + res.bytesEvicted, total);
    EXPECT_LE(res.bytesKept, policy.maxTotalBytes);
    EXPECT_EQ(cache.entryCount(), 2u);
}

// ---------------------------------------------------------------------------
// Manifest durability
// ---------------------------------------------------------------------------

ShardManifest
sampleManifest()
{
    ShardManifest m;
    m.shard = 1;
    m.shards = 3;
    m.population = 156;
    m.sampleCount = 10;
    m.netlistFingerprint = 0xabcdef;
    m.configFingerprint = 0x123456;
    m.powerModelVersion = 1;
    m.coreName = "dut";
    m.workloadName = "noise";
    m.mirrorFrom(standardConfig());
    for (uint64_t i = 0; i < 4; ++i) {
        ManifestEntry e;
        e.index = 1 + 3 * i;
        e.cycle = 64 * e.index;
        e.snapshotFile = "snap_" + std::to_string(e.index) + ".strb";
        e.key = CacheKey{i, ~i};
        e.state = static_cast<EntryState>(i); // one entry per state
        e.injectedStallCycles = i == 2 ? 1000 : 0;
        if (e.state == EntryState::Quarantined) {
            e.failStatus =
                static_cast<uint32_t>(SnapshotStatus::Diverged);
            e.failAttempts = 2;
            e.failRetried = 1;
            e.failMismatches = 7;
            e.failLoadSeconds = 0.5;
            e.failDetail = "output 2 mismatched";
        }
        m.entries.push_back(e);
    }
    return m;
}

TEST_F(FarmTest, ManifestRoundTripsAllFields)
{
    ShardManifest m = sampleManifest();
    std::string path = sub("shard_1.strbfarm");
    ASSERT_TRUE(writeManifestFile(path, m).isOk());

    auto r = readManifestFile(path, /*reclaimLeases=*/false);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    EXPECT_EQ(r->shard, m.shard);
    EXPECT_EQ(r->shards, m.shards);
    EXPECT_EQ(r->population, m.population);
    EXPECT_EQ(r->sampleCount, m.sampleCount);
    EXPECT_EQ(r->netlistFingerprint, m.netlistFingerprint);
    EXPECT_EQ(r->configFingerprint, m.configFingerprint);
    EXPECT_EQ(r->coreName, m.coreName);
    EXPECT_EQ(r->workloadName, m.workloadName);
    EXPECT_EQ(r->replayLength, m.replayLength);
    EXPECT_EQ(r->clockHz, m.clockHz);
    ASSERT_EQ(r->entries.size(), m.entries.size());
    for (size_t i = 0; i < m.entries.size(); ++i) {
        const ManifestEntry &a = m.entries[i];
        const ManifestEntry &b = r->entries[i];
        EXPECT_EQ(a.index, b.index);
        EXPECT_EQ(a.cycle, b.cycle);
        EXPECT_EQ(a.snapshotFile, b.snapshotFile);
        EXPECT_TRUE(a.key == b.key);
        EXPECT_EQ(a.state, b.state);
        EXPECT_EQ(a.injectedStallCycles, b.injectedStallCycles);
        EXPECT_EQ(a.failStatus, b.failStatus);
        EXPECT_EQ(a.failAttempts, b.failAttempts);
        EXPECT_EQ(a.failRetried, b.failRetried);
        EXPECT_EQ(a.failMismatches, b.failMismatches);
        EXPECT_EQ(a.failLoadSeconds, b.failLoadSeconds);
        EXPECT_EQ(a.failDetail, b.failDetail);
    }

    // Resume semantics: a lease only means something while its worker
    // lives; reclaiming demotes Leased back to Pending.
    auto rr = readManifestFile(path, /*reclaimLeases=*/true);
    ASSERT_TRUE(rr.isOk());
    EXPECT_EQ(rr->count(EntryState::Leased), 0u);
    EXPECT_EQ(rr->count(EntryState::Pending), 2u);
    EXPECT_EQ(rr->count(EntryState::Done), 1u);
    EXPECT_EQ(rr->count(EntryState::Quarantined), 1u);
}

TEST_F(FarmTest, CorruptManifestIsRejectedNotTrusted)
{
    for (inject::FileFault kind : {inject::FileFault::BitFlip,
                                   inject::FileFault::Truncate,
                                   inject::FileFault::HeaderGarbage}) {
        std::string path =
            sub(("shard_" + std::string(inject::fileFaultName(kind)) +
                 ".strbfarm")
                    .c_str());
        ASSERT_TRUE(writeManifestFile(path, sampleManifest()).isOk());
        ASSERT_TRUE(
            inject::corruptFile(path, kind, faultSeed()).isOk());
        auto r = readManifestFile(path, false);
        ASSERT_FALSE(r.isOk()) << inject::fileFaultName(kind);
        EXPECT_EQ(r.status().code(), util::ErrorCode::Corrupt)
            << inject::fileFaultName(kind) << ": "
            << r.status().toString();
    }
}

TEST_F(FarmTest, ReclaimLeasesExpiredVersusLiveBoundary)
{
    ShardManifest m;
    m.shard = 0;
    m.shards = 1;
    m.mirrorFrom(standardConfig());
    const uint64_t now = 1'000'000;
    // Four leases straddling the boundary: long-expired, expired at
    // exactly `now` (counts as expired), still live, and a v1-style
    // lease with no recorded deadline (always reclaimable — the old
    // format cannot prove the holder is alive).
    for (uint64_t deadline : {now - 1, now, now + 1000, uint64_t(0)}) {
        ManifestEntry e;
        e.index = m.entries.size();
        e.state = EntryState::Leased;
        e.leaseDeadlineUnixMs = deadline;
        m.entries.push_back(e);
    }
    ManifestEntry done;
    done.index = 4;
    done.state = EntryState::Done;
    done.leaseDeadlineUnixMs = now - 1; // ignored: not Leased
    m.entries.push_back(done);

    EXPECT_EQ(reclaimLeases(m, now), 3u);
    EXPECT_EQ(m.entries[0].state, EntryState::Pending);
    EXPECT_EQ(m.entries[1].state, EntryState::Pending);
    EXPECT_EQ(m.entries[2].state, EntryState::Leased); // still live
    EXPECT_EQ(m.entries[2].leaseDeadlineUnixMs, now + 1000);
    EXPECT_EQ(m.entries[3].state, EntryState::Pending);
    EXPECT_EQ(m.entries[4].state, EntryState::Done);
    // Reclaimed leases have their deadline cleared.
    EXPECT_EQ(m.entries[0].leaseDeadlineUnixMs, 0u);
    // Idempotent: a second sweep at the same instant reclaims nothing.
    EXPECT_EQ(reclaimLeases(m, now), 0u);
}

TEST_F(FarmTest, ManifestPersistsLeaseDeadlines)
{
    ShardManifest m = sampleManifest();
    m.entries[1].leaseDeadlineUnixMs = 0xdeadbeef; // the Leased entry
    std::string path = sub("shard_1.strbfarm");
    ASSERT_TRUE(writeManifestFile(path, m).isOk());
    auto r = readManifestFile(path, /*reclaimLeases=*/false);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    EXPECT_EQ(r->entries[1].leaseDeadlineUnixMs, 0xdeadbeefu);
}

// ---------------------------------------------------------------------------
// Incremental re-estimation (CachingReplayExecutor)
// ---------------------------------------------------------------------------

TEST_F(FarmTest, WarmCacheReestimateIsReplayFreeAndBitIdentical)
{
    Design d = makeDut();

    // Cold run: everything misses, is replayed and stored.
    EnergyReport cold;
    size_t n = 0;
    {
        CachingReplayExecutor exec(sub("cache"));
        EnergySimulator::Config cfg = standardConfig();
        cfg.replayExecutor = &exec;
        Standard s = runStandard(d, cfg);
        cold = s.es->estimate();
        n = cold.snapshots;
        ASSERT_GE(n, 3u);
        EXPECT_EQ(exec.replaysExecuted(), n);
        EXPECT_EQ(cold.cacheMisses, n);
        EXPECT_EQ(cold.cacheHits, 0u);
        EXPECT_EQ(exec.cache().entryCount(), n);
    }

    // Warm re-estimates: ZERO gate-level replays, bit-identical report,
    // for any worker count (the tentpole acceptance criterion).
    for (unsigned workers : {1u, 2u, 8u}) {
        CachingReplayExecutor exec(sub("cache"));
        EnergySimulator::Config cfg = standardConfig();
        cfg.replayExecutor = &exec;
        cfg.parallelReplays = workers;
        Standard s = runStandard(d, cfg);
        EnergyReport warm = s.es->estimate();
        EXPECT_EQ(exec.replaysExecuted(), 0u)
            << workers << " workers replayed on a warm cache";
        EXPECT_EQ(warm.cacheHits, n);
        EXPECT_EQ(warm.cacheMisses, 0u);
        expectReportsBitIdentical(cold, warm);
    }
}

TEST_F(FarmTest, AggregationKnobChangeReaggregatesWithoutReplaying)
{
    Design d = makeDut();
    EnergyReport cold;
    {
        CachingReplayExecutor exec(sub("cache"));
        EnergySimulator::Config cfg = standardConfig();
        cfg.replayExecutor = &exec;
        Standard s = runStandard(d, cfg);
        cold = s.es->estimate();
    }
    // Same replays, different confidence: served entirely by the cache,
    // same mean, different (re-aggregated) interval width.
    CachingReplayExecutor exec(sub("cache"));
    EnergySimulator::Config cfg = standardConfig();
    cfg.replayExecutor = &exec;
    cfg.confidence = 0.90;
    Standard s = runStandard(d, cfg);
    EnergyReport narrow = s.es->estimate();
    EXPECT_EQ(exec.replaysExecuted(), 0u);
    EXPECT_EQ(narrow.cacheHits, cold.snapshots);
    EXPECT_EQ(narrow.averagePower.mean, cold.averagePower.mean);
    EXPECT_LT(narrow.averagePower.halfWidth,
              cold.averagePower.halfWidth);
}

TEST_F(FarmTest, ReplayKnobChangeMissesCleanly)
{
    Design d = makeDut();
    {
        CachingReplayExecutor exec(sub("cache"));
        EnergySimulator::Config cfg = standardConfig();
        cfg.replayExecutor = &exec;
        Standard s = runStandard(d, cfg);
        (void)s.es->estimate();
    }
    // A different replay length is a different experiment: every lookup
    // must miss (stale results must never be served).
    CachingReplayExecutor exec(sub("cache"));
    EnergySimulator::Config cfg = standardConfig();
    cfg.replayLength = 32;
    cfg.replayExecutor = &exec;
    Standard s = runStandard(d, cfg);
    EnergyReport rep = s.es->estimate();
    EXPECT_EQ(rep.cacheHits, 0u);
    EXPECT_EQ(exec.replaysExecuted(), rep.snapshots);
}

TEST_F(FarmTest, CachingExecutorPreservesDegradedReports)
{
    // Quarantines are never cached: the failing snapshot is re-replayed
    // on the warm run and reaches the identical verdict, while the
    // survivors come from the cache — and the report stays bit-identical.
    Design d = makeDut();
    EnergyReport cold, warm;
    for (int round = 0; round < 2; ++round) {
        CachingReplayExecutor exec(sub("cache"));
        EnergySimulator::Config cfg = standardConfig();
        cfg.replayExecutor = &exec;
        Standard s = runStandard(d, cfg);
        auto snaps = s.es->sampler().mutableSnapshots();
        ASSERT_GE(snaps.size(), 3u);
        inject::perturbOutputToken(*snaps[1], faultSeed());
        EnergyReport rep = s.es->estimate();
        ASSERT_TRUE(rep.degraded);
        if (round == 0) {
            cold = rep;
            EXPECT_EQ(rep.cacheHits, 0u);
        } else {
            warm = rep;
            // Only the quarantined snapshot was replayed again.
            EXPECT_EQ(exec.replaysExecuted(), 1u);
            EXPECT_EQ(warm.cacheHits, warm.snapshots - 1);
        }
    }
    expectReportsBitIdentical(cold, warm);
}

// ---------------------------------------------------------------------------
// The farm: plan / work / steal / collect
// ---------------------------------------------------------------------------

FarmConfig
farmConfig(const std::string &dir, unsigned shards,
           EnergySimulator::Config sim)
{
    FarmConfig fcfg;
    fcfg.dir = dir;
    fcfg.shards = shards;
    fcfg.sim = sim;
    fcfg.coreName = "dut";
    fcfg.workloadName = "noise";
    return fcfg;
}

TEST_F(FarmTest, FarmReportMatchesInProcessIncludingDegraded)
{
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();
    Standard s = runStandard(d, cfg);
    auto snaps = s.es->sampler().mutableSnapshots();
    ASSERT_GE(snaps.size(), 3u);
    inject::perturbOutputToken(*snaps[1], faultSeed());

    EnergyReport inProcess = s.es->estimate();
    ASSERT_TRUE(inProcess.degraded);

    FarmOrchestrator orch(d, farmConfig(sub("run"), 2, cfg));
    ASSERT_TRUE(
        orch.plan(s.es->sampler().snapshots(), s.population).isOk());
    ASSERT_TRUE(orch.workShard(0).isOk());
    ASSERT_TRUE(orch.workShard(1).isOk());
    auto rep = orch.collect();
    ASSERT_TRUE(rep.isOk()) << rep.status().toString();
    expectReportsBitIdentical(inProcess, *rep);

    // Quarantines live in the manifest, not the cache.
    auto progress = orch.progress();
    ASSERT_TRUE(progress.isOk());
    EXPECT_EQ(progress->quarantined, 1u);
    EXPECT_EQ(progress->done, progress->total - 1);
    EXPECT_EQ(orch.cache().entryCount(), progress->done);
}

TEST_F(FarmTest, WorkStealingDrainsEveryShardFromOneWorker)
{
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();
    Standard s = runStandard(d, cfg);
    EnergyReport inProcess = s.es->estimate();

    FarmOrchestrator orch(d, farmConfig(sub("run"), 4, cfg));
    ASSERT_TRUE(
        orch.plan(s.es->sampler().snapshots(), s.population).isOk());
    // One worker, four shards: it drains its own shard, then steals the
    // other three (publishing to the cache only).
    ASSERT_TRUE(orch.workShard(0).isOk());

    auto mid = orch.progress();
    ASSERT_TRUE(mid.isOk());
    EXPECT_GT(mid->pending, 0u); // stolen work is not marked by thieves
    EXPECT_EQ(orch.cache().entryCount(), inProcess.snapshots);

    auto rep = orch.collect();
    ASSERT_TRUE(rep.isOk()) << rep.status().toString();
    // Every record was served by the cache: the collector performed
    // zero inline replays even though three shards never ran a worker.
    EXPECT_EQ(rep->cacheHits, inProcess.snapshots);
    EXPECT_EQ(rep->cacheMisses, 0u);
    expectReportsBitIdentical(inProcess, *rep);

    auto after = orch.progress();
    ASSERT_TRUE(after.isOk());
    EXPECT_EQ(after->done, after->total); // collect marked them done
}

TEST_F(FarmTest, KillAndResumeReproducesTheUninterruptedReport)
{
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();

    // The uninterrupted reference run, in its own directory.
    Standard ref = runStandard(d, cfg);
    FarmOrchestrator refOrch(d, farmConfig(sub("ref"), 2, cfg));
    ASSERT_TRUE(
        refOrch.plan(ref.es->sampler().snapshots(), ref.population)
            .isOk());
    ASSERT_TRUE(refOrch.workShard(0).isOk());
    ASSERT_TRUE(refOrch.workShard(1).isOk());
    auto refRep = refOrch.collect();
    ASSERT_TRUE(refRep.isOk());

    // The "killed" run: shard 0 completed, shard 1 died mid-lease (its
    // manifest still says Leased — exactly what a SIGKILL leaves).
    Standard s1 = runStandard(d, cfg);
    {
        FarmOrchestrator orch(d, farmConfig(sub("run"), 2, cfg));
        ASSERT_TRUE(
            orch.plan(s1.es->sampler().snapshots(), s1.population)
                .isOk());
        ASSERT_TRUE(orch.workShard(0).isOk());
        std::string path = sub("run") + "/" + shardManifestName(1);
        auto m = readManifestFile(path, false);
        ASSERT_TRUE(m.isOk());
        ASSERT_FALSE(m->entries.empty());
        m->entries[0].state = EntryState::Leased;
        ASSERT_TRUE(writeManifestFile(path, *m).isOk());
    }

    // Resume: a fresh process re-plans (harvesting Done states and
    // reclaiming the orphaned lease), works, collects.
    Standard s2 = runStandard(d, cfg);
    FarmOrchestrator resumed(d, farmConfig(sub("run"), 2, cfg));
    ASSERT_TRUE(
        resumed.plan(s2.es->sampler().snapshots(), s2.population).isOk());
    auto mid = resumed.progress();
    ASSERT_TRUE(mid.isOk());
    EXPECT_GT(mid->done, 0u);   // completed work survived the replan
    EXPECT_EQ(mid->leased, 0u); // the orphaned lease was reclaimed
    ASSERT_TRUE(resumed.workShard(0).isOk());
    ASSERT_TRUE(resumed.workShard(1).isOk());
    auto rep = resumed.collect();
    ASSERT_TRUE(rep.isOk()) << rep.status().toString();
    expectReportsBitIdentical(*refRep, *rep);
}

TEST_F(FarmTest, DrainMidShardCheckpointsAndResumesBitIdentically)
{
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();

    // Uninterrupted reference.
    Standard ref = runStandard(d, cfg);
    FarmOrchestrator refOrch(d, farmConfig(sub("ref"), 1, cfg));
    ASSERT_TRUE(
        refOrch.plan(ref.es->sampler().snapshots(), ref.population)
            .isOk());
    ASSERT_TRUE(refOrch.workShard(0).isOk());
    auto refRep = refOrch.collect();
    ASSERT_TRUE(refRep.isOk());

    // The drained run: a SIGTERM-style cancel lands right after the
    // second lease is taken (the entryHook models the signal arriving
    // mid-replay). workShard must checkpoint — revert the lease, stop,
    // return ok — exactly what a draining worker process does.
    Standard s = runStandard(d, cfg);
    core::JobControl job;
    FarmConfig fcfg = farmConfig(sub("run"), 1, cfg);
    fcfg.sim.job = &job;
    unsigned leased = 0;
    fcfg.entryHook = [&](unsigned, const ManifestEntry &) {
        if (++leased == 2)
            job.cancel.store(true, std::memory_order_relaxed);
    };
    {
        FarmOrchestrator orch(d, fcfg);
        ASSERT_TRUE(
            orch.plan(s.es->sampler().snapshots(), s.population).isOk());
        ASSERT_TRUE(orch.workShard(0).isOk());
        auto mid = orch.progress();
        ASSERT_TRUE(mid.isOk());
        EXPECT_EQ(mid->done, 1u);   // first entry finished before the
        EXPECT_EQ(mid->leased, 0u); // drain; the second was reverted
        EXPECT_EQ(mid->quarantined, 0u); // a drain is never a failure
        EXPECT_EQ(mid->pending, mid->total - 1);

        // collect() under a drain refuses to produce a report and says
        // the run is checkpointed instead.
        auto rep = orch.collect();
        ASSERT_FALSE(rep.isOk());
        EXPECT_EQ(rep.status().code(), util::ErrorCode::Canceled);
    }

    // Resume without the cancel: only the unfinished work is redone and
    // the report is bit-identical to the uninterrupted reference.
    Standard s2 = runStandard(d, cfg);
    FarmOrchestrator resumed(d, farmConfig(sub("run"), 1, cfg));
    ASSERT_TRUE(
        resumed.plan(s2.es->sampler().snapshots(), s2.population).isOk());
    ASSERT_TRUE(resumed.workShard(0).isOk());
    auto rep = resumed.collect();
    ASSERT_TRUE(rep.isOk()) << rep.status().toString();
    expectReportsBitIdentical(*refRep, *rep);
}

TEST_F(FarmTest, ExpiredDeadlineYieldsDeterministicTimedOutReport)
{
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();
    Standard s = runStandard(d, cfg);

    core::JobControl job;
    job.deadlineUnixMs.store(1, std::memory_order_relaxed); // long past
    FarmConfig fcfg = farmConfig(sub("run"), 1, cfg);
    fcfg.sim.job = &job;
    fcfg.sim.maxDroppedSnapshots = 100; // keep the report valid
    FarmOrchestrator orch(d, fcfg);
    ASSERT_TRUE(
        orch.plan(s.es->sampler().snapshots(), s.population).isOk());
    ASSERT_TRUE(orch.workShard(0).isOk());

    auto rep = orch.collect();
    ASSERT_TRUE(rep.isOk()) << rep.status().toString();
    EXPECT_TRUE(rep->degraded);
    EXPECT_EQ(rep->droppedSnapshots, rep->outcomes.size());
    for (const SnapshotOutcome &oc : rep->outcomes) {
        EXPECT_EQ(oc.status, SnapshotStatus::TimedOut);
        // The deadline early-out is deterministic: fixed detail, zero
        // attempts — NOT a function of how far the replay got.
        EXPECT_EQ(oc.attempts, 0u);
        EXPECT_EQ(oc.detail, "job deadline exceeded before replay");
    }

    // Degradation is an artifact of the deadline, not the work queue: a
    // fresh run of the same directory without the deadline heals every
    // quarantine (plan resets them to Pending) and reports cleanly.
    Standard s2 = runStandard(d, cfg);
    FarmOrchestrator healed(d, farmConfig(sub("run"), 1, cfg));
    ASSERT_TRUE(
        healed.plan(s2.es->sampler().snapshots(), s2.population).isOk());
    ASSERT_TRUE(healed.workShard(0).isOk());
    auto rep2 = healed.collect();
    ASSERT_TRUE(rep2.isOk());
    EXPECT_FALSE(rep2->degraded);
}

TEST_F(FarmTest, ExpiredLeaseIsStolenByPeersLiveLeaseIsNot)
{
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();
    Standard s = runStandard(d, cfg);
    EnergyReport inProcess = s.es->estimate();

    FarmConfig fcfg = farmConfig(sub("run"), 2, cfg);
    FarmOrchestrator orch(d, fcfg);
    ASSERT_TRUE(
        orch.plan(s.es->sampler().snapshots(), s.population).isOk());

    // Wedge shard 1: mark every entry Leased. Half with a deadline far
    // in the future (a live worker), half long expired (a dead one).
    std::string path = sub("run") + "/" + shardManifestName(1);
    auto m = readManifestFile(path, false);
    ASSERT_TRUE(m.isOk());
    ASSERT_GE(m->entries.size(), 2u);
    uint64_t now = util::nowUnixMs();
    for (size_t i = 0; i < m->entries.size(); ++i) {
        m->entries[i].state = EntryState::Leased;
        m->entries[i].leaseDeadlineUnixMs =
            i % 2 == 0 ? now - 60'000 : now + 60 * 60 * 1000;
    }
    ASSERT_TRUE(writeManifestFile(path, *m).isOk());

    // Worker 0 drains its shard then steals: expired leases are redone
    // (published to the cache), live leases are left to their holder.
    ASSERT_TRUE(orch.workShard(0).isOk());
    size_t ownShard = inProcess.snapshots - m->entries.size();
    size_t expired = (m->entries.size() + 1) / 2;
    EXPECT_EQ(orch.cache().entryCount(), ownShard + expired);

    // The foreign manifest was never written by the thief.
    auto after = readManifestFile(path, false);
    ASSERT_TRUE(after.isOk());
    EXPECT_EQ(after->count(EntryState::Leased), after->entries.size());

    // collect() still completes everything (inline for the "live"
    // leaseholder's work) and the report is bit-identical.
    auto rep = orch.collect();
    ASSERT_TRUE(rep.isOk()) << rep.status().toString();
    expectReportsBitIdentical(inProcess, *rep);
}

TEST_F(FarmTest, MultiProcessWorkersMatchInProcessEstimate)
{
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();
    Standard s = runStandard(d, cfg);
    EnergyReport inProcess = s.es->estimate();

    FarmOrchestrator orch(d, farmConfig(sub("run"), 2, cfg));
    ASSERT_TRUE(
        orch.plan(s.es->sampler().snapshots(), s.population).isOk());

    // Real worker processes, like `strober-farm run -j 2`: each child
    // builds its own orchestrator on the shared directory.
    std::vector<pid_t> kids;
    for (unsigned k = 0; k < 2; ++k) {
        pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            FarmOrchestrator worker(d, farmConfig(sub("run"), 2, cfg));
            _exit(worker.workShard(k).isOk() ? 0 : 1);
        }
        kids.push_back(pid);
    }
    for (pid_t pid : kids) {
        int wstatus = 0;
        ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
        ASSERT_TRUE(WIFEXITED(wstatus));
        EXPECT_EQ(WEXITSTATUS(wstatus), 0);
    }

    auto rep = orch.collect();
    ASSERT_TRUE(rep.isOk()) << rep.status().toString();
    EXPECT_EQ(rep->cacheMisses, 0u); // workers published everything
    expectReportsBitIdentical(inProcess, *rep);
}

TEST_F(FarmTest, DesignDriftIsRefusedByWorkers)
{
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();
    Standard s = runStandard(d, cfg);
    FarmOrchestrator orch(d, farmConfig(sub("run"), 1, cfg));
    ASSERT_TRUE(
        orch.plan(s.es->sampler().snapshots(), s.population).isOk());

    // A worker holding a different netlist must refuse the queue:
    // mixing results from different designs would be silent garbage.
    Builder b("other");
    Signal in = b.input("in", 8);
    Signal wen = b.input("wen", 1);
    Signal acc = b.reg("acc", 24, 0);
    b.next(acc, acc + b.pad(in, 24), wen);
    b.output("acc", acc);
    Design other = b.finish();

    FarmOrchestrator drifted(other, farmConfig(sub("run"), 1, cfg));
    util::Status st = drifted.workShard(0);
    ASSERT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), util::ErrorCode::GeometryMismatch);
}

TEST_F(FarmTest, ConfigDriftDiscardsStaleResultsOnReplan)
{
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();
    Standard s = runStandard(d, cfg);
    FarmOrchestrator orch(d, farmConfig(sub("run"), 1, cfg));
    ASSERT_TRUE(
        orch.plan(s.es->sampler().snapshots(), s.population).isOk());
    ASSERT_TRUE(orch.workShard(0).isOk());

    // Re-planning with a different replay length is a new experiment:
    // the harvested manifests carry a stale config fingerprint, so
    // every completed entry is discarded instead of mixed in.
    EnergySimulator::Config other = standardConfig();
    other.replayLength = 32;
    Standard s2 = runStandard(d, other);
    FarmOrchestrator replanned(d, farmConfig(sub("run"), 1, other));
    ASSERT_TRUE(
        replanned.plan(s2.es->sampler().snapshots(), s2.population)
            .isOk());
    auto progress = replanned.progress();
    ASSERT_TRUE(progress.isOk());
    EXPECT_EQ(progress->done, 0u);
    EXPECT_EQ(progress->pending, progress->total);
}

TEST_F(FarmTest, BatchedFarmMatchesInProcessAcrossPassesAndShards)
{
    // Up to 40 snapshots: two full lockstep passes and a partial
    // third, with a divergence and a watchdog timeout among them.
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();
    cfg.sampleSize = 40;
    inject::StallPlan stalls;
    stalls.stallSnapshot(7, 1'000'000); // over any budget: TimedOut
    cfg.stallPlan = &stalls;
    Standard s = runStandard(d, cfg);
    auto snaps = s.es->sampler().mutableSnapshots();
    const size_t n = snaps.size();
    ASSERT_GT(n, 2 * size_t(gate::kReplayLanes));
    ASSERT_NE(n % gate::kReplayLanes, 0u);
    inject::perturbOutputToken(*snaps[21], faultSeed());

    EnergyReport inProcess = s.es->estimate();
    ASSERT_EQ(inProcess.droppedSnapshots, 2u);
    EXPECT_EQ(inProcess.outcomes[7].status, SnapshotStatus::TimedOut);
    EXPECT_EQ(inProcess.outcomes[21].status, SnapshotStatus::Diverged);

    // The same sample with snapshot 30's file torn on disk after
    // planning: one more quarantine, the same at any shard count.
    const size_t torn = 30;
    std::optional<EnergyReport> tornRef;
    for (unsigned shards : {1u, 3u}) {
        for (bool tear : {false, true}) {
            // One path for every run: the torn file's detail names it.
            std::string run = sub("run");
            fs::remove_all(run);
            FarmOrchestrator orch(d, farmConfig(run, shards, cfg));
            ASSERT_TRUE(
                orch.plan(s.es->sampler().snapshots(), s.population)
                    .isOk());
            if (tear) {
                ASSERT_TRUE(inject::corruptFile(run + "/snap_00030.strb",
                                                inject::FileFault::Truncate,
                                                faultSeed())
                                .isOk());
            }
            for (unsigned k = 0; k < shards; ++k)
                ASSERT_TRUE(orch.workShard(k).isOk());
            auto rep = orch.collect();
            ASSERT_TRUE(rep.isOk()) << rep.status().toString();
            if (!tear) {
                expectReportsBitIdentical(inProcess, *rep);
                // One replay per cache miss. Only a failure (never
                // cached) is replayed twice: by a thief, then by its
                // owner, which records the quarantine.
                EXPECT_EQ(orch.replaysExecuted(),
                          orch.cache().stats().misses);
                if (shards == 1) {
                    EXPECT_EQ(orch.replaysExecuted(), n);
                }
                continue;
            }
            EXPECT_EQ(rep->droppedSnapshots, 3u);
            ASSERT_EQ(rep->outcomes.size(), n);
            for (size_t i = 0; i < n; ++i) {
                const SnapshotOutcome &got = rep->outcomes[i];
                const SnapshotOutcome &want = inProcess.outcomes[i];
                EXPECT_EQ(got.index, want.index);
                EXPECT_EQ(got.cycle, want.cycle);
                if (i == torn) {
                    EXPECT_EQ(got.status, SnapshotStatus::LoadFailed);
                    EXPECT_EQ(got.attempts, 1u);
                    continue;
                }
                EXPECT_EQ(got.status, want.status) << "snapshot " << i;
                EXPECT_EQ(got.attempts, want.attempts);
                EXPECT_EQ(got.detail, want.detail);
            }
            if (tornRef)
                expectReportsBitIdentical(*tornRef, *rep);
            else
                tornRef = *rep;
        }
    }
}

TEST_F(FarmTest, UnusableCacheDirectoryRunsUncachedWithoutExiting)
{
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();
    Standard ref = runStandard(d, cfg);
    EnergyReport uncached = ref.es->estimate();

    // A cache directory under a regular file can never be created.
    std::string file = sub("not_a_dir");
    { std::ofstream(file) << "x"; }
    std::string badCache = file + "/cache";

    CachingReplayExecutor exec(badCache);
    EXPECT_EQ(exec.cache().store(CacheKey{}, ReplayRecord{}).code(),
              util::ErrorCode::IoError);
    EnergySimulator::Config ccfg = cfg;
    ccfg.replayExecutor = &exec;
    Standard s = runStandard(d, ccfg);
    EnergyReport viaExec = s.es->estimate();
    expectReportsBitIdentical(uncached, viaExec);
    EXPECT_EQ(viaExec.cacheHits, 0u);
    EXPECT_EQ(exec.cache().entryCount(), 0u);

    FarmConfig fcfg = farmConfig(sub("run"), 2, cfg);
    fcfg.cacheDir = badCache;
    FarmOrchestrator orch(d, fcfg);
    ASSERT_TRUE(
        orch.plan(ref.es->sampler().snapshots(), ref.population).isOk());
    ASSERT_TRUE(orch.workShard(0).isOk());
    ASSERT_TRUE(orch.workShard(1).isOk());
    auto rep = orch.collect();
    ASSERT_TRUE(rep.isOk()) << rep.status().toString();
    expectReportsBitIdentical(uncached, *rep);
}

TEST_F(FarmTest, ZeroShardsIsRefusedByPlan)
{
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();
    Standard s = runStandard(d, cfg);
    FarmOrchestrator orch(d, farmConfig(sub("run"), 0, cfg));
    util::Status st = orch.plan(s.es->sampler().snapshots(), s.population);
    ASSERT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), util::ErrorCode::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Streamed farm runs (farm/stream.h)
// ---------------------------------------------------------------------------

/** Publish the standard workload's captures into @p feed exactly as a
 *  streamed producer does, and return the run's simulator. */
Standard
runStandardStreamed(const Design &d, EnergySimulator::Config cfg,
                    StreamFeed &feed, core::RunStats *outRun = nullptr,
                    uint64_t cycles = 10'000)
{
    Standard s;
    s.es = std::make_unique<EnergySimulator>(d, cfg);
    s.es->sampler().setObserver(&feed);
    NoiseDriver driver(42, cycles);
    core::RunStats run = s.es->run(driver, UINT64_MAX);
    s.es->sampler().flushPending();
    s.es->sampler().setObserver(nullptr);
    s.population = run.targetCycles / cfg.replayLength;
    if (outRun)
        *outRun = run;
    return s;
}

TEST_F(FarmTest, StreamedRunIsBitIdenticalToPhasedAndWarmsCache)
{
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();

    // Phased reference: plan everything after the fast sim ends.
    Standard ref = runStandard(d, cfg);
    FarmOrchestrator phased(d, farmConfig(sub("phased"), 1, cfg));
    ASSERT_TRUE(
        phased.plan(ref.es->sampler().snapshots(), ref.population).isOk());
    ASSERT_TRUE(phased.workShard(0).isOk());
    auto phasedRep = phased.collect();
    ASSERT_TRUE(phasedRep.isOk()) << phasedRep.status().toString();

    // Streamed run: captures publish into the feed as they happen.
    FarmOrchestrator producer(d, farmConfig(sub("stream"), 1, cfg));
    auto feed = producer.openStreamFeed();
    ASSERT_TRUE(feed.isOk()) << feed.status().toString();
    core::RunStats run;
    Standard s = runStandardStreamed(d, cfg, **feed, &run);
    ASSERT_TRUE((*feed)->finish(false).isOk());
    EXPECT_TRUE((*feed)->status().isOk());

    // Every record event was published; evictions superseded the rest.
    size_t survivors = s.es->sampler().snapshots().size();
    EXPECT_EQ((*feed)->published(), run.recordCount);
    EXPECT_EQ((*feed)->superseded(), run.recordCount - survivors);
    ASSERT_GT((*feed)->superseded(), 0u);

    // Worker drain: superseded entries are tombstoned and never
    // replayed — eviction cancels streamed work.
    FarmOrchestrator worker(d, farmConfig(sub("stream"), 1, cfg));
    auto out = worker.drainStream(0, 1, /*pollMs=*/1);
    ASSERT_TRUE(out.isOk()) << out.status().toString();
    EXPECT_TRUE(out->sawDoneMarker);
    EXPECT_FALSE(out->earlyStop);
    EXPECT_FALSE(out->canceled);
    EXPECT_EQ(out->tombstoned, (*feed)->superseded());
    EXPECT_EQ(out->replayed, survivors);
    EXPECT_EQ(out->cacheHits, 0u);

    // A second sweep finds every live result already published: the
    // drain is idempotent and eviction never poisoned the cache.
    FarmOrchestrator worker2(d, farmConfig(sub("stream"), 1, cfg));
    auto again = worker2.drainStream(0, 1, /*pollMs=*/1);
    ASSERT_TRUE(again.isOk()) << again.status().toString();
    EXPECT_EQ(again->replayed, 0u);
    EXPECT_EQ(again->cacheHits, survivors);
    EXPECT_EQ(again->tombstoned, (*feed)->superseded());

    // The plan marker gates workers' manifest phase.
    EXPECT_FALSE(planMarkerExists(sub("stream")));
    ASSERT_TRUE(writePlanMarker(sub("stream")).isOk());
    EXPECT_TRUE(planMarkerExists(sub("stream")));

    // The ordinary plan/collect flow now finds the cache fully warm
    // and the final report is bit-identical to the phased farm run.
    ASSERT_TRUE(
        producer.plan(s.es->sampler().snapshots(), s.population).isOk());
    ASSERT_TRUE(producer.workShard(0).isOk());
    EXPECT_EQ(producer.replaysExecuted(), 0u)
        << "streamed drain should have pre-paid every replay";
    auto rep = producer.collect();
    ASSERT_TRUE(rep.isOk()) << rep.status().toString();
    expectReportsBitIdentical(*phasedRep, *rep);
    EXPECT_EQ(renderReportDeterministic(*phasedRep),
              renderReportDeterministic(*rep));
}

TEST_F(FarmTest, EarlyStopMarkerAbandonsPendingStreamWork)
{
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();

    FarmOrchestrator producer(d, farmConfig(sub("run"), 1, cfg));
    auto feed = producer.openStreamFeed();
    ASSERT_TRUE(feed.isOk()) << feed.status().toString();
    Standard s = runStandardStreamed(d, cfg, **feed);
    ASSERT_TRUE((*feed)->finish(/*earlyStop=*/true).isOk());

    // The marker arrives before the worker replays anything: the whole
    // backlog is abandoned, not finished.
    FarmOrchestrator worker(d, farmConfig(sub("run"), 1, cfg));
    auto out = worker.drainStream(0, 1, /*pollMs=*/1);
    ASSERT_TRUE(out.isOk()) << out.status().toString();
    EXPECT_TRUE(out->sawDoneMarker);
    EXPECT_TRUE(out->earlyStop);
    EXPECT_EQ(out->replayed, 0u);
    EXPECT_EQ(worker.replaysExecuted(), 0u);
    (void)s;
}

TEST_F(FarmTest, CollectStreamEarlyAggregatesCompletedLiveSubset)
{
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();

    FarmOrchestrator producer(d, farmConfig(sub("run"), 1, cfg));
    auto feed = producer.openStreamFeed();
    ASSERT_TRUE(feed.isOk()) << feed.status().toString();
    Standard s = runStandardStreamed(d, cfg, **feed);
    ASSERT_TRUE((*feed)->finish(false).isOk());

    FarmOrchestrator worker(d, farmConfig(sub("run"), 1, cfg));
    auto out = worker.drainStream(0, 1, /*pollMs=*/1);
    ASSERT_TRUE(out.isOk()) << out.status().toString();
    size_t survivors = s.es->sampler().snapshots().size();
    ASSERT_EQ(out->replayed, survivors);

    // With every live entry completed, the CI check trivially passes
    // for a loose bound and never for an unattainable one.
    EXPECT_TRUE((*feed)->ciBoundMet(producer.cache(), /*bound=*/10.0,
                                    cfg.confidence, s.population,
                                    cfg.sampleSize));
    EXPECT_FALSE((*feed)->ciBoundMet(producer.cache(), /*bound=*/1e-12,
                                     cfg.confidence, s.population,
                                     cfg.sampleSize));

    // The early aggregate over the complete live set is the same
    // Section III-A estimate the in-process path computes.
    auto early = producer.collectStreamEarly(**feed, s.population);
    ASSERT_TRUE(early.isOk()) << early.status().toString();
    EXPECT_TRUE(early->valid);
    EXPECT_TRUE(early->earlyStopped);
    EXPECT_EQ(early->snapshots, survivors);
    EXPECT_EQ(early->supersededReplays,
              static_cast<size_t>((*feed)->superseded()));
    EXPECT_NE(renderReportDeterministic(*early)
                  .find("early-stopped 1"),
              std::string::npos);

    Standard ref = runStandard(d, cfg);
    EnergyReport inProcess = ref.es->estimate();
    EXPECT_EQ(early->averagePower.mean, inProcess.averagePower.mean);
    EXPECT_EQ(early->averagePower.halfWidth,
              inProcess.averagePower.halfWidth);
    EXPECT_EQ(early->population, inProcess.population);
}

TEST_F(FarmTest, StreamedDrainReplaysManyLiveEntriesOnceInBatches)
{
    // 40 live entries: the drain replays them more than one pass at a
    // time, and skips every superseded capture.
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();
    cfg.sampleSize = 40;

    FarmOrchestrator producer(d, farmConfig(sub("run"), 1, cfg));
    auto feed = producer.openStreamFeed();
    ASSERT_TRUE(feed.isOk()) << feed.status().toString();
    Standard s = runStandardStreamed(d, cfg, **feed);
    ASSERT_TRUE((*feed)->finish(false).isOk());
    size_t survivors = s.es->sampler().snapshots().size();
    ASSERT_GT(survivors, 2 * size_t(gate::kReplayLanes));
    ASSERT_GT((*feed)->superseded(), 0u);

    FarmOrchestrator worker(d, farmConfig(sub("run"), 1, cfg));
    auto out = worker.drainStream(0, 1, /*pollMs=*/1);
    ASSERT_TRUE(out.isOk()) << out.status().toString();
    EXPECT_EQ(out->replayed, survivors);
    EXPECT_EQ(out->tombstoned, (*feed)->superseded());
    EXPECT_EQ(worker.replaysExecuted(), survivors);
    EXPECT_EQ(worker.cache().stats().misses, survivors);
    EXPECT_EQ(worker.cache().entryCount(), survivors);

    // Every survivor's record is the in-process one: the phased flow
    // finds all of them cached and reports bit-identically.
    ASSERT_TRUE(
        producer.plan(s.es->sampler().snapshots(), s.population).isOk());
    ASSERT_TRUE(producer.workShard(0).isOk());
    auto rep = producer.collect();
    ASSERT_TRUE(rep.isOk()) << rep.status().toString();
    EXPECT_EQ(producer.replaysExecuted(), 0u);
    Standard ref = runStandard(d, cfg);
    expectReportsBitIdentical(ref.es->estimate(), *rep);
}

} // namespace
} // namespace farm
} // namespace strober
