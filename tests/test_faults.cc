/**
 * @file
 * Fault-injection matrix for the replay pipeline (ctest label
 * "fault-injection").
 *
 * The contract under test: every fault class — corrupted scan-chain
 * state, corrupted replay traces, hung gate-level replays, torn or
 * bit-rotted snapshot files — is either detected-and-quarantined or
 * cleanly degraded, never a crash and never a silently wrong estimate.
 * Both entry points are exercised: the in-memory
 * EnergySimulator::estimate() pipeline and the file-based farm flow
 * (writeSnapshotFile / readSnapshotFile / replayOnGate).
 *
 * All injection is seed-driven. The default seed is fixed; CI runs the
 * suite across a seed matrix via the STROBER_FAULT_SEED environment
 * variable. Assertions that depend on *where* a fault lands (e.g.
 * whether a flipped memory bit is observed within the replay window)
 * are only made for the default seed; invariant assertions (no crash,
 * quarantine accounting consistent, report flags truthful) hold for
 * every seed.
 */

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/energy_sim.h"
#include "core/harness.h"
#include "fame/snapshot_io.h"
#include "farm/farm.h"
#include "gate/replay.h"
#include "gate/synthesis.h"
#include "inject/fault_injector.h"
#include "power/power_analysis.h"
#include "rtl/builder.h"
#include "stats/rng.h"
#include "util/status.h"

namespace strober {
namespace core {
namespace {

using rtl::Builder;
using rtl::Design;
using rtl::MemHandle;
using rtl::Scope;
using rtl::Signal;

/** Seed for the injectors; CI sweeps it via STROBER_FAULT_SEED. */
uint64_t
faultSeed()
{
    const char *env = std::getenv("STROBER_FAULT_SEED");
    return env ? std::strtoull(env, nullptr, 0) : 0xf001f001ull;
}

/** True when running with the default (hardcoded-expectation) seed. */
bool
isDefaultSeed()
{
    return std::getenv("STROBER_FAULT_SEED") == nullptr;
}

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

class NoiseDriver : public HostDriver
{
  public:
    NoiseDriver(uint64_t seed, uint64_t cycles) : rng(seed), budget(cycles)
    {
    }

    void
    drive(TargetHarness &h) override
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

/** Run the standard workload and leave the simulator ready to estimate. */
std::unique_ptr<EnergySimulator>
runStandard(const Design &d, EnergySimulator::Config cfg,
            uint64_t cycles = 10'000)
{
    auto es = std::make_unique<EnergySimulator>(d, cfg);
    NoiseDriver driver(42, cycles);
    es->run(driver, UINT64_MAX);
    return es;
}

EnergySimulator::Config
standardConfig()
{
    EnergySimulator::Config cfg;
    cfg.sampleSize = 10;
    cfg.replayLength = 64;
    return cfg;
}

/**
 * Whatever a corrupted capture does, the pipeline must stay coherent:
 * crash-free, accounting consistent, flags truthful.
 */
void
expectCoherentReport(const EnergyReport &report, size_t expectedSnapshots)
{
    EXPECT_EQ(report.snapshots, expectedSnapshots);
    EXPECT_EQ(report.outcomes.size(), expectedSnapshots);
    size_t dropped = 0;
    for (const SnapshotOutcome &oc : report.outcomes) {
        if (!oc.replayed()) {
            ++dropped;
            EXPECT_FALSE(oc.detail.empty());
            EXPECT_GE(oc.attempts, 1u);
        }
    }
    EXPECT_EQ(report.droppedSnapshots, dropped);
    EXPECT_EQ(report.degraded, dropped > 0);
    if (dropped == 0) {
        EXPECT_TRUE(report.valid);
        EXPECT_EQ(report.replayMismatches, 0u);
    }
    if (!report.valid) {
        EXPECT_FALSE(report.statusMessage.empty());
    }
    if (report.valid) {
        EXPECT_GT(report.averagePower.mean, 0.0);
    }
}

// ---------------------------------------------------------------------------
// In-memory entry point: EnergySimulator::estimate()
// ---------------------------------------------------------------------------

TEST(FaultMatrix, StateBitFlipNeverCrashesAndNeverLies)
{
    Design d = makeDut();
    auto es = runStandard(d, standardConfig());
    auto snaps = es->sampler().mutableSnapshots();
    ASSERT_GE(snaps.size(), 3u);

    uint64_t bit = inject::flipSnapshotStateBit(
        *snaps[1], es->sampler().chains(), faultSeed());
    EXPECT_LT(bit, es->sampler().chains().totalBits());

    EnergyReport report = es->estimate();
    expectCoherentReport(report, snaps.size());
    // A flipped state bit either perturbs an output inside the replay
    // window (detected: diverged + quarantined) or is dead state for
    // these 64 cycles (harmless: replay verifies clean). Both are fine;
    // a crash or an unflagged wrong estimate is not.
    for (const SnapshotOutcome &oc : report.outcomes) {
        if (oc.index != 1) {
            EXPECT_TRUE(oc.replayed()) << "collateral quarantine of "
                                       << oc.index << ": " << oc.detail;
        }
    }
    if (isDefaultSeed()) {
        // The default seed is chosen to land in live state.
        EXPECT_EQ(report.droppedSnapshots, 1u);
        EXPECT_EQ(report.outcomes[1].status, SnapshotStatus::Diverged);
        EXPECT_TRUE(report.degraded);
        EXPECT_TRUE(report.valid);
    }
}

TEST(FaultMatrix, CorruptedOutputTraceIsQuarantined)
{
    Design d = makeDut();
    auto es = runStandard(d, standardConfig());
    auto snaps = es->sampler().mutableSnapshots();
    ASSERT_GE(snaps.size(), 3u);

    // An output-trace fault is guaranteed to surface as divergence.
    inject::perturbOutputToken(*snaps[2], faultSeed());

    EnergyReport report = es->estimate();
    expectCoherentReport(report, snaps.size());
    EXPECT_EQ(report.droppedSnapshots, 1u);
    EXPECT_TRUE(report.degraded);
    EXPECT_TRUE(report.valid); // survivors still clear the floor
    EXPECT_GT(report.replayMismatches, 0u);
    const SnapshotOutcome &oc = report.outcomes[2];
    EXPECT_EQ(oc.status, SnapshotStatus::Diverged);
    // The bounded retry ran (and could not help: the trace itself is
    // corrupt) before quarantine.
    EXPECT_EQ(oc.attempts, 2u);
    EXPECT_TRUE(oc.retriedOnAlternateLoader);
    EXPECT_NE(report.statusMessage.find("degraded"), std::string::npos);
}

TEST(FaultMatrix, CorruptedInputTraceNeverCrashes)
{
    Design d = makeDut();
    auto es = runStandard(d, standardConfig());
    auto snaps = es->sampler().mutableSnapshots();
    ASSERT_GE(snaps.size(), 2u);
    inject::perturbInputToken(*snaps[0], faultSeed());
    EnergyReport report = es->estimate();
    expectCoherentReport(report, snaps.size());
}

TEST(FaultMatrix, HungReplayTripsWatchdogAndIsQuarantined)
{
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();
    inject::StallPlan plan;
    plan.stallSnapshot(0, 1u << 30); // far past any watchdog budget
    cfg.stallPlan = &plan;
    auto es = runStandard(d, cfg);
    size_t n = es->sampler().snapshots().size();
    ASSERT_GE(n, 3u);

    EnergyReport report = es->estimate();
    expectCoherentReport(report, n);
    EXPECT_EQ(report.droppedSnapshots, 1u);
    const SnapshotOutcome &oc = report.outcomes[0];
    EXPECT_EQ(oc.status, SnapshotStatus::TimedOut);
    EXPECT_EQ(oc.attempts, 2u); // the retry also stalls
    EXPECT_NE(oc.detail.find("timeout"), std::string::npos);
    EXPECT_TRUE(report.valid);
    EXPECT_TRUE(report.degraded);
}

TEST(FaultMatrix, ExplicitTimeoutBudgetIsHonored)
{
    // A budget smaller than one healthy replay must quarantine
    // everything and invalidate the report — loudly, not silently.
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();
    cfg.replayTimeoutCycles = 3; // < warm-up + 64 trace cycles
    auto es = runStandard(d, cfg);
    size_t n = es->sampler().snapshots().size();
    ASSERT_GE(n, 1u);

    EnergyReport report = es->estimate();
    EXPECT_EQ(report.droppedSnapshots, n);
    EXPECT_FALSE(report.valid);
    for (const SnapshotOutcome &oc : report.outcomes)
        EXPECT_EQ(oc.status, SnapshotStatus::TimedOut);
    EXPECT_NE(report.statusMessage.find("quarantined"), std::string::npos);
}

TEST(FaultMatrix, DropCeilingInvalidatesReport)
{
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();
    cfg.maxDroppedSnapshots = 0; // zero tolerance
    auto es = runStandard(d, cfg);
    auto snaps = es->sampler().mutableSnapshots();
    ASSERT_GE(snaps.size(), 3u);
    inject::perturbOutputToken(*snaps[1], faultSeed());

    EnergyReport report = es->estimate();
    EXPECT_EQ(report.droppedSnapshots, 1u);
    EXPECT_FALSE(report.valid);
    EXPECT_NE(report.statusMessage.find("ceiling"), std::string::npos);
    // The degraded numbers are still reported for inspection.
    EXPECT_GT(report.averagePower.mean, 0.0);
}

TEST(FaultMatrix, MinimumSampleFloorInvalidatesReport)
{
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();
    cfg.sampleSize = 3;
    cfg.minSurvivingSamples = 3;
    auto es = runStandard(d, cfg);
    auto snaps = es->sampler().mutableSnapshots();
    ASSERT_EQ(snaps.size(), 3u);
    inject::perturbOutputToken(*snaps[0], faultSeed());

    EnergyReport report = es->estimate();
    EXPECT_EQ(report.droppedSnapshots, 1u);
    EXPECT_FALSE(report.valid);
    EXPECT_NE(report.statusMessage.find("floor"), std::string::npos);
}

TEST(FaultMatrix, RetryDisabledQuarantinesOnFirstFailure)
{
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();
    cfg.retryFaultySnapshots = false;
    auto es = runStandard(d, cfg);
    auto snaps = es->sampler().mutableSnapshots();
    ASSERT_GE(snaps.size(), 2u);
    inject::perturbOutputToken(*snaps[1], faultSeed());

    EnergyReport report = es->estimate();
    const SnapshotOutcome &oc = report.outcomes[1];
    EXPECT_EQ(oc.status, SnapshotStatus::Diverged);
    EXPECT_EQ(oc.attempts, 1u);
    EXPECT_FALSE(oc.retriedOnAlternateLoader);
}

// ---------------------------------------------------------------------------
// File-based entry point: the snapshot farm flow
// ---------------------------------------------------------------------------

class FarmFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        namespace fs = std::filesystem;
        dir = fs::temp_directory_path() /
              ("strober_faults_" + std::to_string(faultSeed()) + "_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name());
        fs::remove_all(dir);
        fs::create_directories(dir);
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir);
    }

    std::filesystem::path dir;
};

TEST_F(FarmFixture, EveryFileFaultClassIsDetectedAtLoad)
{
    namespace fs = std::filesystem;
    Design d = makeDut();
    auto es = runStandard(d, standardConfig());
    const fame::ScanChains &chains = es->sampler().chains();
    auto snaps = es->sampler().snapshots();
    ASSERT_GE(snaps.size(), 4u);

    std::vector<fs::path> files;
    for (const fame::ReplayableSnapshot *s : snaps) {
        fs::path f = dir / ("snap_" + std::to_string(s->cycle()) + ".strb");
        ASSERT_TRUE(fame::writeSnapshotFile(f.string(), chains, *s).isOk());
        // Atomic write: no temp residue next to the final file.
        EXPECT_FALSE(fs::exists(f.string() + ".tmp"));
        files.push_back(f);
    }

    // One file per fault class, the rest left healthy.
    const inject::FileFault kinds[] = {inject::FileFault::BitFlip,
                                       inject::FileFault::Truncate,
                                       inject::FileFault::HeaderGarbage};
    for (size_t k = 0; k < 3; ++k) {
        ASSERT_TRUE(inject::corruptFile(files[k].string(), kinds[k],
                                        faultSeed() + k)
                        .isOk());
    }

    // Farm phase: load + replay every file; corrupted ones quarantine.
    gate::SynthesisResult synth = gate::synthesize(d);
    gate::MatchTable table = gate::matchDesigns(d, synth.netlist,
                                                synth.guide);
    gate::GateSimulator gsim(synth.netlist);
    size_t quarantined = 0, survived = 0;
    for (size_t i = 0; i < files.size(); ++i) {
        util::Result<fame::ReplayableSnapshot> snap =
            fame::readSnapshotFile(files[i].string(), chains);
        if (i < 3) {
            EXPECT_FALSE(snap.isOk())
                << inject::fileFaultName(kinds[i]) << " not detected";
            if (!snap.isOk()) {
                EXPECT_FALSE(snap.status().message().empty());
                // The quarantine diagnostic names the bad file.
                EXPECT_NE(snap.status().message().find(
                              files[i].filename().string()),
                          std::string::npos);
            }
            ++quarantined;
            continue;
        }
        ASSERT_TRUE(snap.isOk()) << snap.status().toString();
        util::Result<gate::GateReplayResult> r =
            gate::replayOnGate(gsim, d, table, *snap);
        ASSERT_TRUE(r.isOk()) << r.status().toString();
        EXPECT_TRUE(r->ok()) << r->firstMismatch;
        ++survived;
    }
    EXPECT_EQ(quarantined, 3u);
    EXPECT_EQ(survived, files.size() - 3);
}

TEST_F(FarmFixture, SerializedCorruptionDetectedForManySeeds)
{
    // Denser sweep at the bytes level: whatever bit the fault lands on,
    // the reader must reject the image — the CRC sections leave no
    // unprotected bytes.
    Design d = makeDut();
    auto es = runStandard(d, standardConfig());
    const fame::ScanChains &chains = es->sampler().chains();
    auto snaps = es->sampler().snapshots();
    ASSERT_GE(snaps.size(), 1u);

    std::stringstream buf;
    ASSERT_TRUE(fame::writeSnapshot(buf, chains, *snaps[0]).isOk());
    std::string good = buf.str();

    for (uint64_t s = 0; s < 32; ++s) {
        for (inject::FileFault kind : {inject::FileFault::BitFlip,
                                       inject::FileFault::Truncate}) {
            std::string bad =
                inject::corruptBytes(good, kind, faultSeed() + s);
            ASSERT_NE(bad, good);
            std::istringstream in(bad);
            util::Result<fame::ReplayableSnapshot> r =
                fame::readSnapshot(in, chains);
            EXPECT_FALSE(r.isOk())
                << inject::fileFaultName(kind) << " seed "
                << faultSeed() + s << " escaped detection";
        }
    }
}

TEST_F(FarmFixture, WriteToUnwritablePathReportsIoError)
{
    Design d = makeDut();
    auto es = runStandard(d, standardConfig());
    auto snaps = es->sampler().snapshots();
    ASSERT_GE(snaps.size(), 1u);
    std::string bad = (dir / "missing" / "deep" / "snap.strb").string();
    util::Status st = fame::writeSnapshotFile(
        bad, es->sampler().chains(), *snaps[0]);
    ASSERT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), util::ErrorCode::IoError);
    EXPECT_FALSE(std::filesystem::exists(bad));
    EXPECT_FALSE(std::filesystem::exists(bad + ".tmp"));
}

// ---------------------------------------------------------------------------
// Determinism and degradation semantics
// ---------------------------------------------------------------------------

void
expectReportsBitIdentical(const EnergyReport &a, const EnergyReport &b)
{
    EXPECT_EQ(a.averagePower.mean, b.averagePower.mean);
    EXPECT_EQ(a.averagePower.halfWidth, b.averagePower.halfWidth);
    EXPECT_EQ(a.population, b.population);
    EXPECT_EQ(a.snapshots, b.snapshots);
    EXPECT_EQ(a.droppedSnapshots, b.droppedSnapshots);
    EXPECT_EQ(a.replayMismatches, b.replayMismatches);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.valid, b.valid);
    ASSERT_EQ(a.groups.size(), b.groups.size());
    for (size_t i = 0; i < a.groups.size(); ++i) {
        EXPECT_EQ(a.groups[i].group, b.groups[i].group);
        EXPECT_EQ(a.groups[i].power.mean, b.groups[i].power.mean);
        EXPECT_EQ(a.groups[i].power.halfWidth, b.groups[i].power.halfWidth);
    }
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (size_t i = 0; i < a.outcomes.size(); ++i) {
        EXPECT_EQ(a.outcomes[i].status, b.outcomes[i].status);
        EXPECT_EQ(a.outcomes[i].mismatches, b.outcomes[i].mismatches);
    }
}

TEST(FaultTolerance, ReportBitIdenticalAcrossWorkerCounts)
{
    // The satellite guarantee: 1, 2 and 8 replay workers produce the
    // same report bit for bit — including under degradation, so a
    // farm's numbers do not depend on its parallelism.
    Design d = makeDut();
    std::vector<EnergyReport> reports;
    for (unsigned workers : {1u, 2u, 8u}) {
        EnergySimulator::Config cfg = standardConfig();
        cfg.parallelReplays = workers;
        auto es = runStandard(d, cfg);
        auto snaps = es->sampler().mutableSnapshots();
        ASSERT_GE(snaps.size(), 3u);
        inject::perturbOutputToken(*snaps[1], faultSeed());
        reports.push_back(es->estimate());
    }
    EXPECT_TRUE(reports[0].degraded);
    expectReportsBitIdentical(reports[0], reports[1]);
    expectReportsBitIdentical(reports[0], reports[2]);
}

TEST(FaultTolerance, FaultFreeRunIsUnaffectedByToleranceMachinery)
{
    // Zero injected faults: the hardened pipeline must produce exactly
    // the report the simple pipeline would have — retries, watchdogs and
    // quarantine accounting must be invisible on the happy path.
    Design d = makeDut();
    EnergySimulator::Config plain = standardConfig();
    plain.retryFaultySnapshots = false;
    EnergySimulator::Config hardened = standardConfig();
    hardened.retryFaultySnapshots = true;
    hardened.replayTimeoutCycles = 1u << 20;
    hardened.maxDroppedSnapshots = 0;
    hardened.minSurvivingSamples = 5;

    auto esPlain = runStandard(d, plain);
    auto esHard = runStandard(d, hardened);
    EnergyReport a = esPlain->estimate();
    EnergyReport b = esHard->estimate();
    EXPECT_FALSE(a.degraded);
    EXPECT_TRUE(a.valid);
    EXPECT_EQ(a.droppedSnapshots, 0u);
    EXPECT_TRUE(a.statusMessage.empty());
    expectReportsBitIdentical(a, b);
    for (const SnapshotOutcome &oc : a.outcomes) {
        EXPECT_TRUE(oc.replayed());
        EXPECT_EQ(oc.attempts, 1u);
    }
}

TEST(FaultTolerance, ShortRunReportsConditionInsteadOfGarbageCI)
{
    // population = floor(cycles / L) truncates to zero for a run
    // shorter than one replay interval; the old code divided through
    // anyway. Now the condition is reported.
    Design d = makeDut();
    EnergySimulator::Config cfg = standardConfig();
    cfg.replayLength = 128;
    auto es = runStandard(d, cfg, 100); // 100 < L = 128
    EnergyReport report = es->estimate();
    EXPECT_FALSE(report.valid);
    EXPECT_TRUE(report.degraded);
    EXPECT_NE(report.statusMessage.find("shorter than one replay"),
              std::string::npos);
    EXPECT_EQ(report.population, 0u);
    EXPECT_EQ(report.droppedSnapshots, 0u);

    // Boundary: exactly one interval is an estimate over one snapshot —
    // a mean exists but no variance, so the report is still invalid.
    EnergySimulator::Config cfg1 = standardConfig();
    cfg1.replayLength = 128;
    auto es1 = runStandard(d, cfg1, 128);
    EnergyReport r1 = es1->estimate();
    EXPECT_EQ(r1.population, 1u);
    EXPECT_FALSE(r1.valid);
    EXPECT_GT(r1.averagePower.mean, 0.0);
    EXPECT_NE(r1.statusMessage.find("floor"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Cache poisoning: the content-addressed result store (src/farm)
// ---------------------------------------------------------------------------

TEST_F(FarmFixture, PoisonedCacheEntryDegradesToMissNeverQuarantine)
{
    Design d = makeDut();
    std::string cacheDir = (dir / "cache").string();

    EnergyReport cold;
    {
        farm::CachingReplayExecutor exec(cacheDir);
        EnergySimulator::Config cfg = standardConfig();
        cfg.replayExecutor = &exec;
        auto es = runStandard(d, cfg);
        cold = es->estimate();
        ASSERT_FALSE(cold.degraded);
        ASSERT_GE(cold.snapshots, 3u);
        ASSERT_EQ(exec.cache().entryCount(), cold.snapshots);
    }

    for (inject::FileFault kind : {inject::FileFault::BitFlip,
                                   inject::FileFault::Truncate,
                                   inject::FileFault::HeaderGarbage}) {
        auto victim =
            inject::corruptOneFileIn(cacheDir, ".strbres", kind,
                                     faultSeed());
        ASSERT_TRUE(victim.isOk()) << victim.status().toString();

        farm::CachingReplayExecutor exec(cacheDir);
        EnergySimulator::Config cfg = standardConfig();
        cfg.replayExecutor = &exec;
        auto es = runStandard(d, cfg);
        EnergyReport warm = es->estimate();
        // Whatever the fault did to the entry, it costs exactly one
        // recompute — never a wrong number, never a quarantine.
        EXPECT_EQ(exec.replaysExecuted(), 1u)
            << inject::fileFaultName(kind);
        EXPECT_EQ(exec.cacheStats().corruptEntries, 1u)
            << inject::fileFaultName(kind);
        EXPECT_EQ(warm.cacheMisses, 1u);
        EXPECT_EQ(warm.cacheHits, warm.snapshots - 1);
        EXPECT_EQ(warm.droppedSnapshots, 0u);
        EXPECT_FALSE(warm.degraded);
        expectReportsBitIdentical(cold, warm);
        // The recompute healed the store for the next round.
        EXPECT_EQ(exec.cache().entryCount(), cold.snapshots)
            << inject::fileFaultName(kind);
    }
}

TEST_F(FarmFixture, PoisonedManifestIsRejectedAsCorrupt)
{
    // The work queue never trusts torn bytes: any fault class applied to
    // a shard manifest surfaces as ErrorCode::Corrupt, and the farm
    // replans instead of replaying against a garbage queue.
    farm::ShardManifest m;
    m.shard = 0;
    m.shards = 1;
    m.population = 156;
    m.sampleCount = 1;
    m.coreName = "dut";
    m.workloadName = "noise";
    m.mirrorFrom(standardConfig());
    farm::ManifestEntry e;
    e.snapshotFile = "snap_00000.strb";
    m.entries.push_back(e);
    std::string path = (dir / farm::shardManifestName(0)).string();

    for (inject::FileFault kind : {inject::FileFault::BitFlip,
                                   inject::FileFault::Truncate,
                                   inject::FileFault::HeaderGarbage}) {
        ASSERT_TRUE(farm::writeManifestFile(path, m).isOk());
        auto victim = inject::corruptOneFileIn(dir.string(), ".strbfarm",
                                               kind, faultSeed());
        ASSERT_TRUE(victim.isOk()) << victim.status().toString();
        EXPECT_EQ(*victim, path);
        auto r = farm::readManifestFile(path, true);
        ASSERT_FALSE(r.isOk()) << inject::fileFaultName(kind);
        EXPECT_EQ(r.status().code(), util::ErrorCode::Corrupt)
            << inject::fileFaultName(kind) << ": "
            << r.status().toString();
    }
}

TEST(Injector, SameSeedSameFault)
{
    Design d = makeDut();
    auto es = runStandard(d, standardConfig());
    auto snaps = es->sampler().snapshots();
    ASSERT_GE(snaps.size(), 1u);
    std::stringstream buf;
    ASSERT_TRUE(fame::writeSnapshot(buf, es->sampler().chains(),
                                    *snaps[0])
                    .isOk());
    std::string bytes = buf.str();

    for (inject::FileFault kind : {inject::FileFault::BitFlip,
                                   inject::FileFault::Truncate,
                                   inject::FileFault::HeaderGarbage}) {
        std::string a = inject::corruptBytes(bytes, kind, faultSeed());
        std::string b = inject::corruptBytes(bytes, kind, faultSeed());
        EXPECT_EQ(a, b) << inject::fileFaultName(kind);
        EXPECT_NE(a, bytes) << inject::fileFaultName(kind);
    }

    std::vector<uint64_t> w1{0, 0, 0}, w2{0, 0, 0};
    uint64_t b1 = inject::flipBitstreamBit(w1, 170, faultSeed());
    uint64_t b2 = inject::flipBitstreamBit(w2, 170, faultSeed());
    EXPECT_EQ(b1, b2);
    EXPECT_LT(b1, 170u);
    EXPECT_EQ(w1, w2);
}

} // namespace
} // namespace core
} // namespace strober
