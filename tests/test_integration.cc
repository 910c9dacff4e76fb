/**
 * @file
 * Full-pipeline integration tests: the complete Strober flow
 * (FAME1 fast sim + reservoir sampling -> synthesis/placement/matching
 * -> gate-level replay with retiming warm-up -> power aggregation) on
 * the real processor SoCs running real workloads.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "core/energy_sim.h"
#include "cores/soc.h"
#include "cores/soc_driver.h"
#include "workloads/workloads.h"

namespace strober {
namespace {

TEST(Integration, RocketTowersEndToEnd)
{
    rtl::Design soc = cores::buildSoc(cores::SocConfig::rocket());
    workloads::Workload wl = workloads::towers();

    core::EnergySimulator::Config cfg;
    cfg.sampleSize = 12;
    cfg.replayLength = 64;
    cfg.confidence = 0.99;
    core::EnergySimulator strober(soc, cfg);

    cores::SocDriver driver(soc, wl.program);
    core::RunStats run = strober.run(driver, wl.maxCycles);
    EXPECT_TRUE(driver.done());
    EXPECT_EQ(driver.exitCode(), wl.expectedExit);
    EXPECT_GE(run.recordCount, cfg.sampleSize);

    // The rocket SoC contains the retime-annotated multiplier, so this
    // exercises the matching guide, the skipped-retimed loader path and
    // the warm-up forcing on every snapshot.
    const gate::MatchTable &table = strober.matchTable();
    EXPECT_GT(table.retimedRegs, 0u);
    EXPECT_TRUE(table.outputsEquivalent);

    core::EnergyReport rep = strober.estimate();
    EXPECT_EQ(rep.replayMismatches, 0u);
    EXPECT_EQ(rep.snapshots, cfg.sampleSize);
    EXPECT_GT(rep.averagePower.mean, 1e-4);  // at least 0.1 mW
    EXPECT_LT(rep.averagePower.mean, 1.0);   // below a watt
    EXPECT_GT(rep.groups.size(), 5u);

    // The breakdown must contain the classic units.
    bool sawIcache = false, sawDcacheArrays = false, sawMul = false;
    for (const core::GroupEstimate &g : rep.groups) {
        sawIcache |= g.group.rfind("icache", 0) == 0;
        sawDcacheArrays |= g.group.rfind("dcache/arrays", 0) == 0;
        sawMul |= g.group.find("mul") != std::string::npos;
    }
    EXPECT_TRUE(sawIcache);
    EXPECT_TRUE(sawDcacheArrays);
    EXPECT_TRUE(sawMul);
}

TEST(Integration, BoomOneWideEndToEnd)
{
    rtl::Design soc = cores::buildSoc(cores::SocConfig::boom1w());
    workloads::Workload wl = workloads::gccLike(2);

    core::EnergySimulator::Config cfg;
    cfg.sampleSize = 8;
    cfg.replayLength = 64;
    cfg.parallelReplays = 2;
    core::EnergySimulator strober(soc, cfg);

    cores::SocDriver driver(soc, wl.program);
    strober.run(driver, wl.maxCycles);
    EXPECT_TRUE(driver.done());
    EXPECT_EQ(driver.exitCode(), wl.expectedExit);

    core::EnergyReport rep = strober.estimate();
    EXPECT_EQ(rep.replayMismatches, 0u);
    EXPECT_GT(rep.averagePower.mean, 0.0);

    // OoO-only structures must appear in the breakdown.
    bool sawIssue = false, sawRob = false, sawRename = false;
    for (const core::GroupEstimate &g : rep.groups) {
        sawIssue |= g.group.rfind("core/issue", 0) == 0;
        sawRob |= g.group.rfind("core/rob", 0) == 0;
        sawRename |= g.group.rfind("core/rename", 0) == 0;
    }
    EXPECT_TRUE(sawIssue);
    EXPECT_TRUE(sawRob);
    EXPECT_TRUE(sawRename);
}

TEST(Integration, EstimateMatchesGroundTruthOnRocket)
{
    // A miniature Figure-8 point as a regression test: the estimate must
    // land within a loose factor of the exhaustive gate-level truth.
    rtl::Design soc = cores::buildSoc(cores::SocConfig::rocket());
    workloads::Workload wl = workloads::dhrystoneLike();

    core::EnergySimulator::Config cfg;
    cfg.sampleSize = 20;
    cfg.replayLength = 128;
    core::EnergySimulator strober(soc, cfg);

    cores::SocDriver sampleDriver(soc, wl.program);
    strober.run(sampleDriver, wl.maxCycles);
    core::EnergyReport rep = strober.estimate();
    ASSERT_EQ(rep.replayMismatches, 0u);

    cores::SocDriver truthDriver(soc, wl.program);
    util::Result<core::GroundTruth> measured =
        core::measureGroundTruth(strober, truthDriver, wl.maxCycles);
    ASSERT_TRUE(measured.isOk()) << measured.status().toString();
    const power::PowerReport &truth = measured->power;

    double err = std::abs(rep.averagePower.mean - truth.totalWatts()) /
                 truth.totalWatts();
    EXPECT_LT(err, 0.15) << "estimate " << rep.averagePower.mean
                         << " truth " << truth.totalWatts();
}

TEST(Integration, SnapshotsCoverDistinctProgramPhases)
{
    // Reservoir sampling must spread snapshots across the execution.
    rtl::Design soc = cores::buildSoc(cores::SocConfig::rocket());
    workloads::Workload wl = workloads::vvadd();

    core::EnergySimulator::Config cfg;
    cfg.sampleSize = 25;
    cfg.replayLength = 64;
    core::EnergySimulator strober(soc, cfg);
    cores::SocDriver driver(soc, wl.program);
    core::RunStats run = strober.run(driver, wl.maxCycles);

    auto snaps = strober.sampler().snapshots();
    ASSERT_EQ(snaps.size(), 25u);
    uint64_t third = run.targetCycles / 3;
    int early = 0, mid = 0, late = 0;
    for (const auto *s : snaps) {
        if (s->cycle() < third)
            ++early;
        else if (s->cycle() < 2 * third)
            ++mid;
        else
            ++late;
    }
    // Uniform-ish: every third of the run contributes snapshots.
    EXPECT_GT(early, 0);
    EXPECT_GT(mid, 0);
    EXPECT_GT(late, 0);
}

} // namespace
} // namespace strober
