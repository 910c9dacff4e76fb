/**
 * @file
 * Tests for the end-to-end Strober flow (EnergySimulator), the target
 * harnesses, and the Section IV-E analytic performance model.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "core/energy_sim.h"
#include "core/harness.h"
#include "core/perf_model.h"
#include "rtl/builder.h"
#include "stats/rng.h"

namespace strober {
namespace core {
namespace {

using rtl::Builder;
using rtl::Design;
using rtl::MemHandle;
using rtl::Scope;
using rtl::Signal;

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

/** Feeds a deterministic pseudo-random stimulus for a fixed cycle count. */
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

TEST(Harness, RtlAndGateAgreeUnderSameDriver)
{
    Design d = makeDut();
    gate::SynthesisResult synth = gate::synthesize(d);

    RtlHarness rtl(d);
    GateHarness gsim(synth.netlist);
    NoiseDriver d1(5, 300), d2(5, 300);
    runLoop(rtl, d1, 1000);
    runLoop(gsim, d2, 1000);
    EXPECT_EQ(rtl.cycles(), 300u);
    EXPECT_EQ(gsim.cycles(), 300u);
    for (size_t o = 0; o < d.outputs().size(); ++o)
        EXPECT_EQ(rtl.getOutput(o), gsim.getOutput(o)) << "output " << o;
}

TEST(Harness, FameMatchesRtlCycleForCycle)
{
    Design d = makeDut();
    fame::Fame1Design fd = fame::fame1Transform(d);
    FameHarness fameH(fd, nullptr);
    RtlHarness rtlH(d);
    stats::Rng rng(9);
    for (int i = 0; i < 200; ++i) {
        uint64_t in = rng.nextBounded(256), wen = rng.nextBounded(2);
        fameH.setInput(0, in);
        fameH.setInput(1, wen);
        rtlH.setInput(0, in);
        rtlH.setInput(1, wen);
        fameH.clock();
        rtlH.clock();
        for (size_t o = 0; o < d.outputs().size(); ++o)
            ASSERT_EQ(fameH.getOutput(o), rtlH.getOutput(o))
                << "cycle " << i << " output " << o;
    }
}

TEST(EnergySimulator, EndToEndEstimateWithVerifiedReplays)
{
    Design d = makeDut();
    EnergySimulator::Config cfg;
    cfg.sampleSize = 20;
    cfg.replayLength = 64;
    cfg.confidence = 0.99;
    EnergySimulator es(d, cfg);

    NoiseDriver driver(42, 40'000);
    RunStats rs = es.run(driver, UINT64_MAX);
    EXPECT_EQ(rs.targetCycles, 40'000u);
    EXPECT_GT(rs.hostCycles, rs.targetCycles); // scan + service stalls
    EXPECT_EQ(rs.intervalsSeen, 40'000u / 64);
    EXPECT_GE(rs.recordCount, 20u);
    EXPECT_GT(rs.simulatedHz, 0.0);

    EnergyReport report = es.estimate();
    EXPECT_EQ(report.snapshots, 20u);
    EXPECT_EQ(report.replayMismatches, 0u);
    EXPECT_GT(report.averagePower.mean, 0.0);
    EXPECT_GT(report.averagePower.halfWidth, 0.0);
    EXPECT_LT(report.averagePower.relativeError(), 0.5);
    EXPECT_EQ(report.population, 40'000u / 64);
    EXPECT_FALSE(report.groups.empty());
    EXPECT_GT(report.modeledLoadSeconds, 0.0);

    // Group means must add up to the total mean.
    double groupSum = 0;
    for (const GroupEstimate &g : report.groups)
        groupSum += g.power.mean;
    EXPECT_NEAR(groupSum, report.averagePower.mean,
                report.averagePower.mean * 1e-9);
}

TEST(EnergySimulator, EstimateTracksGroundTruth)
{
    Design d = makeDut();
    EnergySimulator::Config cfg;
    cfg.sampleSize = 25;
    cfg.replayLength = 64;
    cfg.confidence = 0.99;
    EnergySimulator es(d, cfg);

    const uint64_t cycles = 20'000;
    NoiseDriver sampleDriver(7, cycles);
    es.run(sampleDriver, UINT64_MAX);
    EnergyReport report = es.estimate();

    NoiseDriver truthDriver(7, cycles);
    util::Result<GroundTruth> measured =
        measureGroundTruth(es, truthDriver, cycles);
    ASSERT_TRUE(measured.isOk()) << measured.status().toString();
    const power::PowerReport &truth = measured->power;

    double actualError = std::abs(report.averagePower.mean -
                                  truth.totalWatts()) /
                         truth.totalWatts();
    // The paper's validation: errors are small (<5%) and usually inside
    // the CI. Random stimulus is near-stationary, so 5% is generous.
    EXPECT_LT(actualError, 0.05)
        << "estimate " << report.averagePower.mean << " truth "
        << truth.totalWatts();
}

TEST(EnergySimulator, ZeroCycleGroundTruthIsAnErrorNotAnExit)
{
    Design d = makeDut();
    EnergySimulator es(d, EnergySimulator::Config{});
    NoiseDriver idle(7, 0); // done before the first cycle
    util::Result<GroundTruth> truth = measureGroundTruth(es, idle, 1000);
    ASSERT_FALSE(truth.isOk());
    EXPECT_EQ(truth.status().code(), util::ErrorCode::InvalidArgument);
}

TEST(EnergySimulator, ResetSamplingAllowsSecondWorkload)
{
    Design d = makeDut();
    EnergySimulator::Config cfg;
    cfg.sampleSize = 5;
    cfg.replayLength = 32;
    EnergySimulator es(d, cfg);

    NoiseDriver w1(1, 5'000);
    es.run(w1, UINT64_MAX);
    EnergyReport r1 = es.estimate();

    es.resetSampling();
    NoiseDriver w2(2, 5'000);
    RunStats rs2 = es.run(w2, UINT64_MAX);
    EXPECT_EQ(rs2.targetCycles, 5'000u);
    EnergyReport r2 = es.estimate();
    EXPECT_GT(r2.averagePower.mean, 0.0);
    EXPECT_EQ(r2.replayMismatches, 0u);
    (void)r1;
}

TEST(EnergySimulator, EstimateWithoutRunReportsInvalid)
{
    // Calling estimate() before any run used to abort the process; a
    // farm frontend aggregating many runs must instead get a report it
    // can inspect and skip.
    Design d = makeDut();
    EnergySimulator::Config cfg;
    EnergySimulator es(d, cfg);
    EnergyReport report = es.estimate();
    EXPECT_FALSE(report.valid);
    EXPECT_TRUE(report.degraded);
    EXPECT_NE(report.statusMessage.find("zero complete intervals"),
              std::string::npos);
    EXPECT_EQ(report.snapshots, 0u);
}

TEST(PerfModel, ReproducesPaperWorkedExample)
{
    PerfModelParams p; // defaults ARE the paper's example
    PerfModelResult r = evaluatePerfModel(p);

    // Paper Section IV-E: Trun = 27778 s, Tsample = 3592 s.
    EXPECT_NEAR(r.tRun, 27778, 1.0);
    EXPECT_NEAR(r.tSample, 3592, 5.0);
    EXPECT_NEAR(r.expectedRecords, 2763, 5.0);
    // Treplay = 100 * (3 + 1000/12 + 150) / 10 (the paper prints 2333).
    EXPECT_NEAR(r.tReplay, 2363, 2.0);
    // Overall lands near the paper's ~9.4 hours.
    EXPECT_GT(r.tOverall / 3600, 9.0);
    EXPECT_LT(r.tOverall / 3600, 11.0);
    // ~3.86 days of microarchitectural simulation.
    EXPECT_NEAR(r.tMicroarchSim / 86400, 3.86, 0.05);
    // ~264 years of gate-level simulation.
    EXPECT_NEAR(r.tGateLevelSim / (365.25 * 86400), 264, 5.0);
    // Four-plus orders of magnitude vs gate level.
    EXPECT_GT(r.speedupVsGateLevel, 1e5);
    EXPECT_GT(r.speedupVsMicroarch, 5.0);
}

TEST(PerfModel, SamplingOverheadShrinksRelativelyWithRunLength)
{
    PerfModelParams shortRun;
    shortRun.totalCycles = 1'000'000'000ull;
    PerfModelParams longRun;
    longRun.totalCycles = 1'000'000'000'000ull;
    PerfModelResult a = evaluatePerfModel(shortRun);
    PerfModelResult b = evaluatePerfModel(longRun);
    EXPECT_LT(b.tSample / b.tFpgaSim, a.tSample / a.tFpgaSim);
}

TEST(PerfModelDeath, RejectsZeroParams)
{
    PerfModelParams p;
    p.sampleSize = 0;
    EXPECT_EXIT(evaluatePerfModel(p), ::testing::ExitedWithCode(1),
                "positive");
}

} // namespace
} // namespace core
} // namespace strober
