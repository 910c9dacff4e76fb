/**
 * @file
 * Table IV + Figure 8 (paper Section V-D): power validation. Each of the
 * six microbenchmarks runs to completion on a full gate-level simulation
 * of the in-order SoC to obtain the exact ("true") average power. Then,
 * five independent samplings of 30 random 128-cycle snapshots are taken
 * from the fast simulation and replayed at gate level; for each we
 * report the theoretical 99% error bound (from the CI) next to the
 * actual error against ground truth, plus the Table-IV coverage numbers.
 */

#include <cmath>
#include <cstdio>
#include <utility>

#include "bench_common.h"
#include "core/harness.h"
#include "stats/sampling.h"

using namespace strober;

int
main()
{
    bench::banner("Table IV + Figure 8: power validation (rocket, "
                  "n=30, L=128, 99% confidence)");
    rtl::Design soc = cores::buildSoc(cores::SocConfig::rocket());

    // One EnergySimulator per seed would re-synthesize; share the ASIC
    // flow by reusing a single instance and re-arming sampling.
    core::EnergySimulator::Config cfg;
    cfg.sampleSize = 30;
    cfg.replayLength = 128;
    cfg.confidence = 0.99;
    core::EnergySimulator strober(soc, cfg);
    strober.synthesis(); // build the ASIC flow once up front

    std::printf("%-10s %12s %9s %10s | per-sampling: bound%% / actual%%\n",
                "benchmark", "cycles", "replayed", "coverage");

    int outsideBound = 0, totalRuns = 0;
    double worstError = 0;
    for (const workloads::Workload &wl : workloads::microbenchmarks()) {
        // Ground truth: full gate-level run of the entire benchmark.
        cores::SocDriver truthDriver(soc, wl.program);
        // value(): a zero-cycle truth run is a bench bug and panics.
        core::GroundTruth truth = std::move(
            core::measureGroundTruth(strober, truthDriver, wl.maxCycles)
                .value());
        if (!truthDriver.done())
            fatal("%s did not finish at gate level", wl.name.c_str());
        double trueWatts = truth.power.totalWatts();
        uint64_t cycles = truth.cycles;

        uint64_t replayed = 30ull * cfg.replayLength;
        std::printf("%-10s %12llu %9llu %9.2f%% |", wl.name.c_str(),
                    (unsigned long long)cycles,
                    (unsigned long long)replayed,
                    100.0 * static_cast<double>(replayed) /
                        static_cast<double>(cycles));

        // Five independent samplings (paper Figure 8 repeats 5x).
        for (int rep = 0; rep < 5; ++rep) {
            cfg.seed = 0x1000 + 77 * rep;
            core::EnergySimulator est(soc, cfg);
            bench::runFastPhase(est, soc, wl);
            core::EnergyReport report = est.estimate();
            if (report.replayMismatches != 0)
                fatal("replay verification failed for %s",
                      wl.name.c_str());
            double bound = report.averagePower.relativeError();
            double actual =
                std::abs(report.averagePower.mean - trueWatts) /
                trueWatts;
            std::printf(" %.2f/%.2f", bound * 100, actual * 100);
            ++totalRuns;
            if (actual > bound)
                ++outsideBound;
            worstError = std::max(worstError, actual);
        }
        std::printf("\n");
    }

    std::printf("\n%d of %d samplings fell outside their 99%% bound "
                "(paper: 2 of 30, expected probabilistically); worst "
                "actual error %.2f%% (paper: all < 2%%, bound < 3%%)\n",
                outsideBound, totalRuns, worstError * 100);
    std::printf("paper Table IV coverage: 0.21%%-2.05%% of cycles "
                "replayed; errors independent of execution length.\n");

    // ------------------------------------------------------------------
    // Coverage at scale (the abstract's guarantee): many independent
    // samplings of one workload; the 99% and 99.9% intervals must cover
    // the gate-level truth at (at least) their nominal rates.
    // ------------------------------------------------------------------
    bench::banner("CI coverage at scale (towers, 30 independent "
                  "samplings)");
    workloads::Workload tw = workloads::towers();
    cores::SocDriver truthDriver(soc, tw.program);
    double trueWatts =
        core::measureGroundTruth(strober, truthDriver, tw.maxCycles)
            ->power.totalWatts();

    int cover99 = 0, cover999 = 0;
    const int reps = 30;
    for (int rep = 0; rep < reps; ++rep) {
        cfg.seed = 0xc0ffee + 131 * rep;
        cfg.confidence = 0.99;
        core::EnergySimulator est(soc, cfg);
        bench::runFastPhase(est, soc, tw);
        core::EnergyReport r99 = est.estimate();
        double err = std::abs(r99.averagePower.mean - trueWatts);
        if (err <= r99.averagePower.halfWidth)
            ++cover99;
        // Same sample, wider interval for 99.9%.
        double z999 = stats::zForConfidence(0.999) /
                      stats::zForConfidence(0.99);
        if (err <= r99.averagePower.halfWidth * z999)
            ++cover999;
    }
    std::printf("99%%   CI covered the truth in %d/%d samplings\n",
                cover99, reps);
    std::printf("99.9%% CI covered the truth in %d/%d samplings "
                "(the abstract's 'within bound with 99%%+ confidence' "
                "guarantee)\n",
                cover999, reps);
    return 0;
}
