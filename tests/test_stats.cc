/**
 * @file
 * Unit and property tests for the sampling statistics (paper Section
 * III-A) and reservoir sampling (Section III-B).
 */

#include <algorithm>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "stats/rng.h"
#include "stats/sampling.h"

namespace strober {
namespace stats {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.nextBounded(13), 13u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(9);
    double sum = 0;
    for (int i = 0; i < 20000; ++i) {
        double d = r.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng r(11);
    double sum = 0, sq = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        double g = r.nextGaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(NormalQuantile, KnownValues)
{
    EXPECT_NEAR(normalQuantile(0.5), 0.0, 1e-9);
    EXPECT_NEAR(normalQuantile(0.975), 1.959963985, 1e-6);
    EXPECT_NEAR(normalQuantile(0.995), 2.575829304, 1e-6);
    EXPECT_NEAR(normalQuantile(0.9995), 3.290526731, 1e-6);
    EXPECT_NEAR(normalQuantile(0.025), -1.959963985, 1e-6);
}

TEST(NormalQuantile, Symmetry)
{
    for (double p : {0.01, 0.1, 0.3, 0.45}) {
        EXPECT_NEAR(normalQuantile(p), -normalQuantile(1 - p), 1e-9)
            << "p = " << p;
    }
}

TEST(NormalQuantile, ZForConfidence)
{
    EXPECT_NEAR(zForConfidence(0.95), 1.959963985, 1e-6);
    EXPECT_NEAR(zForConfidence(0.99), 2.575829304, 1e-6);
    EXPECT_NEAR(zForConfidence(0.999), 3.290526731, 1e-6);
}

TEST(NormalQuantileDeath, RejectsOutOfRange)
{
    EXPECT_EXIT(normalQuantile(0.0), ::testing::ExitedWithCode(1), "fatal");
    EXPECT_EXIT(normalQuantile(1.0), ::testing::ExitedWithCode(1), "fatal");
}

TEST(SampleStats, MeanAndVarianceExact)
{
    SampleStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Σ(x-5)² = 32 over n-1 = 7.
    EXPECT_NEAR(s.sampleVariance(), 32.0 / 7.0, 1e-12);
}

TEST(SampleStats, FullCensusHasZeroSamplingVariance)
{
    SampleStats s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    // n == N: the finite-population correction kills the variance.
    EXPECT_DOUBLE_EQ(s.samplingVariance(4), 0.0);
    Estimate e = s.estimate(0.99, 4);
    EXPECT_DOUBLE_EQ(e.halfWidth, 0.0);
    EXPECT_DOUBLE_EQ(e.mean, 2.5);
}

TEST(SampleStats, PopulationVarianceScaling)
{
    SampleStats s;
    for (double v : {1.0, 3.0})
        s.add(v);
    // s²ₓ = 2; σ² ≈ (N-1)/N · 2.
    EXPECT_NEAR(s.populationVariance(100), 0.99 * 2.0, 1e-12);
}

TEST(SampleStats, MinimumSampleSizeFloor30)
{
    SampleStats s;
    // Nearly constant measurements: Eq. 8 would say n ~ 1, floor is 30.
    for (int i = 0; i < 10; ++i)
        s.add(100.0 + (i % 2) * 0.001);
    EXPECT_EQ(s.minimumSampleSize(0.99, 0.05), 30u);
}

TEST(SampleStats, MinimumSampleSizeGrowsWithVariance)
{
    SampleStats lo, hi;
    Rng r(3);
    for (int i = 0; i < 200; ++i) {
        lo.add(100.0 + r.nextGaussian());
        hi.add(100.0 + 20.0 * r.nextGaussian());
    }
    EXPECT_GT(hi.minimumSampleSize(0.99, 0.01),
              lo.minimumSampleSize(0.99, 0.01));
}

/**
 * Property (the paper's confidence-interval claim): sampling n elements
 * without replacement from a finite population and building a 99% CI
 * must cover the true population mean in roughly 99% of repetitions.
 */
TEST(SampleStats, ConfidenceIntervalCoverage)
{
    Rng r(42);
    const size_t N = 2000;
    std::vector<double> population(N);
    for (double &v : population)
        v = 50.0 + 10.0 * r.nextGaussian();
    double trueMean =
        std::accumulate(population.begin(), population.end(), 0.0) / N;

    const int reps = 400;
    const size_t n = 50;
    int covered = 0;
    for (int rep = 0; rep < reps; ++rep) {
        // Partial Fisher-Yates: a uniform n-subset without replacement.
        std::vector<double> pop = population;
        SampleStats s;
        for (size_t i = 0; i < n; ++i) {
            size_t j = i + r.nextBounded(N - i);
            std::swap(pop[i], pop[j]);
            s.add(pop[i]);
        }
        Estimate e = s.estimate(0.99, N);
        if (trueMean >= e.lower() && trueMean <= e.upper())
            ++covered;
    }
    // 99% nominal; allow slack for the normal approximation + 400 reps.
    EXPECT_GE(covered, static_cast<int>(reps * 0.96));
}

TEST(Estimate, RelativeError)
{
    Estimate e;
    e.mean = 200.0;
    e.halfWidth = 5.0;
    EXPECT_DOUBLE_EQ(e.relativeError(), 0.025);
    EXPECT_DOUBLE_EQ(e.lower(), 195.0);
    EXPECT_DOUBLE_EQ(e.upper(), 205.0);
}

TEST(Reservoir, KeepsEverythingWhenStreamShort)
{
    ReservoirSampler<int> rs(10, 1);
    for (int i = 0; i < 5; ++i) {
        long slot = rs.offer();
        ASSERT_GE(slot, 0);
        rs.record(slot, i);
    }
    EXPECT_EQ(rs.sample().size(), 5u);
    EXPECT_EQ(rs.recordCount(), 5u);
    EXPECT_EQ(rs.elementsSeen(), 5u);
}

TEST(Reservoir, SampleSizeCapped)
{
    ReservoirSampler<int> rs(16, 2);
    for (int i = 0; i < 1000; ++i) {
        long slot = rs.offer();
        if (slot >= 0)
            rs.record(slot, i);
    }
    EXPECT_EQ(rs.sample().size(), 16u);
    EXPECT_EQ(rs.elementsSeen(), 1000u);
}

/**
 * Property: element k > n is recorded with probability n/k, so the total
 * record count concentrates near n(1 + ln(N/n)) (paper Section IV-E uses
 * 2·n·ln(N/(nL)) for its *snapshot read-out* variant; the core reservoir
 * law is the harmonic sum tested here).
 */
TEST(Reservoir, RecordCountMatchesTheory)
{
    const size_t n = 30;
    const uint64_t N = 200000;
    double expect = ReservoirSampler<int>::expectedRecords(n, N);
    double total = 0;
    const int reps = 20;
    for (int rep = 0; rep < reps; ++rep) {
        ReservoirSampler<int> rs(n, 1000 + rep);
        for (uint64_t i = 0; i < N; ++i) {
            long slot = rs.offer();
            if (slot >= 0)
                rs.record(slot, 0);
        }
        total += static_cast<double>(rs.recordCount());
    }
    double meanRecords = total / reps;
    EXPECT_NEAR(meanRecords, expect, expect * 0.15);
}

/** Property: every stream position is equally likely to be in the sample. */
TEST(Reservoir, UniformSelection)
{
    const size_t n = 10;
    const int N = 100;
    const int reps = 20000;
    std::vector<int> hits(N, 0);
    for (int rep = 0; rep < reps; ++rep) {
        ReservoirSampler<int> rs(n, 7000 + rep);
        for (int i = 0; i < N; ++i) {
            long slot = rs.offer();
            if (slot >= 0)
                rs.record(slot, i);
        }
        for (int v : rs.sample())
            ++hits[v];
    }
    double expected = static_cast<double>(reps) * n / N; // 2000 per slot
    for (int i = 0; i < N; ++i) {
        EXPECT_NEAR(hits[i], expected, expected * 0.12)
            << "stream position " << i;
    }
}

TEST(ReservoirDeath, ZeroSampleSizeRejected)
{
    EXPECT_EXIT(ReservoirSampler<int>(0), ::testing::ExitedWithCode(1),
                "fatal");
}

TEST(CiBound, RuleBoundaries)
{
    SampleStats s;
    for (int i = 0; i < 10; ++i)
        s.add(1.0 + 0.01 * i);
    const double conf = 0.99;
    const uint64_t pop = 1000;
    EXPECT_TRUE(ciBoundMet(s, 1.0, conf, pop, 10));

    // n one below the floor max(min(30, reservoir), 2).
    EXPECT_FALSE(ciBoundMet(s, 1.0, conf, pop, 11));
    SampleStats one;
    one.add(1.0);
    EXPECT_FALSE(ciBoundMet(one, 1.0, conf, pop, 1));

    // The population must cover the sample.
    EXPECT_FALSE(ciBoundMet(s, 1.0, conf, 9, 10));
    EXPECT_TRUE(ciBoundMet(s, 1.0, conf, 10, 10));

    // A zero mean never stops, whatever its (zero) relative error.
    SampleStats zero;
    for (int i = 0; i < 10; ++i)
        zero.add(i % 2 ? 1.0 : -1.0);
    EXPECT_FALSE(ciBoundMet(zero, 1.0, conf, pop, 10));

    // The relative error must be strictly under the bound.
    double rel = s.estimate(conf, pop).relativeError();
    ASSERT_GT(rel, 0.0);
    EXPECT_FALSE(ciBoundMet(s, rel, conf, pop, 10));
    EXPECT_TRUE(ciBoundMet(s, std::nextafter(rel, 1.0), conf, pop, 10));

    // A non-positive bound disables the rule.
    EXPECT_FALSE(ciBoundMet(s, 0.0, conf, pop, 10));
}

} // namespace
} // namespace stats
} // namespace strober
