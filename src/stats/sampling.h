/**
 * @file
 * Survey-sampling statistics (paper Section III-A, Table I) and reservoir
 * sampling (Vitter's algorithm R, paper Section III-B).
 *
 * The estimators implement simple random sampling *without replacement*
 * from a finite population of size N:
 *
 *   sample mean        x̄ = Σxᵢ / n                        (paper Eq. 3)
 *   sample variance    s²ₓ = Σ(xᵢ - x̄)² / (n - 1)          (paper Eq. 4)
 *   population var.    σ² ≈ (N-1)·s²ₓ / N                  (paper Eq. 5)
 *   sampling variance  Var(x̄) ≈ s²ₓ(N - n) / (N·n)         (paper Eq. 6)
 *   CI                 x̄ ± z₁₋ₐ/₂ · √Var(x̄)                (paper Eq. 7)
 *   min sample size    n ≥ max(z²s²ₓ / (ε²x̄²), 30)         (paper Eq. 8)
 */

#ifndef STROBER_STATS_SAMPLING_H
#define STROBER_STATS_SAMPLING_H

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "stats/rng.h"
#include "util/logging.h"

namespace strober {
namespace stats {

/** Quantile of the standard normal distribution (inverse Φ). */
double normalQuantile(double p);

/** z value for a two-sided confidence level, e.g. 0.99 -> z ≈ 2.576. */
double zForConfidence(double confidence);

/** Point estimate plus a symmetric confidence interval. */
struct Estimate
{
    double mean = 0.0;          //!< x̄
    double halfWidth = 0.0;     //!< z·√Var(x̄)
    double confidence = 0.0;    //!< 1 - α

    double lower() const { return mean - halfWidth; }
    double upper() const { return mean + halfWidth; }
    /** Half width as a fraction of the mean (0 when mean == 0). */
    double relativeError() const
    {
        return mean == 0.0 ? 0.0 : halfWidth / mean;
    }
};

/**
 * Estimators over one sample drawn without replacement from a finite
 * population. Population size N may be unknown while measurements are
 * accumulated and supplied at estimation time.
 */
class SampleStats
{
  public:
    /** Add one measured element xᵢ. */
    void add(double x) { values.push_back(x); }

    size_t size() const { return values.size(); }
    const std::vector<double> &data() const { return values; }

    /** Sample mean x̄ (Eq. 3). Requires at least one element. */
    double mean() const;

    /** Unbiased sample variance s²ₓ (Eq. 4). Requires n >= 2. */
    double sampleVariance() const;

    /** Population variance estimate (Eq. 5) for population size N. */
    double populationVariance(uint64_t populationSize) const;

    /**
     * Sampling variance Var(x̄) with finite-population correction (Eq. 6).
     * @param populationSize N; must be >= sample size.
     */
    double samplingVariance(uint64_t populationSize) const;

    /**
     * Confidence interval for the population mean (Eq. 7).
     * @param confidence two-sided confidence level, e.g. 0.99.
     * @param populationSize N for the finite-population correction.
     */
    Estimate estimate(double confidence, uint64_t populationSize) const;

    /**
     * Minimum sample size (Eq. 8) so that the relative error of the mean
     * estimate is below @p epsilon at the given confidence level. Uses
     * this sample's x̄ and s²ₓ as plug-in values; always at least 30.
     */
    uint64_t minimumSampleSize(double confidence, double epsilon) const;

  private:
    std::vector<double> values;
};

/**
 * Adaptive-termination rule (EnergySimulator::Config::ciBound), shared
 * by the in-process replay engine and the farm stream feed: true once
 * @p samples holds at least max(min(30, @p reservoirSize), 2) values
 * (the Eq. 8 n >= 30 floor), @p populationSize covers them, the mean is
 * positive and the estimate's relativeError() is below @p bound. A
 * bound <= 0 never stops.
 */
bool ciBoundMet(const SampleStats &samples, double bound, double confidence,
                uint64_t populationSize, size_t reservoirSize);

/**
 * Reservoir sampling (Vitter's algorithm R): maintains a uniform random
 * sample of size n over a stream whose total length is unknown a priori.
 * Element k (1-based) replaces a random reservoir slot with probability
 * n/k, so the expected number of record events up to N elements is
 * n + n·(H_N - H_n) ≈ n·(1 + ln(N/n)) — i.e. recording becomes rare as the
 * stream grows, which is why sampling overhead vanishes for long runs
 * (paper Table III).
 */
template <typename T>
class ReservoirSampler
{
  public:
    ReservoirSampler(size_t sampleSize, uint64_t seed = 0x5eed5eedULL)
        : n(sampleSize), rng(seed)
    {
        if (n == 0)
            fatal("reservoir sample size must be positive");
    }

    /**
     * Offer the next stream element. @return the reservoir slot it was
     * recorded into, or -1 if it was skipped. The caller only pays the
     * cost of materializing T when a slot index is returned, matching the
     * paper's "read the snapshot out only when recorded" optimization.
     */
    long offer()
    {
        ++seen;
        if (reservoir.size() < n) {
            reservoir.emplace_back();
            ++records;
            return static_cast<long>(reservoir.size() - 1);
        }
        uint64_t j = rng.nextBounded(seen);
        if (j < n) {
            ++records;
            return static_cast<long>(j);
        }
        return -1;
    }

    /** Store @p value into @p slot (as returned by offer()). */
    void record(long slot, T value)
    {
        reservoir.at(static_cast<size_t>(slot)) = std::move(value);
    }

    /** Number of stream elements offered so far. */
    uint64_t elementsSeen() const { return seen; }

    /** Number of record events so far (paper Table III "Record Counts"). */
    uint64_t recordCount() const { return records; }

    const std::vector<T> &sample() const { return reservoir; }
    std::vector<T> &sample() { return reservoir; }

    /** Expected record count for a stream of @p streamLen elements. */
    static double
    expectedRecords(size_t sampleSize, uint64_t streamLen)
    {
        if (streamLen <= sampleSize)
            return static_cast<double>(streamLen);
        double sum = static_cast<double>(sampleSize);
        // n * (H_N - H_n), via log for large streams.
        sum += static_cast<double>(sampleSize) *
               (std::log(static_cast<double>(streamLen)) -
                std::log(static_cast<double>(sampleSize)));
        return sum;
    }

  private:
    size_t n;
    Rng rng;
    uint64_t seen = 0;
    uint64_t records = 0;
    std::vector<T> reservoir;
};

} // namespace stats
} // namespace strober

#endif // STROBER_STATS_SAMPLING_H
