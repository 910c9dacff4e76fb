#include "stats/sampling.h"

#include <algorithm>
#include <cmath>

namespace strober {
namespace stats {

double
normalQuantile(double p)
{
    if (p <= 0.0 || p >= 1.0)
        fatal("normalQuantile requires p in (0,1), got %g", p);

    // Acklam's rational approximation (relative error < 1.15e-9),
    // refined with one Halley step against erfc for ~1e-15 accuracy.
    static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                               -2.759285104469687e+02, 1.383577518672690e+02,
                               -3.066479806614716e+01, 2.506628277459239e+00};
    static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                               -1.556989798598866e+02, 6.680131188771972e+01,
                               -1.328068155288572e+01};
    static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                               -2.400758277161838e+00, -2.549732539343734e+00,
                               4.374664141464968e+00,  2.938163982698783e+00};
    static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                               2.445134137142996e+00, 3.754408661907416e+00};

    const double plow = 0.02425;
    const double phigh = 1 - plow;
    double q, r, x;

    if (p < plow) {
        q = std::sqrt(-2 * std::log(p));
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
    } else if (p <= phigh) {
        q = p - 0.5;
        r = q * q;
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
             a[5]) *
            q /
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
    } else {
        q = std::sqrt(-2 * std::log(1 - p));
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
              c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
    }

    // Halley refinement: Phi(x) - p via erfc.
    double e = 0.5 * std::erfc(-x / std::sqrt(2.0)) - p;
    double u = e * std::sqrt(2 * M_PI) * std::exp(x * x / 2);
    x = x - u / (1 + x * u / 2);
    return x;
}

double
zForConfidence(double confidence)
{
    if (confidence <= 0.0 || confidence >= 1.0)
        fatal("confidence level must be in (0,1), got %g", confidence);
    double alpha = 1.0 - confidence;
    return normalQuantile(1.0 - alpha / 2.0);
}

double
SampleStats::mean() const
{
    if (values.empty())
        fatal("mean of an empty sample");
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
SampleStats::sampleVariance() const
{
    if (values.size() < 2)
        fatal("sample variance needs n >= 2, have n = %zu", values.size());
    double m = mean();
    double ss = 0.0;
    for (double v : values)
        ss += (v - m) * (v - m);
    return ss / static_cast<double>(values.size() - 1);
}

double
SampleStats::populationVariance(uint64_t populationSize) const
{
    if (populationSize < 2)
        fatal("population variance needs N >= 2");
    double nD = static_cast<double>(populationSize);
    return (nD - 1.0) * sampleVariance() / nD;
}

double
SampleStats::samplingVariance(uint64_t populationSize) const
{
    uint64_t n = values.size();
    if (populationSize < n)
        fatal("population size %llu smaller than sample size %llu",
              (unsigned long long)populationSize, (unsigned long long)n);
    double nD = static_cast<double>(n);
    double bigN = static_cast<double>(populationSize);
    return sampleVariance() * (bigN - nD) / (bigN * nD);
}

Estimate
SampleStats::estimate(double confidence, uint64_t populationSize) const
{
    Estimate est;
    est.mean = mean();
    est.confidence = confidence;
    est.halfWidth =
        zForConfidence(confidence) * std::sqrt(samplingVariance(populationSize));
    return est;
}

uint64_t
SampleStats::minimumSampleSize(double confidence, double epsilon) const
{
    if (epsilon <= 0.0)
        fatal("epsilon must be positive");
    double z = zForConfidence(confidence);
    double m = mean();
    if (m == 0.0)
        fatal("minimum sample size undefined for zero mean");
    double n = (z * z * sampleVariance()) / (epsilon * epsilon * m * m);
    return std::max<uint64_t>(static_cast<uint64_t>(std::ceil(n)), 30);
}

bool
ciBoundMet(const SampleStats &samples, double bound, double confidence,
           uint64_t populationSize, size_t reservoirSize)
{
    // Eq. 8 floor: n >= 30 for the normal approximation to hold, clamped
    // to the reservoir so a small configured sample can still stop once
    // fully replayed, and never under the 2 a variance needs.
    size_t floorN = std::max<size_t>(std::min<size_t>(30, reservoirSize), 2);
    // The without-replacement CI needs the population to cover the
    // sample (Eq. 6's finite-population correction).
    if (bound <= 0 || samples.size() < floorN ||
        populationSize < samples.size())
        return false;
    Estimate est = samples.estimate(confidence, populationSize);
    return est.mean > 0 && est.relativeError() < bound;
}

} // namespace stats
} // namespace strober
