#include "sim/stats.hh"

#include <algorithm>
#include <cmath>

#include "core/error.hh"

namespace texdist
{

Histogram::Histogram(double bucket_width, size_t num_buckets)
    : bucketWidth(bucket_width), buckets(num_buckets, 0)
{
}

void
Histogram::add(double sample)
{
    ++n;
    total += sample;
    totalSq += sample * sample;
    lo = std::min(lo, sample);
    hi = std::max(hi, sample);

    if (sample < 0) {
        // Negative samples land in the first bucket; the histogram is
        // meant for non-negative quantities (latencies, occupancies).
        ++buckets.front();
        return;
    }
    size_t idx = size_t(sample / bucketWidth);
    if (idx >= buckets.size())
        ++overflow;
    else
        ++buckets[idx];
}

double
Histogram::stddev() const
{
    if (n < 2)
        return 0.0;
    double mu = mean();
    double var = (totalSq - double(n) * mu * mu) / double(n - 1);
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

double
Histogram::quantile(double p) const
{
    if (n == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    uint64_t target = uint64_t(std::ceil(p * double(n)));
    if (target == 0)
        target = 1;

    uint64_t seen = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
        seen += buckets[i];
        if (seen >= target)
            return (double(i) + 0.5) * bucketWidth;
    }
    return hi; // in the overflow bucket
}

void
Histogram::reset()
{
    std::fill(buckets.begin(), buckets.end(), 0);
    overflow = 0;
    n = 0;
    total = 0.0;
    totalSq = 0.0;
    lo = std::numeric_limits<double>::infinity();
    hi = -std::numeric_limits<double>::infinity();
}

void
Histogram::serialize(CheckpointWriter &w) const
{
    w.section("histogram");
    w.f64(bucketWidth);
    w.u64vec(buckets);
    w.u64(overflow);
    w.u64(n);
    w.f64(total);
    w.f64(totalSq);
    w.f64(lo);
    w.f64(hi);
}

void
Histogram::unserialize(CheckpointReader &r)
{
    r.section("histogram");
    double width = r.f64();
    std::vector<uint64_t> b = r.u64vec();
    if (width != bucketWidth || b.size() != buckets.size())
        throw ParseError(ParseSurface::Checkpoint,
                         ParseRule::Mismatch,
                         "histogram shape mismatch between "
                         "checkpoint and machine")
            .in(r.path())
            .field("histogram");
    buckets = std::move(b);
    overflow = r.u64();
    n = r.u64();
    total = r.f64();
    totalSq = r.f64();
    lo = r.f64();
    hi = r.f64();
}

} // namespace texdist
