/**
 * @file
 * Histograms of sampled simulation quantities: per-triangle pixel
 * counts on each node (checkpointed with it) and the feeder's FIFO
 * occupancy at dispatch. Their summaries reach the stats file
 * through the metric table in core/metrics.hh.
 */

#ifndef TEXDIST_SIM_STATS_HH
#define TEXDIST_SIM_STATS_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/checkpoint.hh"

namespace texdist
{

/**
 * A sampled distribution: running count, sum, min, max and mean plus
 * fixed-width buckets for percentile queries.
 */
class Histogram
{
  public:
    /**
     * @param bucket_width width of each bucket
     * @param num_buckets number of buckets; samples beyond the last
     *        bucket are accumulated in an overflow bucket
     */
    explicit Histogram(double bucket_width = 1.0,
                       size_t num_buckets = 64);

    void add(double sample);

    uint64_t count() const { return n; }
    double sum() const { return total; }
    double mean() const { return n ? total / double(n) : 0.0; }
    double minValue() const { return n ? lo : 0.0; }
    double maxValue() const { return n ? hi : 0.0; }

    /** Sample standard deviation (0 with fewer than 2 samples). */
    double stddev() const;

    /**
     * Approximate p-quantile (0 <= p <= 1) from the buckets; exact to
     * bucket resolution.
     */
    double quantile(double p) const;

    void reset();

    /** Serialize samples and buckets (checkpointing). */
    void serialize(CheckpointWriter &w) const;

    /** Restore a histogram with identical bucket configuration. */
    void unserialize(CheckpointReader &r);

  private:
    double bucketWidth;
    std::vector<uint64_t> buckets;
    uint64_t overflow = 0;
    uint64_t n = 0;
    double total = 0.0;
    double totalSq = 0.0;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
};

} // namespace texdist

#endif // TEXDIST_SIM_STATS_HH
