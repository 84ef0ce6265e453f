/** @file Unit tests for the histogram. */

#include <gtest/gtest.h>

#include "sim/stats.hh"

namespace texdist
{
namespace
{

TEST(Histogram, EmptyStats)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.stddev(), 0.0);
    EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, BasicMoments)
{
    Histogram h(1.0, 16);
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        h.add(v);
    EXPECT_EQ(h.count(), 8u);
    EXPECT_DOUBLE_EQ(h.sum(), 40.0);
    EXPECT_DOUBLE_EQ(h.mean(), 5.0);
    EXPECT_DOUBLE_EQ(h.minValue(), 2.0);
    EXPECT_DOUBLE_EQ(h.maxValue(), 9.0);
    // Sample stddev of the set is ~2.14.
    EXPECT_NEAR(h.stddev(), 2.14, 0.01);
}

TEST(Histogram, QuantileWithinBucketResolution)
{
    Histogram h(1.0, 128);
    for (int i = 0; i < 100; ++i)
        h.add(double(i));
    EXPECT_NEAR(h.quantile(0.5), 50.0, 1.0);
    EXPECT_NEAR(h.quantile(0.95), 95.0, 1.0);
    EXPECT_NEAR(h.quantile(0.0), 0.5, 1.0);
    EXPECT_NEAR(h.quantile(1.0), 99.5, 1.0);
}

TEST(Histogram, OverflowSamplesCounted)
{
    Histogram h(1.0, 4);
    h.add(100.0);
    h.add(1.0);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_DOUBLE_EQ(h.maxValue(), 100.0);
    // The overflow sample reports max for extreme quantiles.
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST(Histogram, ResetClearsEverything)
{
    Histogram h(2.0, 8);
    h.add(3.0);
    h.add(5.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    h.add(4.0);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
}

} // namespace
} // namespace texdist
