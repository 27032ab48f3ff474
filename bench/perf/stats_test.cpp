#include "stats.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace sccft::perf {
namespace {

TEST(PerfStats, MedianOfOddAndEvenSamples) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(PerfStats, MadIsTheMedianDistanceFromTheMedian) {
  // Median 3; deviations 2, 1, 0, 1, 97 -> median deviation 1.
  EXPECT_DOUBLE_EQ(mad({1.0, 2.0, 3.0, 4.0, 100.0}), 1.0);
  EXPECT_DOUBLE_EQ(mad({5.0, 5.0, 5.0}), 0.0);
}

TEST(PerfStats, PercentileInterpolatesBetweenRanks) {
  const std::vector<double> values{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(values, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(values, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(values, 90.0), 46.0);
}

TEST(PerfStats, TailPercentileKeepsTenSamplesBeyond) {
  // Under 20 samples not even the median has ten beyond it: report p50.
  EXPECT_DOUBLE_EQ(tail_percentile(0), 50.0);
  EXPECT_DOUBLE_EQ(tail_percentile(19), 50.0);
  EXPECT_DOUBLE_EQ(tail_percentile(99), 50.0);
  EXPECT_DOUBLE_EQ(tail_percentile(100), 90.0);
  EXPECT_DOUBLE_EQ(tail_percentile(999), 90.0);
  EXPECT_DOUBLE_EQ(tail_percentile(1000), 99.0);
  EXPECT_NEAR(tail_percentile(10800), 99.9, 1e-9);
  EXPECT_DOUBLE_EQ(tail_percentile(9000), 99.0);
}

}  // namespace
}  // namespace sccft::perf
