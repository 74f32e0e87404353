// Median, quartiles, the nearest-rank percentile and the ">= 10 samples
// beyond" tail rule, plus failed_frac counting.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "stats.h"

namespace pb = perfbench;

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(pb::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(pb::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(pb::median({7.0}), 7.0);
  EXPECT_THROW(pb::median({}), std::invalid_argument);
}

// Reference values from Python: statistics.quantiles(xs, n=4).
TEST(Quartiles, MatchPythonExclusiveMethod) {
  const pb::Quartiles q = pb::quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);

  const pb::Quartiles r = pb::quartiles({10, 1, 7, 3});  // sorted: 1 3 7 10
  EXPECT_DOUBLE_EQ(r.q1, 1.5);
  EXPECT_DOUBLE_EQ(r.q2, 5.0);
  EXPECT_DOUBLE_EQ(r.q3, 9.25);

  // Two samples: Python extrapolates past both ends.
  const pb::Quartiles two = pb::quartiles({1, 2});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.q2, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);

  const pb::Quartiles one = pb::quartiles({4});
  EXPECT_DOUBLE_EQ(one.q1, 4.0);
  EXPECT_DOUBLE_EQ(one.q3, 4.0);
}

TEST(Percentile, NearestRank) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  EXPECT_DOUBLE_EQ(pb::percentile(xs, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(pb::percentile(xs, 90.0), 90.0);
  EXPECT_DOUBLE_EQ(pb::percentile(xs, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(pb::percentile(xs, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(pb::percentile({5, 1, 3}, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(pb::percentile({5, 1}, 90.0), 5.0);
  EXPECT_THROW(pb::percentile(xs, 0.0), std::invalid_argument);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(pb::samples_beyond(100, 90.0), 10u);
  EXPECT_EQ(pb::samples_beyond(99, 90.0), 9u);   // rank ceil(89.1) = 90
  EXPECT_EQ(pb::samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(pb::samples_beyond(10000, 99.9), 10u);
  EXPECT_EQ(pb::samples_beyond(20, 50.0), 10u);
  EXPECT_EQ(pb::samples_beyond(3, 50.0), 1u);
}

TEST(TailPercentile, HighestWithTenBeyond) {
  EXPECT_DOUBLE_EQ(pb::tail_percentile(19), 0.0);  // not even the median
  EXPECT_DOUBLE_EQ(pb::tail_percentile(20), 50.0);
  EXPECT_DOUBLE_EQ(pb::tail_percentile(39), 50.0);
  EXPECT_DOUBLE_EQ(pb::tail_percentile(40), 75.0);
  EXPECT_DOUBLE_EQ(pb::tail_percentile(99), 75.0);
  EXPECT_DOUBLE_EQ(pb::tail_percentile(100), 90.0);
  EXPECT_DOUBLE_EQ(pb::tail_percentile(200), 95.0);
  EXPECT_DOUBLE_EQ(pb::tail_percentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(pb::tail_percentile(10000), 99.9);
}

TEST(Summarize, FallsBackToMedianWhenNoTailQualifies) {
  const pb::Summary few = pb::summarize({3, 1, 2});
  EXPECT_EQ(few.count, 3u);
  EXPECT_DOUBLE_EQ(few.p50, 2.0);
  EXPECT_DOUBLE_EQ(few.tail_pct, 0.0);
  EXPECT_DOUBLE_EQ(few.tail, 2.0);

  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  const pb::Summary many = pb::summarize(xs);
  EXPECT_DOUBLE_EQ(many.tail_pct, 90.0);
  EXPECT_DOUBLE_EQ(many.tail, 90.0);
  EXPECT_EQ(pb::summarize({}).count, 0u);
}

TEST(FailureCount, FractionOfAttempted) {
  pb::FailureCount f;
  EXPECT_DOUBLE_EQ(f.fraction(), 0.0);
  f.record(true);
  f.record(false);
  f.record(true);
  f.record(true);
  EXPECT_EQ(f.attempted, 4u);
  EXPECT_EQ(f.failed, 1u);
  EXPECT_DOUBLE_EQ(f.fraction(), 0.25);
  f.record_many(4, false);  // a failed ensemble call fails all its networks
  EXPECT_EQ(f.attempted, 8u);
  EXPECT_EQ(f.failed, 5u);
  f.record_many(2, true);
  EXPECT_DOUBLE_EQ(f.fraction(), 0.5);
}
