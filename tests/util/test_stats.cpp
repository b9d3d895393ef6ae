#include <gtest/gtest.h>

#include <cmath>

#include "util/stats.hpp"

namespace phi::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStats, MatchesDirectComputation) {
  RunningStats s;
  const double xs[] = {1.5, -2.0, 4.0, 0.0, 3.25, 7.5};
  double sum = 0;
  for (double x : xs) {
    s.add(x);
    sum += x;
  }
  const double n = 6.0;
  const double mean = sum / n;
  double m2 = 0;
  for (double x : xs) m2 += (x - mean) * (x - mean);
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), m2 / (n - 1), 1e-12);
  EXPECT_EQ(s.min(), -2.0);
  EXPECT_EQ(s.max(), 7.5);
  EXPECT_NEAR(s.sum(), sum, 1e-12);
}

TEST(RunningStats, SingleSampleVarianceZero) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.mean(), 5.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10;
    (i < 20 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  RunningStats e2;
  e2.merge(a);
  EXPECT_EQ(e2.count(), 2u);
  EXPECT_NEAR(e2.mean(), 1.5, 1e-12);
}

TEST(Samples, QuantilesExact) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(s.quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(s.quantile(0.25), 25.75, 1e-9);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(Samples, QuantileInterpolates) {
  Samples s;
  s.add(0.0);
  s.add(10.0);
  EXPECT_NEAR(s.quantile(0.5), 5.0, 1e-12);
  EXPECT_NEAR(s.quantile(0.9), 9.0, 1e-12);
}

TEST(Samples, EmptyQuantileIsZero) {
  Samples s;
  EXPECT_EQ(s.quantile(0.5), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(Samples, AddAfterQuantileResorts) {
  Samples s;
  s.add(5.0);
  EXPECT_EQ(s.median(), 5.0);
  s.add(1.0);
  s.add(9.0);
  EXPECT_EQ(s.median(), 5.0);
  s.add(0.0);
  s.add(0.5);
  EXPECT_EQ(s.median(), 1.0);
}

TEST(Ewma, FirstSampleInitializes) {
  Ewma e(0.5);
  EXPECT_FALSE(e.initialized());
  e.add(10.0);
  EXPECT_TRUE(e.initialized());
  EXPECT_EQ(e.value(), 10.0);
}

TEST(Ewma, ConvergesGeometrically) {
  Ewma e(0.5);
  e.add(0.0);
  e.add(8.0);
  EXPECT_NEAR(e.value(), 4.0, 1e-12);
  e.add(8.0);
  EXPECT_NEAR(e.value(), 6.0, 1e-12);
}

TEST(Ewma, ResetAndForce) {
  Ewma e(0.3);
  e.add(5.0);
  e.reset();
  EXPECT_FALSE(e.initialized());
  EXPECT_EQ(e.value(), 0.0);
  e.force(7.0);
  EXPECT_TRUE(e.initialized());
  e.add(7.0);
  EXPECT_NEAR(e.value(), 7.0, 1e-12);
}

TEST(EmpiricalCdf, FractionsAndQuantiles) {
  EmpiricalCdf c;
  c.add(0, 10);
  c.add(5, 30);
  c.add(100, 60);
  EXPECT_EQ(c.total(), 100u);
  EXPECT_NEAR(c.fraction_at_least(5), 0.9, 1e-12);
  EXPECT_NEAR(c.fraction_at_least(6), 0.6, 1e-12);
  EXPECT_NEAR(c.fraction_at_least(101), 0.0, 1e-12);
  EXPECT_NEAR(c.fraction_at_most(0), 0.1, 1e-12);
  EXPECT_NEAR(c.fraction_at_most(5), 0.4, 1e-12);
  EXPECT_EQ(c.quantile(0.05), 0);
  EXPECT_EQ(c.quantile(0.4), 5);
  EXPECT_EQ(c.quantile(0.95), 100);
}

TEST(EmpiricalCdf, OutOfOrderInsertionSorted) {
  EmpiricalCdf c;
  c.add(10);
  c.add(1);
  c.add(5);
  c.add(5);
  const auto pts = c.points();
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_EQ(pts[0].first, 1);
  EXPECT_EQ(pts[1].first, 5);
  EXPECT_EQ(pts[2].first, 10);
  EXPECT_NEAR(pts[2].second, 1.0, 1e-12);
}

TEST(EmpiricalCdf, MonotoneCdfProperty) {
  EmpiricalCdf c;
  for (int i = 0; i < 100; ++i) c.add(i % 17, static_cast<std::uint64_t>(1 + i % 3));
  double prev = 0;
  for (const auto& [v, frac] : c.points()) {
    EXPECT_GE(frac, prev);
    prev = frac;
  }
  EXPECT_NEAR(prev, 1.0, 1e-12);
}

TEST(EmpiricalCdf, EmptyIsSafe) {
  EmpiricalCdf c;
  EXPECT_EQ(c.fraction_at_least(1), 0.0);
  EXPECT_EQ(c.fraction_at_most(1), 0.0);
  EXPECT_EQ(c.quantile(0.5), 0);
}

}  // namespace
}  // namespace phi::util
