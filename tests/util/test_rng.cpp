#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>

#include "util/rng.hpp"

namespace phi::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double lo = 1.0, hi = 0.0, sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-5.0, 3.0);
    EXPECT_GE(v, -5.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, BelowIsUnbiasedAndBounded) {
  Rng rng(11);
  std::array<int, 7> counts{};
  constexpr int kN = 70000;
  for (int i = 0; i < kN; ++i) {
    const auto v = rng.below(7);
    ASSERT_LT(v, 7u);
    ++counts[v];
  }
  for (int c : counts) EXPECT_NEAR(c, kN / 7, kN / 7 * 0.1);
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

class ExponentialMean : public ::testing::TestWithParam<double> {};

TEST_P(ExponentialMean, MatchesConfiguredMean) {
  const double mean = GetParam();
  Rng rng(17);
  double sum = 0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.exponential(mean);
    ASSERT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / kN, mean, mean * 0.02);
}

INSTANTIATE_TEST_SUITE_P(Means, ExponentialMean,
                         ::testing::Values(0.01, 0.5, 2.0, 100.0, 5e5));

class PoissonMean : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMean, MeanAndVarianceMatch) {
  const double mean = GetParam();
  Rng rng(23);
  double sum = 0, sum2 = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const auto v = static_cast<double>(rng.poisson(mean));
    sum += v;
    sum2 += v * v;
  }
  const double m = sum / kN;
  const double var = sum2 / kN - m * m;
  EXPECT_NEAR(m, mean, std::max(0.05, mean * 0.05));
  EXPECT_NEAR(var, mean, std::max(0.1, mean * 0.10));
}

INSTANTIATE_TEST_SUITE_P(Means, PoissonMean,
                         ::testing::Values(0.1, 1.0, 8.0, 50.0, 200.0));

TEST(Rng, PoissonZeroMean) {
  Rng rng(1);
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, NormalMoments) {
  Rng rng(29);
  double sum = 0, sum2 = 0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.normal(3.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  const double m = sum / kN;
  EXPECT_NEAR(m, 3.0, 0.03);
  EXPECT_NEAR(std::sqrt(sum2 / kN - m * m), 2.0, 0.03);
}

TEST(Rng, BoundedParetoStaysInBounds) {
  Rng rng(31);
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.bounded_pareto(1.2, 2.0, 1e6);
    ASSERT_GE(v, 2.0);
    ASSERT_LE(v, 1e6);
  }
}

TEST(Rng, BoundedParetoIsHeavyTailed) {
  Rng rng(37);
  int big = 0;
  constexpr int kN = 200000;
  double sum = 0;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.bounded_pareto(1.15, 2.0, 1e6);
    sum += v;
    if (v > 1000) ++big;
  }
  // Mean far above median; a visible tail beyond 1000x the minimum.
  EXPECT_GT(sum / kN, 10.0);
  EXPECT_GT(big, 50);
}

TEST(Rng, BoundedParetoSamplerIsBitIdenticalToThePerDrawFormula) {
  // BoundedPareto computes lo^alpha, hi^alpha and -1/alpha once; each
  // draw must equal Rng::bounded_pareto and the formula with the powers
  // taken per draw, bit for bit, or every generated trace would move.
  struct Shape {
    double alpha, lo, hi;
  };
  for (const Shape& sh : {Shape{1.15, 2920.0, 2e6}, Shape{1.3, 1.0, 1e4}}) {
    const BoundedPareto sampler(sh.alpha, sh.lo, sh.hi);
    Rng a(91), b(91), c(91);
    for (int i = 0; i < 100000; ++i) {
      const double u = c.uniform();
      const double la = std::pow(sh.lo, sh.alpha);
      const double ha = std::pow(sh.hi, sh.alpha);
      const double ref =
          std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / sh.alpha);
      const double x = sampler(a);
      const double y = b.bounded_pareto(sh.alpha, sh.lo, sh.hi);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(x),
                std::bit_cast<std::uint64_t>(y))
          << "draw " << i << " alpha " << sh.alpha;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(x),
                std::bit_cast<std::uint64_t>(ref))
          << "draw " << i << " alpha " << sh.alpha;
    }
  }
}

TEST(Rng, BernoulliProbability) {
  Rng rng(41);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(hits, kN * 0.3, kN * 0.01);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(43);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
  // And actually shuffled.
  int moved = 0;
  for (int i = 0; i < 100; ++i)
    if (v[static_cast<std::size_t>(i)] != i) ++moved;
  EXPECT_GT(moved, 50);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(47);
  Rng child = a.fork();
  EXPECT_NE(a(), child());
}

TEST(Zipf, PmfSumsToOneAndIsMonotone) {
  ZipfSampler z(100, 1.1);
  double sum = 0;
  for (std::size_t k = 0; k < z.size(); ++k) {
    sum += z.pmf(k);
    if (k > 0) {
      EXPECT_LE(z.pmf(k), z.pmf(k - 1) + 1e-12);
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, SamplesFollowPmf) {
  ZipfSampler z(50, 1.0);
  Rng rng(53);
  std::vector<int> counts(50, 0);
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) ++counts[z(rng)];
  EXPECT_NEAR(counts[0], kN * z.pmf(0), kN * z.pmf(0) * 0.05);
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[49]);
}

TEST(Zipf, ZeroSkewIsUniform) {
  ZipfSampler z(10, 0.0);
  for (std::size_t k = 0; k < 10; ++k) EXPECT_NEAR(z.pmf(k), 0.1, 1e-9);
}

TEST(Zipf, SingleElement) {
  ZipfSampler z(1, 2.0);
  Rng rng(59);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(z(rng), 0u);
}

}  // namespace
}  // namespace phi::util
