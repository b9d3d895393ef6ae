// Deterministic-seed contract of the open-loop session generator
// (flow/tracegen.hpp): equal seeds reproduce byte-identical traces,
// distinct derive_seed streams diverge, and the three marginals (Poisson
// arrivals, Zipf ranks, bounded-Pareto sizes) have sane means and tails.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "flow/tracegen.hpp"
#include "util/rng.hpp"

namespace phi::flow {
namespace {

SessionConfig base_config() {
  SessionConfig cfg;
  cfg.arrivals_per_s = 2000;
  cfg.horizon_s = 5;
  cfg.ranks = 32;
  cfg.zipf_s = 1.3;
  cfg.pareto_alpha = 1.15;
  cfg.min_bytes = 2920;
  cfg.max_bytes = 2e6;
  cfg.seed = util::derive_seed(9, 0x6368726EULL);
  return cfg;
}

bool identical(const std::vector<Session>& a, const std::vector<Session>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].at_s != b[i].at_s || a[i].rank != b[i].rank ||
        a[i].bytes != b[i].bytes)
      return false;
  }
  return true;
}

TEST(TracegenSeeds, EqualSeedsProduceByteIdenticalStreams) {
  const SessionConfig cfg = base_config();
  const std::vector<Session> a = generate_sessions(cfg);
  const std::vector<Session> b = generate_sessions(cfg);
  ASSERT_GT(a.size(), 0u);
  EXPECT_TRUE(identical(a, b));
}

TEST(TracegenSeeds, DistinctDerivedStreamsDiverge) {
  SessionConfig cfg = base_config();
  cfg.seed = util::derive_seed(9, 1);
  const std::vector<Session> a = generate_sessions(cfg);
  cfg.seed = util::derive_seed(9, 2);
  const std::vector<Session> b = generate_sessions(cfg);
  EXPECT_FALSE(identical(a, b));
}

TEST(TracegenSeeds, ArrivalsAreSortedBoundedAndPoissonPaced) {
  const SessionConfig cfg = base_config();
  const std::vector<Session> s = generate_sessions(cfg);
  // Expected ~10k arrivals; the empirical rate should sit within 15%.
  const double rate = static_cast<double>(s.size()) / cfg.horizon_s;
  EXPECT_NEAR(rate, cfg.arrivals_per_s, 0.15 * cfg.arrivals_per_s);
  double prev = 0;
  for (const Session& e : s) {
    EXPECT_GE(e.at_s, prev);
    EXPECT_LT(e.at_s, cfg.horizon_s);
    prev = e.at_s;
  }
}

TEST(TracegenSeeds, BoundedParetoSizesStayBoundedWithHeavyTail) {
  const SessionConfig cfg = base_config();
  const std::vector<Session> s = generate_sessions(cfg);
  double sum = 0;
  double biggest = 0;
  for (const Session& e : s) {
    EXPECT_GE(static_cast<double>(e.bytes), cfg.min_bytes);
    EXPECT_LE(static_cast<double>(e.bytes), cfg.max_bytes);
    sum += static_cast<double>(e.bytes);
    biggest = std::max(biggest, static_cast<double>(e.bytes));
  }
  const double mean = sum / static_cast<double>(s.size());
  // alpha = 1.15 puts the mean a small multiple above min_bytes but far
  // below max_bytes, and ~10k draws should include a 50x-min outlier.
  EXPECT_GT(mean, cfg.min_bytes);
  EXPECT_LT(mean, cfg.max_bytes / 4);
  EXPECT_GT(biggest, 50 * cfg.min_bytes);
}

TEST(TracegenSeeds, ZipfRanksAreSkewedTowardZero) {
  const SessionConfig cfg = base_config();
  const std::vector<Session> s = generate_sessions(cfg);
  std::vector<std::size_t> count(cfg.ranks, 0);
  for (const Session& e : s) {
    ASSERT_LT(e.rank, cfg.ranks);
    ++count[e.rank];
  }
  EXPECT_GT(count[0], 3 * count[cfg.ranks - 1]);
  EXPECT_GT(count[0], count[cfg.ranks / 2]);
}

TEST(TracegenSeeds, MaxSessionsCapsTheTrace) {
  SessionConfig cfg = base_config();
  cfg.max_sessions = 100;
  const std::vector<Session> s = generate_sessions(cfg);
  EXPECT_EQ(s.size(), 100u);
  // The cap truncates the same stream: the prefix matches the uncapped
  // trace element for element.
  cfg.max_sessions = 0;
  const std::vector<Session> all = generate_sessions(cfg);
  ASSERT_GE(all.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(s[i].at_s, all[i].at_s);
    EXPECT_EQ(s[i].rank, all[i].rank);
    EXPECT_EQ(s[i].bytes, all[i].bytes);
  }
}

TEST(TracegenSeeds, ForEachSessionDrawsGapRankSizeAndMatchesTheVector) {
  // The visitor is the one generator: the vector form collects exactly
  // what it visits, and both follow a reference that draws the documented
  // order (exponential gap, Zipf rank, bounded-Pareto size) by hand.
  SessionConfig cfg = base_config();
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const std::uint64_t cap : {0u, 100u}) {
      cfg.seed = util::derive_seed(seed, 0x6368726EULL);
      cfg.max_sessions = cap;
      std::vector<Session> visited;
      for_each_session(cfg, [&](const Session& s) { visited.push_back(s); });

      std::vector<Session> ref;
      util::Rng rng(cfg.seed);
      const util::ZipfSampler zipf(cfg.ranks, cfg.zipf_s);
      for (double t = rng.exponential(1.0 / cfg.arrivals_per_s);
           t < cfg.horizon_s && (cap == 0 || ref.size() < cap);
           t += rng.exponential(1.0 / cfg.arrivals_per_s)) {
        Session s;
        s.at_s = t;
        s.rank = static_cast<std::uint32_t>(zipf(rng));
        s.bytes = static_cast<std::int64_t>(rng.bounded_pareto(
            cfg.pareto_alpha, cfg.min_bytes, cfg.max_bytes));
        ref.push_back(s);
      }

      ASSERT_GT(visited.size(), 0u);
      if (cap > 0) {
        EXPECT_EQ(visited.size(), cap);
      }
      EXPECT_TRUE(identical(visited, ref)) << "seed " << seed;
      EXPECT_TRUE(identical(visited, generate_sessions(cfg)))
          << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace phi::flow
