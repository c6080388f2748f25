// Unit tests for the deterministic RNG and its samplers.
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "sample_reference.hpp"
#include "util/error.hpp"

namespace crowdrank {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng rng(0);
  EXPECT_NE(rng(), rng());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 7.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 7.5);
  }
}

TEST(Rng, UniformRangeRejectsEmptyInterval) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(1.0, 1.0), Error);
  EXPECT_THROW(rng.uniform(2.0, 1.0), Error);
}

TEST(Rng, UniformIndexCoversDomainWithoutBias) {
  Rng rng(17);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.uniform_index(10)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 10.0, 5.0 * std::sqrt(n / 10.0));
  }
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_index(0), Error);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(19);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsMatchStandard) {
  Rng rng(23);
  const int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParamsShiftsAndScales) {
  Rng rng(29);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, NormalRejectsNegativeSigma) {
  Rng rng(1);
  EXPECT_THROW(rng.normal(0.0, -1.0), Error);
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(31);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliClampsProbability) {
  Rng rng(1);
  EXPECT_FALSE(rng.bernoulli(-1.0));
  EXPECT_TRUE(rng.bernoulli(2.0));
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(37);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, PermutationIsValid) {
  Rng rng(41);
  const auto p = rng.permutation(100);
  std::set<std::size_t> unique(p.begin(), p.end());
  EXPECT_EQ(unique.size(), 100u);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 99u);
}

TEST(Rng, PermutationIsShuffled) {
  Rng rng(43);
  const auto p = rng.permutation(100);
  std::vector<std::size_t> sorted(100);
  std::iota(sorted.begin(), sorted.end(), 0u);
  EXPECT_NE(p, sorted);
}

TEST(Rng, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(47);
  for (int trial = 0; trial < 50; ++trial) {
    const auto s = rng.sample_without_replacement(100, 20);
    std::set<std::size_t> unique(s.begin(), s.end());
    EXPECT_EQ(unique.size(), 20u);
    EXPECT_LT(*unique.rbegin(), 100u);
  }
}

TEST(Rng, SampleWithoutReplacementFullPopulation) {
  Rng rng(53);
  const auto s = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> unique(s.begin(), s.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
  Rng rng(1);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), Error);
}

TEST(Rng, SampleWithoutReplacementMatchesFloydOverASet) {
  // Sizes around the switch from a scan of the picks to the flat set,
  // each against several populations, both overloads.
  constexpr std::size_t kScan = Rng::kScanPicks;
  for (const std::size_t n : {1u, 17u, 18u, 40u, 1000u, 100000u}) {
    for (const std::size_t k :
         {std::size_t{0}, std::size_t{1}, std::size_t{3}, kScan, kScan + 1,
          n / 2, n}) {
      if (k > n) continue;
      for (std::uint64_t seed = 0; seed < 5; ++seed) {
        SCOPED_TRACE("n = " + std::to_string(n) + ", k = " +
                     std::to_string(k) + ", seed " + std::to_string(seed));
        Rng rng(seed);
        Rng ref_rng(seed);
        const auto want = floyd_sample_reference(ref_rng, n, k);
        ASSERT_EQ(rng.sample_without_replacement(n, k), want);
        std::vector<std::size_t> out(k);
        rng.sample_without_replacement(n, out);
        ASSERT_EQ(out, floyd_sample_reference(ref_rng, n, k));
        EXPECT_EQ(rng(), ref_rng());
      }
    }
  }
}

TEST(Rng, SampleWithoutReplacementIsUnbiased) {
  Rng rng(59);
  std::vector<int> counts(10, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (const auto v : rng.sample_without_replacement(10, 3)) {
      ++counts[v];
    }
  }
  // Each element appears with probability 3/10.
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.3, 0.02);
  }
}

TEST(Rng, ShuffleKeepsMultiset) {
  Rng rng(61);
  std::vector<int> v{1, 2, 2, 3, 5, 8};
  auto original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  std::sort(original.begin(), original.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(67);
  Rng child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIsDeterministic) {
  Rng a(71);
  Rng b(71);
  Rng fa = a.fork();
  Rng fb = b.fork();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(fa(), fb());
  }
}

}  // namespace
}  // namespace crowdrank
