// The vectorized kernel layer (util/simd.hpp): backend dispatch control
// and, when AVX2 is available, bitwise identity between the two backends
// over odd lengths, unaligned slices, and adversarial values — the
// property the engine's cross-machine determinism contract rests on.
#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "util/math.hpp"
#include "util/rng.hpp"

namespace crowdrank {
namespace {

/// Restores the dispatch the environment/CPU derived, whatever a test
/// forced mid-run.
class SimdTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::reset_backend(); }
};

/// Fills `v` with a mix of magnitudes spanning ~30 orders plus sign flips;
/// deterministic per seed.
std::vector<double> random_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double mag = std::pow(10.0, rng.uniform() * 30.0 - 15.0);
    v[i] = (rng.bernoulli(0.5) ? mag : -mag) * rng.uniform();
  }
  return v;
}

/// Bitwise equality (distinguishes +0.0 / -0.0 and compares NaN payloads).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST_F(SimdTest, BackendControl) {
  // Scalar is always available and forcing it must stick.
  EXPECT_TRUE(simd::set_backend(simd::Backend::Scalar));
  EXPECT_EQ(simd::active_backend(), simd::Backend::Scalar);
  if (simd::avx2_supported()) {
    EXPECT_TRUE(simd::set_backend(simd::Backend::Avx2));
    EXPECT_EQ(simd::active_backend(), simd::Backend::Avx2);
  } else {
    // Unavailable backends are refused and the dispatch is untouched.
    EXPECT_FALSE(simd::set_backend(simd::Backend::Avx2));
    EXPECT_EQ(simd::active_backend(), simd::Backend::Scalar);
  }
  simd::reset_backend();
  if (!simd::avx2_supported()) {
    EXPECT_EQ(simd::active_backend(), simd::Backend::Scalar);
  }
}

TEST_F(SimdTest, BackendNames) {
  EXPECT_STREQ(simd::backend_name(simd::Backend::Scalar), "scalar");
  EXPECT_STREQ(simd::backend_name(simd::Backend::Avx2), "avx2");
}

TEST_F(SimdTest, LogPinnedMatchesLibmClosely) {
  // The pinned log is not libm's log, but it must stay within 1 ulp of it
  // on normal inputs (and be exact at the anchor points).
  EXPECT_EQ(simd::log_pinned(1.0), 0.0);
  EXPECT_TRUE(same_bits(simd::log_pinned(0.5), std::log(0.5)));
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const double x = std::pow(10.0, rng.uniform() * 60.0 - 30.0);
    const double pinned = simd::log_pinned(x);
    const double libm = std::log(x);
    EXPECT_NEAR(pinned, libm, std::abs(libm) * 1e-15 + 1e-300)
        << "x = " << x;
  }
  // Subnormal inputs take the 2^54 pre-scale path.
  const double tiny = std::numeric_limits<double>::denorm_min();
  EXPECT_NEAR(simd::log_pinned(tiny), std::log(tiny), 1e-12);
}

TEST_F(SimdTest, SafeLogRoutesThroughPinnedLog) {
  EXPECT_EQ(math::safe_log(1.0), 0.0);
  EXPECT_TRUE(same_bits(math::safe_log(0.5), simd::log_pinned(0.5)));
  EXPECT_EQ(math::safe_log(0.0), -745.0);
  EXPECT_EQ(math::safe_log(-3.0), -745.0);
  EXPECT_EQ(math::safe_log(std::numeric_limits<double>::infinity()),
            std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(
      math::safe_log(std::numeric_limits<double>::quiet_NaN())));
}

// ---- backend identity --------------------------------------------------
// Each kernel runs on both backends over every length in [0, 67] (odd
// tails, sub-vector sizes) and an unaligned slice, and the outputs must
// match bit for bit. Skipped (scalar vs scalar) when AVX2 is unavailable.

template <typename KernelFn>
void expect_backend_identity(const KernelFn& run_kernel) {
  if (!simd::avx2_supported()) {
    GTEST_SKIP() << "no AVX2 on this host";
  }
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                        std::size_t{3}, std::size_t{4}, std::size_t{5},
                        std::size_t{7}, std::size_t{8}, std::size_t{13},
                        std::size_t{31}, std::size_t{64}, std::size_t{67}}) {
    for (std::size_t offset : {std::size_t{0}, std::size_t{1}}) {
      ASSERT_TRUE(simd::set_backend(simd::Backend::Scalar));
      const std::vector<double> scalar_out = run_kernel(n, offset);
      ASSERT_TRUE(simd::set_backend(simd::Backend::Avx2));
      const std::vector<double> avx2_out = run_kernel(n, offset);
      ASSERT_EQ(scalar_out.size(), avx2_out.size());
      for (std::size_t i = 0; i < scalar_out.size(); ++i) {
        ASSERT_TRUE(same_bits(scalar_out[i], avx2_out[i]))
            << "n=" << n << " offset=" << offset << " i=" << i << ": "
            << scalar_out[i] << " vs " << avx2_out[i];
      }
    }
  }
}

TEST_F(SimdTest, AxpyBackendIdentity) {
  const std::vector<double> x = random_values(128, 11);
  const std::vector<double> base = random_values(128, 12);
  expect_backend_identity([&](std::size_t n, std::size_t offset) {
    std::vector<double> out(base.begin() + offset,
                            base.begin() + offset + n);
    simd::axpy(out.data(), x.data() + offset, 1.7357, n);
    return out;
  });
}

TEST_F(SimdTest, GemmAccumBackendIdentity) {
  // The register-tiled product kernel behind Matrix::multiply. Shapes are
  // chosen to hit every tile path in the AVX2 build: 4-row blocks plus
  // 1..3-row tails, 8-wide column strips plus 16-wide inner strips and
  // 1..7-wide tails, and k tails. Zeros sprinkled into `a` exercise the
  // zero-skip branch, and the strides exceed the logical widths so padding
  // lanes would be caught if a backend ever read or wrote past a row.
  if (!simd::avx2_supported()) {
    GTEST_SKIP() << "no AVX2 on this host";
  }
  for (const std::size_t rows : {std::size_t{1}, std::size_t{3},
                                 std::size_t{4}, std::size_t{5},
                                 std::size_t{9}}) {
    for (const std::size_t k_len : {std::size_t{0}, std::size_t{1},
                                    std::size_t{7}, std::size_t{16},
                                    std::size_t{21}}) {
      for (const std::size_t w : {std::size_t{1}, std::size_t{5},
                                  std::size_t{8}, std::size_t{19},
                                  std::size_t{37}}) {
        const std::size_t a_stride = k_len + 3;
        const std::size_t b_stride = w + 2;
        const std::size_t out_stride = w + 1;
        std::vector<double> a =
            random_values(rows * a_stride, 71 + rows + k_len);
        for (std::size_t i = 0; i < a.size(); i += 3) {
          a[i] = 0.0;  // zero-skip branch
        }
        const std::vector<double> b =
            random_values(k_len * b_stride + w, 72 + k_len + w);
        const std::vector<double> base =
            random_values(rows * out_stride, 73 + rows + w);
        const auto run = [&] {
          std::vector<double> out = base;
          simd::gemm_accum(out.data(), out_stride, rows, a.data(), a_stride,
                           b.data(), k_len, b_stride, w);
          return out;
        };
        ASSERT_TRUE(simd::set_backend(simd::Backend::Scalar));
        const std::vector<double> scalar_out = run();
        ASSERT_TRUE(simd::set_backend(simd::Backend::Avx2));
        const std::vector<double> avx2_out = run();
        for (std::size_t i = 0; i < scalar_out.size(); ++i) {
          ASSERT_TRUE(same_bits(scalar_out[i], avx2_out[i]))
              << "rows=" << rows << " k=" << k_len << " w=" << w
              << " i=" << i << ": " << scalar_out[i] << " vs "
              << avx2_out[i];
        }
      }
    }
  }
}

TEST_F(SimdTest, SpmmRowAccumBackendIdentity) {
  // The CSR-row product kernel behind the sparse staged-dense regime.
  // Widths hit the AVX2 build's 16-wide strips, its 4-wide strips and the
  // 1..3-wide tails; scattered column indices and a stride wider than the
  // row catch any lane that reads the wrong b row or past its end.
  if (!simd::avx2_supported()) {
    GTEST_SKIP() << "no AVX2 on this host";
  }
  const std::size_t b_rows = 23;
  for (const std::size_t nnz : {std::size_t{0}, std::size_t{1},
                                std::size_t{6}, std::size_t{17}}) {
    for (const std::size_t w : {std::size_t{1}, std::size_t{3},
                                std::size_t{4}, std::size_t{16},
                                std::size_t{21}, std::size_t{39}}) {
      const std::size_t b_stride = w + 5;
      const std::vector<double> vals = random_values(nnz, 81 + nnz);
      std::vector<std::uint32_t> idx(nnz);
      for (std::size_t e = 0; e < nnz; ++e) {
        idx[e] = static_cast<std::uint32_t>((7 * e + w) % b_rows);
      }
      const std::vector<double> b =
          random_values(b_rows * b_stride, 82 + w);
      const std::vector<double> base = random_values(w, 83 + nnz + w);
      const auto run = [&] {
        std::vector<double> out = base;
        simd::spmm_row_accum(out.data(), vals.data(), idx.data(), nnz,
                             b.data(), b_stride, w);
        return out;
      };
      ASSERT_TRUE(simd::set_backend(simd::Backend::Scalar));
      const std::vector<double> scalar_out = run();
      ASSERT_TRUE(simd::set_backend(simd::Backend::Avx2));
      const std::vector<double> avx2_out = run();
      for (std::size_t j = 0; j < w; ++j) {
        ASSERT_TRUE(same_bits(scalar_out[j], avx2_out[j]))
            << "nnz=" << nnz << " w=" << w << " j=" << j << ": "
            << scalar_out[j] << " vs " << avx2_out[j];
      }
    }
  }
}

TEST_F(SimdTest, AddAndScaleBackendIdentity) {
  const std::vector<double> x = random_values(128, 31);
  const std::vector<double> base = random_values(128, 32);
  expect_backend_identity([&](std::size_t n, std::size_t offset) {
    std::vector<double> out(base.begin() + offset,
                            base.begin() + offset + n);
    simd::add(out.data(), x.data() + offset, n);
    simd::scale(out.data(), -0.731, n);
    return out;
  });
}

TEST_F(SimdTest, MaxReductionsBackendIdentity) {
  std::vector<double> a = random_values(128, 41);
  const std::vector<double> b = random_values(128, 42);
  // Seed corner cases into the prefix: NaN is ignored by the fold, -0.0
  // never displaces the +0.0 seed.
  a[0] = std::numeric_limits<double>::quiet_NaN();
  a[1] = -0.0;
  expect_backend_identity([&](std::size_t n, std::size_t offset) {
    return std::vector<double>{
        simd::max0(a.data() + offset, n),
        simd::max_abs_diff(a.data() + offset, b.data() + offset, n)};
  });
}

TEST_F(SimdTest, NegLogClampedBackendIdentity) {
  std::vector<double> w = random_values(128, 51);
  // Adversarial prefix: zeros, negatives, non-finites, subnormals — the
  // full safe_log branch set.
  w[0] = 0.0;
  w[1] = -2.5;
  w[2] = std::numeric_limits<double>::infinity();
  w[3] = std::numeric_limits<double>::quiet_NaN();
  w[4] = std::numeric_limits<double>::denorm_min();
  w[5] = -0.0;
  w[6] = 1.0;
  w[7] = std::exp(-800.0);  // log below the floor -> clamped
  expect_backend_identity([&](std::size_t n, std::size_t offset) {
    std::vector<double> out(n, 0.0);
    simd::neg_log_clamped(out.data(), w.data() + offset, n, -745.0);
    return out;
  });
}

TEST_F(SimdTest, NegLogClampedMatchesSafeLog) {
  // The batch kernel must agree with the scalar safe_log element-wise on
  // every backend (this is what keeps the SAPS cost cache pinned).
  std::vector<double> w = random_values(512, 61);
  w[0] = 0.0;
  w[1] = -1.0;
  w[2] = std::numeric_limits<double>::infinity();
  w[3] = std::numeric_limits<double>::denorm_min();
  for (const simd::Backend backend :
       {simd::Backend::Scalar, simd::Backend::Avx2}) {
    if (!simd::set_backend(backend)) {
      continue;
    }
    std::vector<double> out(w.size(), 0.0);
    simd::neg_log_clamped(out.data(), w.data(), w.size(), -745.0);
    for (std::size_t i = 0; i < w.size(); ++i) {
      const double expected = -math::safe_log(w[i]);
      if (std::isnan(expected)) {
        EXPECT_TRUE(std::isnan(out[i])) << "i=" << i;
      } else {
        EXPECT_TRUE(same_bits(out[i], expected))
            << "i=" << i << " w=" << w[i];
      }
    }
  }
}

TEST_F(SimdTest, PathCostSumKnownAnswer) {
  // 3x3 cost matrix, path 0 -> 2 -> 1: costs[0*3+2] + costs[2*3+1].
  const double costs[9] = {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
  const std::size_t path[3] = {0, 2, 1};
  EXPECT_EQ(simd::path_cost_sum(costs, path, 3, 3), 2.0 + 7.0);
  EXPECT_EQ(simd::path_cost_sum(costs, path, 1, 3), 0.0);
  EXPECT_EQ(simd::path_cost_sum(costs, path, 0, 3), 0.0);
}

}  // namespace
}  // namespace crowdrank
