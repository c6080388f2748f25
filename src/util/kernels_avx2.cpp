// AVX2 variants of the simd layer kernels. This is the only TU compiled
// with -mavx2 (see src/util/CMakeLists.txt) and, with simd.hpp, the only
// place raw intrinsics are allowed (`raw-intrinsics` lint rule).
//
// Bitwise contract: every vector op below maps 1:1 onto the scalar
// reference in simd.cpp — same per-element op sequence, same rounding.
// That means mul + add (never FMA: -mavx2 does not enable FMA codegen, so
// the compiler cannot contract), blends that reproduce the scalar
// `cond ? a : b` exactly, and scalar tail loops that repeat the reference
// loop body verbatim. Touch nothing here without updating the reference
// and re-running tests/util/test_simd.cpp identity sweeps.
#ifndef CROWDRANK_NO_AVX2

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "util/simd.hpp"

namespace crowdrank::simd::avx2 {

namespace {

/// Lane-wise log_pinned: x > 0 and finite per lane (callers blend the
/// other cases); garbage lanes produce garbage that must be blended away,
/// never trapped on (FP exceptions stay masked).
inline __m256d log_lanes(__m256d x) {
  using namespace detail;
  const __m256d dbl_min = _mm256_set1_pd(std::numeric_limits<double>::min());
  const __m256d two54 = _mm256_set1_pd(kTwo54);
  const __m256d sub_mask = _mm256_cmp_pd(x, dbl_min, _CMP_LT_OQ);
  const __m256d xs =
      _mm256_blendv_pd(x, _mm256_mul_pd(x, two54), sub_mask);
  const __m256i kbias = _mm256_and_si256(
      _mm256_castpd_si256(sub_mask), _mm256_set1_epi64x(-kTwo54Shift));

  const __m256i bits = _mm256_castpd_si256(xs);
  __m256i k = _mm256_add_epi64(
      kbias,
      _mm256_sub_epi64(_mm256_and_si256(_mm256_srli_epi64(bits, 52),
                                        _mm256_set1_epi64x(0x7ff)),
                       _mm256_set1_epi64x(1023)));
  const __m256i hx = _mm256_and_si256(_mm256_srli_epi64(bits, 32),
                                      _mm256_set1_epi64x(0xfffff));
  const __m256i steer = _mm256_and_si256(
      _mm256_add_epi64(hx, _mm256_set1_epi64x(0x95f64)),
      _mm256_set1_epi64x(0x100000));
  const __m256i mbits = _mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi64x(0x000fffffffffffffLL)),
      _mm256_slli_epi64(_mm256_xor_si256(steer, _mm256_set1_epi64x(0x3ff00000)),
                        32));
  k = _mm256_add_epi64(k, _mm256_srli_epi64(steer, 20));
  const __m256d m = _mm256_castsi256_pd(mbits);

  // dk = (double)k via the 2^52 + 2^51 magic; exact for |k| < 2^51.
  const __m256d dk = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_add_epi64(
          k, _mm256_set1_epi64x(0x4338000000000000LL))),
      _mm256_set1_pd(6755399441055744.0));

  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d lg1 = _mm256_set1_pd(kLg1);
  const __m256d lg2 = _mm256_set1_pd(kLg2);
  const __m256d lg3 = _mm256_set1_pd(kLg3);
  const __m256d lg4 = _mm256_set1_pd(kLg4);
  const __m256d lg5 = _mm256_set1_pd(kLg5);
  const __m256d lg6 = _mm256_set1_pd(kLg6);
  const __m256d lg7 = _mm256_set1_pd(kLg7);
  const __m256d ln2hi = _mm256_set1_pd(kLn2Hi);
  const __m256d ln2lo = _mm256_set1_pd(kLn2Lo);

  const __m256d f = _mm256_sub_pd(m, one);
  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(two, f));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d w = _mm256_mul_pd(z, z);
  const __m256d t1 = _mm256_mul_pd(
      w, _mm256_add_pd(lg2, _mm256_mul_pd(
                                w, _mm256_add_pd(lg4, _mm256_mul_pd(w, lg6)))));
  const __m256d t2 = _mm256_mul_pd(
      z, _mm256_add_pd(
             lg1, _mm256_mul_pd(
                      w, _mm256_add_pd(
                             lg3, _mm256_mul_pd(
                                      w, _mm256_add_pd(
                                             lg5, _mm256_mul_pd(w, lg7)))))));
  const __m256d r = _mm256_add_pd(t2, t1);
  const __m256d hfsq = _mm256_mul_pd(half, _mm256_mul_pd(f, f));
  const __m256d inner = _mm256_add_pd(
      _mm256_mul_pd(s, _mm256_add_pd(hfsq, r)), _mm256_mul_pd(dk, ln2lo));
  return _mm256_sub_pd(_mm256_mul_pd(dk, ln2hi),
                       _mm256_sub_pd(_mm256_sub_pd(hfsq, inner), f));
}

}  // namespace

void axpy(double* out, const double* x, double a, std::size_t n) {
  const __m256d av = _mm256_set1_pd(a);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d o = _mm256_loadu_pd(out + j);
    const __m256d v = _mm256_mul_pd(av, _mm256_loadu_pd(x + j));
    _mm256_storeu_pd(out + j, _mm256_add_pd(o, v));
  }
  for (; j < n; ++j) {
    out[j] += a * x[j];
  }
}

namespace {

/// One-row GEMM strip (the rows % 4 tail): 16-wide ymm strips whose
/// accumulators stay live across the whole k loop.
inline void gemm_row(double* out, const double* a, const double* b,
                     std::size_t k_len, std::size_t b_stride, std::size_t w) {
  std::size_t j = 0;
  for (; j + 16 <= w; j += 16) {
    __m256d t0 = _mm256_loadu_pd(out + j);
    __m256d t1 = _mm256_loadu_pd(out + j + 4);
    __m256d t2 = _mm256_loadu_pd(out + j + 8);
    __m256d t3 = _mm256_loadu_pd(out + j + 12);
    const double* row = b + j;
    for (std::size_t k = 0; k < k_len; ++k, row += b_stride) {
      const double ak = a[k];
      if (ak == 0.0) {
        continue;
      }
      const __m256d av = _mm256_set1_pd(ak);
      t0 = _mm256_add_pd(t0, _mm256_mul_pd(av, _mm256_loadu_pd(row)));
      t1 = _mm256_add_pd(t1, _mm256_mul_pd(av, _mm256_loadu_pd(row + 4)));
      t2 = _mm256_add_pd(t2, _mm256_mul_pd(av, _mm256_loadu_pd(row + 8)));
      t3 = _mm256_add_pd(t3, _mm256_mul_pd(av, _mm256_loadu_pd(row + 12)));
    }
    _mm256_storeu_pd(out + j, t0);
    _mm256_storeu_pd(out + j + 4, t1);
    _mm256_storeu_pd(out + j + 8, t2);
    _mm256_storeu_pd(out + j + 12, t3);
  }
  for (; j + 4 <= w; j += 4) {
    __m256d t = _mm256_loadu_pd(out + j);
    const double* row = b + j;
    for (std::size_t k = 0; k < k_len; ++k, row += b_stride) {
      const double ak = a[k];
      if (ak == 0.0) {
        continue;
      }
      t = _mm256_add_pd(t, _mm256_mul_pd(_mm256_set1_pd(ak),
                                         _mm256_loadu_pd(row)));
    }
    _mm256_storeu_pd(out + j, t);
  }
  for (; j < w; ++j) {
    double t = out[j];
    const double* row = b + j;
    for (std::size_t k = 0; k < k_len; ++k, row += b_stride) {
      const double ak = a[k];
      if (ak == 0.0) {
        continue;
      }
      t += ak * row[0];
    }
    out[j] = t;
  }
}

}  // namespace

void gemm_accum(double* out, std::size_t out_stride, std::size_t rows,
                const double* a, std::size_t a_stride, const double* b,
                std::size_t k_len, std::size_t b_stride, std::size_t w) {
  // 4-row x 8-column register tile: eight ymm accumulators live across
  // the whole k loop, and each loaded b vector feeds all four rows — b
  // traffic drops 4x versus a one-row sweep, which is what keeps the
  // kernel compute-bound once the rhs block lives in L2. Zero a terms
  // are skipped per row, exactly like the scalar reference; every output
  // element still sees its own ascending-k mul-then-add chain.
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    double* o0 = out + r * out_stride;
    double* o1 = o0 + out_stride;
    double* o2 = o1 + out_stride;
    double* o3 = o2 + out_stride;
    const double* a0 = a + r * a_stride;
    const double* a1 = a0 + a_stride;
    const double* a2 = a1 + a_stride;
    const double* a3 = a2 + a_stride;
    std::size_t j = 0;
    for (; j + 8 <= w; j += 8) {
      __m256d t00 = _mm256_loadu_pd(o0 + j);
      __m256d t01 = _mm256_loadu_pd(o0 + j + 4);
      __m256d t10 = _mm256_loadu_pd(o1 + j);
      __m256d t11 = _mm256_loadu_pd(o1 + j + 4);
      __m256d t20 = _mm256_loadu_pd(o2 + j);
      __m256d t21 = _mm256_loadu_pd(o2 + j + 4);
      __m256d t30 = _mm256_loadu_pd(o3 + j);
      __m256d t31 = _mm256_loadu_pd(o3 + j + 4);
      const double* row = b + j;
      for (std::size_t k = 0; k < k_len; ++k, row += b_stride) {
        const __m256d b0 = _mm256_loadu_pd(row);
        const __m256d b1 = _mm256_loadu_pd(row + 4);
        if (a0[k] != 0.0) {
          const __m256d av = _mm256_set1_pd(a0[k]);
          t00 = _mm256_add_pd(t00, _mm256_mul_pd(av, b0));
          t01 = _mm256_add_pd(t01, _mm256_mul_pd(av, b1));
        }
        if (a1[k] != 0.0) {
          const __m256d av = _mm256_set1_pd(a1[k]);
          t10 = _mm256_add_pd(t10, _mm256_mul_pd(av, b0));
          t11 = _mm256_add_pd(t11, _mm256_mul_pd(av, b1));
        }
        if (a2[k] != 0.0) {
          const __m256d av = _mm256_set1_pd(a2[k]);
          t20 = _mm256_add_pd(t20, _mm256_mul_pd(av, b0));
          t21 = _mm256_add_pd(t21, _mm256_mul_pd(av, b1));
        }
        if (a3[k] != 0.0) {
          const __m256d av = _mm256_set1_pd(a3[k]);
          t30 = _mm256_add_pd(t30, _mm256_mul_pd(av, b0));
          t31 = _mm256_add_pd(t31, _mm256_mul_pd(av, b1));
        }
      }
      _mm256_storeu_pd(o0 + j, t00);
      _mm256_storeu_pd(o0 + j + 4, t01);
      _mm256_storeu_pd(o1 + j, t10);
      _mm256_storeu_pd(o1 + j + 4, t11);
      _mm256_storeu_pd(o2 + j, t20);
      _mm256_storeu_pd(o2 + j + 4, t21);
      _mm256_storeu_pd(o3 + j, t30);
      _mm256_storeu_pd(o3 + j + 4, t31);
    }
    if (j < w) {
      // Column tail (< 8): finish each of the four rows with the one-row
      // strip kernel — identical per-element chains.
      gemm_row(o0 + j, a0, b + j, k_len, b_stride, w - j);
      gemm_row(o1 + j, a1, b + j, k_len, b_stride, w - j);
      gemm_row(o2 + j, a2, b + j, k_len, b_stride, w - j);
      gemm_row(o3 + j, a3, b + j, k_len, b_stride, w - j);
    }
  }
  for (; r < rows; ++r) {
    gemm_row(out + r * out_stride, a + r * a_stride, b, k_len, b_stride, w);
  }
}

void add(double* out, const double* x, std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(out + j, _mm256_add_pd(_mm256_loadu_pd(out + j),
                                            _mm256_loadu_pd(x + j)));
  }
  for (; j < n; ++j) {
    out[j] += x[j];
  }
}

void scale(double* x, double a, std::size_t n) {
  const __m256d av = _mm256_set1_pd(a);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(x + j, _mm256_mul_pd(_mm256_loadu_pd(x + j), av));
  }
  for (; j < n; ++j) {
    x[j] *= a;
  }
}

double max0(const double* x, std::size_t n) {
  // The fold `(m < x) ? x : m` from a +0.0 seed is grouping-independent
  // (max over finites is exact; NaN never passes the predicate; -0.0
  // never beats the +0.0 seed), so lane-parallel accumulation returns the
  // scalar reference's bits.
  __m256d acc = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d v = _mm256_loadu_pd(x + j);
    acc = _mm256_blendv_pd(acc, v, _mm256_cmp_pd(acc, v, _CMP_LT_OQ));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double m = 0.0;
  for (const double lane : lanes) {
    m = m < lane ? lane : m;
  }
  for (; j < n; ++j) {
    m = m < x[j] ? x[j] : m;
  }
  return m;
}

double max_abs_diff(const double* a, const double* b, std::size_t n) {
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  __m256d acc = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d d = _mm256_and_pd(
        _mm256_sub_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j)),
        abs_mask);
    acc = _mm256_blendv_pd(acc, d, _mm256_cmp_pd(acc, d, _CMP_LT_OQ));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double m = 0.0;
  for (const double lane : lanes) {
    m = m < lane ? lane : m;
  }
  for (; j < n; ++j) {
    const double d = std::fabs(a[j] - b[j]);
    m = m < d ? d : m;
  }
  return m;
}

void neg_log_clamped(double* out, const double* w, std::size_t n,
                     double floor_log) {
  const __m256d floorv = _mm256_set1_pd(floor_log);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256d sign_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(
          static_cast<std::int64_t>(0x8000000000000000ULL)));
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d x = _mm256_loadu_pd(w + j);
    const __m256d core = log_lanes(x);
    __m256d lg = _mm256_blendv_pd(core, floorv,
                                  _mm256_cmp_pd(core, floorv, _CMP_LT_OQ));
    // Specials, in the scalar branch order: non-finite passes through,
    // then x <= 0 (including -inf) takes the floor.
    const __m256d nonfinite =
        _mm256_cmp_pd(_mm256_and_pd(x, abs_mask), inf, _CMP_NLT_UQ);
    lg = _mm256_blendv_pd(lg, x, nonfinite);
    lg = _mm256_blendv_pd(lg, floorv, _mm256_cmp_pd(x, zero, _CMP_LE_OQ));
    _mm256_storeu_pd(out + j, _mm256_xor_pd(lg, sign_mask));
  }
  for (; j < n; ++j) {
    const double x = w[j];
    double lg;
    if (x <= 0.0) {
      lg = floor_log;
    } else if (!std::isfinite(x)) {
      lg = x;
    } else {
      const double core = log_pinned(x);
      lg = core < floor_log ? floor_log : core;
    }
    out[j] = -lg;
  }
}

}  // namespace crowdrank::simd::avx2

#endif  // CROWDRANK_NO_AVX2
