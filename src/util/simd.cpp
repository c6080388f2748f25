// Backend dispatch + the portable scalar reference kernels.
//
// This TU is compiled with the project's base flags (plain x86-64, no
// AVX2, no FMA), so the scalar loops below are the rounding reference the
// AVX2 TU must reproduce bit for bit. Keep every loop a straight
// per-element op sequence: the compiler may auto-vectorize them with
// baseline SSE2, which preserves per-element order and rounding, but any
// manual restructuring here must be mirrored in kernels_avx2.cpp.
#include "util/simd.hpp"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "util/logging.hpp"

namespace crowdrank::simd {

#ifndef CROWDRANK_NO_AVX2
// Implemented in kernels_avx2.cpp (the only TU built with -mavx2).
namespace avx2 {
void axpy(double* out, const double* x, double a, std::size_t n);
void gemm_accum(double* out, std::size_t out_stride, std::size_t rows,
                const double* a, std::size_t a_stride, const double* b,
                std::size_t k_len, std::size_t b_stride, std::size_t w);
void add(double* out, const double* x, std::size_t n);
void scale(double* x, double a, std::size_t n);
double max0(const double* x, std::size_t n);
double max_abs_diff(const double* a, const double* b, std::size_t n);
void neg_log_clamped(double* out, const double* w, std::size_t n,
                     double floor_log);
}  // namespace avx2
#endif

namespace {

bool cpu_has_avx2() {
#if defined(__GNUC__) && defined(__x86_64__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Backend default_backend() {
  const char* env = std::getenv("CROWDRANK_SIMD");
  const std::string mode = env == nullptr ? "auto" : env;
  if (mode == "scalar") {
    return Backend::Scalar;
  }
  if (mode != "auto" && mode != "avx2") {
    log_warn() << "CROWDRANK_SIMD=" << mode
               << " not recognized (want auto|avx2|scalar); using auto";
  }
  return avx2_supported() ? Backend::Avx2 : Backend::Scalar;
}

std::atomic<Backend>& backend_slot() {
  static std::atomic<Backend> slot{default_backend()};
  return slot;
}

inline bool use_avx2() {
#ifdef CROWDRANK_NO_AVX2
  return false;
#else
  return backend_slot().load(std::memory_order_relaxed) == Backend::Avx2;
#endif
}

}  // namespace

bool avx2_compiled() {
#ifdef CROWDRANK_NO_AVX2
  return false;
#else
  return true;
#endif
}

bool avx2_supported() { return avx2_compiled() && cpu_has_avx2(); }

Backend active_backend() {
  return backend_slot().load(std::memory_order_relaxed);
}

bool set_backend(Backend backend) {
  if (backend == Backend::Avx2 && !avx2_supported()) {
    return false;
  }
  backend_slot().store(backend, std::memory_order_relaxed);
  return true;
}

void reset_backend() {
  backend_slot().store(default_backend(), std::memory_order_relaxed);
}

const char* backend_name(Backend backend) {
  return backend == Backend::Avx2 ? "avx2" : "scalar";
}

// ---- scalar reference kernels ------------------------------------------

void axpy(double* out, const double* x, double a, std::size_t n) {
#ifndef CROWDRANK_NO_AVX2
  if (use_avx2()) {
    avx2::axpy(out, x, a, n);
    return;
  }
#endif
  for (std::size_t j = 0; j < n; ++j) {
    out[j] += a * x[j];
  }
}

void gemm_accum(double* out, std::size_t out_stride, std::size_t rows,
                const double* a, std::size_t a_stride, const double* b,
                std::size_t k_len, std::size_t b_stride, std::size_t w) {
#ifndef CROWDRANK_NO_AVX2
  if (use_avx2()) {
    avx2::gemm_accum(out, out_stride, rows, a, a_stride, b, k_len, b_stride,
                     w);
    return;
  }
#endif
  // Row-at-a-time, 8-wide strips with a local accumulator block the
  // compiler keeps in SSE2 registers across the k loop. Per output
  // element the op chain is ascending-k `t += a_rk * b_kj` regardless of
  // strip or row grouping, so the blocking is rounding-neutral; zero
  // terms are skipped like every other formulation of this kernel.
  for (std::size_t r = 0; r < rows; ++r) {
    double* out_row = out + r * out_stride;
    const double* a_row = a + r * a_stride;
    std::size_t j = 0;
    for (; j + 8 <= w; j += 8) {
      double t[8];
      for (std::size_t u = 0; u < 8; ++u) {
        t[u] = out_row[j + u];
      }
      const double* row = b + j;
      for (std::size_t k = 0; k < k_len; ++k, row += b_stride) {
        const double ak = a_row[k];
        if (ak == 0.0) {
          continue;
        }
        for (std::size_t u = 0; u < 8; ++u) {
          t[u] += ak * row[u];
        }
      }
      for (std::size_t u = 0; u < 8; ++u) {
        out_row[j + u] = t[u];
      }
    }
    for (; j < w; ++j) {
      double t = out_row[j];
      const double* row = b + j;
      for (std::size_t k = 0; k < k_len; ++k, row += b_stride) {
        const double ak = a_row[k];
        if (ak == 0.0) {
          continue;
        }
        t += ak * row[0];
      }
      out_row[j] = t;
    }
  }
}

void add(double* out, const double* x, std::size_t n) {
#ifndef CROWDRANK_NO_AVX2
  if (use_avx2()) {
    avx2::add(out, x, n);
    return;
  }
#endif
  for (std::size_t j = 0; j < n; ++j) {
    out[j] += x[j];
  }
}

void scale(double* x, double a, std::size_t n) {
#ifndef CROWDRANK_NO_AVX2
  if (use_avx2()) {
    avx2::scale(x, a, n);
    return;
  }
#endif
  for (std::size_t j = 0; j < n; ++j) {
    x[j] *= a;
  }
}

double max0(const double* x, std::size_t n) {
#ifndef CROWDRANK_NO_AVX2
  if (use_avx2()) {
    return avx2::max0(x, n);
  }
#endif
  double m = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    m = m < x[j] ? x[j] : m;
  }
  return m;
}

double max_abs_diff(const double* a, const double* b, std::size_t n) {
#ifndef CROWDRANK_NO_AVX2
  if (use_avx2()) {
    return avx2::max_abs_diff(a, b, n);
  }
#endif
  double m = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double d = std::fabs(a[j] - b[j]);
    m = m < d ? d : m;
  }
  return m;
}

double path_cost_sum(const double* costs, const std::size_t* path,
                     std::size_t len, std::size_t stride) {
  // Order-sensitive reduction: the per-step accumulation order is part of
  // the SAPS bitwise contract, so there is deliberately no vector variant.
  double total = 0.0;
  for (std::size_t s = 0; s + 1 < len; ++s) {
    total += costs[path[s] * stride + path[s + 1]];
  }
  return total;
}

double log_pinned(double x) {
  // fdlibm e_log reduction, branch-minimized: one unconditional op
  // sequence after normalization so the AVX2 lanes can mirror it exactly.
  using namespace detail;
  std::int64_t k = 0;
  if (x < std::numeric_limits<double>::min()) {  // subnormal pre-scale
    x *= kTwo54;
    k -= kTwo54Shift;
  }
  std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  k += static_cast<std::int64_t>((bits >> 52) & 0x7ff) - 1023;
  // Steer the mantissa into [sqrt(2)/2, sqrt(2)): when the top mantissa
  // bits put m above sqrt(2), halve it and bump k.
  const std::uint64_t hx = (bits >> 32) & 0xfffff;
  const std::uint64_t i = (hx + 0x95f64) & 0x100000;
  const std::uint64_t mbits = (bits & 0x000fffffffffffffULL) |
                              ((i ^ 0x3ff00000ULL) << 32);
  k += static_cast<std::int64_t>(i >> 20);
  const double m = std::bit_cast<double>(mbits);

  const double f = m - 1.0;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double r = t2 + t1;
  const double hfsq = 0.5 * (f * f);
  const double dk = static_cast<double>(k);
  return dk * kLn2Hi - ((hfsq - (s * (hfsq + r) + dk * kLn2Lo)) - f);
}

void neg_log_clamped(double* out, const double* w, std::size_t n,
                     double floor_log) {
#ifndef CROWDRANK_NO_AVX2
  if (use_avx2()) {
    avx2::neg_log_clamped(out, w, n, floor_log);
    return;
  }
#endif
  for (std::size_t j = 0; j < n; ++j) {
    const double x = w[j];
    double lg;
    if (x <= 0.0) {
      lg = floor_log;
    } else if (!std::isfinite(x)) {
      lg = x;  // +inf -> +inf, NaN -> NaN (legacy safe_log behavior)
    } else {
      const double core = log_pinned(x);
      lg = core < floor_log ? floor_log : core;
    }
    out[j] = -lg;
  }
}

}  // namespace crowdrank::simd
