// Vectorized kernel layer: the one dispatch point for the hot inner loops.
//
// Every kernel here has two implementations — a portable scalar reference
// and an AVX2 variant (kernels_avx2.cpp, compiled with -mavx2 for that one
// translation unit only) — selected once at startup by runtime CPU
// detection. The two are *bitwise identical* by construction, which is the
// whole design constraint: the engine's determinism contract ("results
// depend only on job + seed", pinned by tests/core/test_determinism) must
// hold across machines with and without AVX2, so a vector path may never
// change a rounding.
//
// The rules that make that possible:
//
//  * Vectorize across independent output lanes, never across a reduction.
//    axpy processes four output elements per vector op; each element
//    sees exactly the scalar op sequence (load, mul, add, store — same
//    order, same rounding). Order-sensitive reductions (path_cost_sum)
//    stay scalar in both backends; only order-*insensitive* folds (max)
//    get a vector path, with identical `(m < x) ? x : m` lane semantics.
//  * No FMA. The scalar reference rounds the multiply and the add
//    separately, so the vector path uses mul + add, not fused ops. The
//    build never enables FMA codegen (plain -mavx2 does not imply -mfma,
//    and no -march flag is set anywhere), so the compiler cannot contract
//    either side behind our back.
//  * One log. `log_pinned` is a branch-free fdlibm-style natural log whose
//    AVX2 version executes the identical op DAG lane-wise; math::safe_log
//    routes through it so the SAPS cost cache can be filled by the batch
//    kernel (`neg_log_clamped`) with bitwise-equal results either way.
//    (libm's log is opaque — its exact bits vary by libc version — so
//    pinning the algorithm is also what keeps golden files portable.)
//
// Backend selection: AVX2 when compiled in (CMake option CROWDRANK_SIMD,
// default `auto`) and the CPU reports it, unless the CROWDRANK_SIMD
// environment variable ("scalar" | "avx2" | "auto") overrides. Tests force
// a side with set_backend(). Raw intrinsics are banned outside this header
// and kernels_avx2.cpp by the `raw-intrinsics` lint rule.
#pragma once

#include <cstddef>
#include <cstdint>

namespace crowdrank::simd {

enum class Backend { Scalar, Avx2 };

/// True when the AVX2 translation unit was compiled in (CROWDRANK_SIMD
/// was `auto` or `avx2` and the compiler accepts -mavx2).
bool avx2_compiled();

/// avx2_compiled() and the running CPU reports AVX2.
bool avx2_supported();

/// The backend all kernels currently dispatch to.
Backend active_backend();

/// Forces a backend (tests / benches). Returns false (and leaves the
/// dispatch untouched) when the requested backend is unavailable.
bool set_backend(Backend backend);

/// Re-derives the backend from CROWDRANK_SIMD + CPU detection, undoing
/// any set_backend() override.
void reset_backend();

const char* backend_name(Backend backend);

// ---- lane-parallel kernels (double) ------------------------------------
// All pointers may be arbitrarily aligned; ranges must not partially
// overlap (out == x is fine for scale, nothing else aliases).

/// out[j] += a * x[j]
void axpy(double* out, const double* x, double a, std::size_t n);

/// Register-blocked GEMM tile, the dense-matmul inner block. For each
/// output row r in [0, rows) and column j in [0, w):
///   t = out[r*out_stride + j];
///   for k ascending in [0, k_len) with a[r*a_stride + k] != 0.0:
///     t += a[r*a_stride + k] * b[k*b_stride + j];
///   out[r*out_stride + j] = t;
/// Per output element this is the same ascending-k mul-then-add chain as
/// applying one axpy per term — every element is an independent lane, so
/// regrouping the (r, j) sweep into register tiles batches the loads
/// without touching a single rounding. The scalar reference runs each row
/// in 8-wide strips the compiler keeps in SSE2 registers; the AVX2
/// variant processes four rows per 8-wide strip so each loaded b vector
/// feeds four accumulator rows (b traffic /4 — the difference between
/// compute-bound and load-bound at L2 sizes). Zero a terms are skipped
/// identically on both sides.
void gemm_accum(double* out, std::size_t out_stride, std::size_t rows,
                const double* a, std::size_t a_stride, const double* b,
                std::size_t k_len, std::size_t b_stride, std::size_t w);

/// Compacted (CSR-row) counterpart of gemm_accum: one output row
/// accumulated against nnz indexed rows of a dense b. For each j in
/// [0, w):
///   t = out[j];
///   for e ascending in [0, nnz):
///     t += vals[e] * b[idx[e] * b_stride + j];
///   out[j] = t;
/// Per output element this is the same ascending-k chain as one axpy per
/// stored entry (CSR column indices ascend), but the output strip lives
/// in registers across the whole entry loop instead of being re-loaded
/// per term, and there is no zero-test branch to mispredict on — the
/// entry list is already compacted. The sparse staged-dense product
/// regime is the caller.
void spmm_row_accum(double* out, const double* vals,
                    const std::uint32_t* idx, std::size_t nnz,
                    const double* b, std::size_t b_stride, std::size_t w);

/// out[j] += x[j]
void add(double* out, const double* x, std::size_t n);

/// x[j] *= a
void scale(double* x, double a, std::size_t n);

/// Fold `(m < x[j]) ? x[j] : m` starting from m = 0.0. Exact for every
/// grouping on finite inputs, and the +0.0 seed means a -0.0 input can
/// never change the sign of the result, so the vector regrouping is
/// bitwise-safe. NaN inputs are ignored (the predicate is false), matching
/// the scalar fold.
double max0(const double* x, std::size_t n);

/// Fold of |a[j] - b[j]| under the same max semantics as max0.
double max_abs_diff(const double* a, const double* b, std::size_t n);

/// out[i] = -safe_log(w[i], floor_log): the SAPS cost-matrix fill.
/// safe_log semantics: w <= 0 -> floor_log; non-finite w passes through;
/// otherwise max(log_pinned(w), floor_log). `out` may equal `w` (the fill
/// in place): each lane loads its element before storing to it.
void neg_log_clamped(double* out, const double* w, std::size_t n,
                     double floor_log);

/// Ordered gather-sum sum_s costs[path[s] * stride + path[s + 1]] for
/// s in [0, len - 1). A sequential reduction — the accumulation order is
/// part of the SAPS bitwise contract — so both backends run the same
/// scalar loop; it lives here so the kernel inventory (and the lint
/// allowlist) stays the single statement of what the hot path executes.
double path_cost_sum(const double* costs, const std::size_t* path,
                     std::size_t len, std::size_t stride);

/// Portable natural log, bit-identical across backends and libcs:
/// fdlibm-style reduction x = 2^k * m, m in [sqrt(2)/2, sqrt(2)), followed
/// by a fixed-order polynomial in s = f/(2+f), f = m - 1. Requires
/// x > 0 and finite (callers handle 0/negative/inf/NaN; safe_log does).
/// Subnormals are pre-scaled by 2^54. Matches libm log to <= 1 ulp.
double log_pinned(double x);

namespace detail {

// Shared constants of the pinned log; kernels_avx2.cpp mirrors the exact
// op DAG lane-wise, so both TUs must read the same coefficients.
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
inline constexpr double kLg1 = 6.666666666666735130e-01;
inline constexpr double kLg2 = 3.999999999940941908e-01;
inline constexpr double kLg3 = 2.857142874366239149e-01;
inline constexpr double kLg4 = 2.222219843214978396e-01;
inline constexpr double kLg5 = 1.818357216161805012e-01;
inline constexpr double kLg6 = 1.531383769920937332e-01;
inline constexpr double kLg7 = 1.479819860511658591e-01;
// 2^54, the subnormal pre-scale; 54 = the matching exponent correction.
inline constexpr double kTwo54 = 1.80143985094819840000e+16;
inline constexpr int kTwo54Shift = 54;

}  // namespace detail

}  // namespace crowdrank::simd
