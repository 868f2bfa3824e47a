#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

// SIMD kernels (DESIGN.md §14). This file is the project's sanctioned
// raw-loop site: dcmt_lint exempts src/tensor/kernels* from the style rules
// that ops.cc obeys, because register blocking and padded-tail handling are
// exactly the code shapes those rules exist to discourage elsewhere.

namespace dcmt {
namespace kernels {
namespace {

// 8-wide float / int32 vectors via portable compiler vector extensions.
// All arithmetic below is lane-wise; GCC contracts a*b+c to FMA per lane
// (-ffp-contract is never disabled), and without -ffast-math it never
// reassociates across statements, so every accumulator written as a single
// sequential chain stays a single sequential chain in codegen.
typedef float Vf __attribute__((vector_size(32)));
typedef std::int32_t Vi __attribute__((vector_size(32)));
// Eight double lanes, the widened image of one Vf (one zmm, two ymm).
typedef double Vd __attribute__((vector_size(64)));

inline Vf LoadV(const float* p) {
  Vf v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreV(float* p, Vf v) { std::memcpy(p, &v, sizeof(v)); }

/// Loads `n` (< kSimdWidth) floats, zero-filling the remaining lanes.
inline Vf LoadPartial(const float* p, int n) {
  float tmp[kSimdWidth] = {0.0f};
  std::memcpy(tmp, p, sizeof(float) * static_cast<std::size_t>(n));
  Vf v;
  std::memcpy(&v, tmp, sizeof(v));
  return v;
}

/// Stores the first `n` (< kSimdWidth) lanes only.
inline void StorePartial(float* p, Vf v, int n) {
  float tmp[kSimdWidth];
  std::memcpy(tmp, &v, sizeof(v));
  std::memcpy(p, tmp, sizeof(float) * static_cast<std::size_t>(n));
}

inline Vf Splat(float x) { return Vf{} + x; }

inline Vf BitsToVf(Vi b) {
  Vf v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

inline Vi VfToBits(Vf v) {
  Vi b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Horizontal sum with a FIXED reduction tree, so the scalar result does not
/// depend on how the caller arrived at the vector.
inline float HSum(Vf v) {
  return ((v[0] + v[1]) + (v[2] + v[3])) + ((v[4] + v[5]) + (v[6] + v[7]));
}

inline float HMax(Vf v) {
  const float a = std::max(std::max(v[0], v[1]), std::max(v[2], v[3]));
  const float b = std::max(std::max(v[4], v[5]), std::max(v[6], v[7]));
  return std::max(a, b);
}

/// Zeroes lanes >= n (used to exclude tail padding from reductions).
inline Vf MaskTail(Vf v, int n) {
  const Vi idx = {0, 1, 2, 3, 4, 5, 6, 7};
  return (idx < (Vi{} + n)) ? v : Vf{};
}

inline Vf VAbs(Vf x) { return x < Vf{} ? -x : x; }

/// Lane-wise IEEE sqrt (correctly rounded, so bit-identical to std::sqrt).
/// The AVX builtin is the vector instruction itself; elsewhere a lane loop.
/// A scalar std::sqrt under the default -fmath-errno would keep the
/// caller's loop from vectorizing.
inline Vf VSqrt(Vf x) {
#if defined(__AVX__)
  return __builtin_ia32_sqrtps256(x);
#else
  Vf r;
  for (int l = 0; l < kSimdWidth; ++l) r[l] = std::sqrt(x[l]);
  return r;
#endif
}

inline Vf VMin(Vf a, Vf b) { return a < b ? a : b; }
inline Vf VMax(Vf a, Vf b) { return a > b ? a : b; }

// Vectorized e^x, Cephes single-precision polynomial (as popularized by
// sse_mathfun / avx_mathfun): range-reduce by n = floor(x/ln2 + 1/2) with a
// Cody–Waite split of ln2, evaluate a degree-5 polynomial on the remainder,
// and scale by 2^n through exponent-field arithmetic. Inputs are clamped to
// the finite range, so n never overflows the exponent field. Accurate to a
// couple of ulp; exp(0) == 1 exactly (n = 0, remainder 0, p(0) = 1).
inline Vf VExp(Vf x) {
  x = VMin(x, Splat(88.3762626647950f));
  x = VMax(x, Splat(-87.3365478515625f));

  const Vf z = x * Splat(1.44269504088896341f) + Splat(0.5f);
  Vi ni = __builtin_convertvector(z, Vi);  // trunc
  Vf nf = __builtin_convertvector(ni, Vf);
  nf += __builtin_convertvector(nf > z, Vf);  // -1 where trunc != floor
  x -= nf * Splat(0.693359375f);
  x += nf * Splat(2.12194440e-4f);

  const Vf xx = x * x;
  Vf p = Splat(1.9875691500e-4f);
  p = p * x + Splat(1.3981999507e-3f);
  p = p * x + Splat(8.3334519073e-3f);
  p = p * x + Splat(4.1665795894e-2f);
  p = p * x + Splat(1.6666665459e-1f);
  p = p * x + Splat(5.0000001201e-1f);
  p = p * xx + x + Splat(1.0f);

  ni = __builtin_convertvector(nf, Vi);
  const Vf pow2n = BitsToVf((ni + 127) << 23);
  return p * pow2n;
}

// Vectorized ln(x) for x > 0, Cephes single-precision polynomial: split into
// exponent e and mantissa m in [0.5, 1), fold m < 1/sqrt(2) into e, evaluate
// a degree-8 polynomial on m - 1, and recombine with the same Cody–Waite
// split of ln2 that VExp uses. log(1) == 0 exactly. Callers clamp inputs
// positive; non-positive lanes (only ever tail padding) produce finite
// garbage that is masked or never stored.
inline Vf VLog(Vf x) {
  const Vi bits = VfToBits(x);
  Vi e_i = ((bits >> 23) & 0xff) - 126;
  Vf m = BitsToVf((bits & 0x7fffff) | 0x3f000000);  // [0.5, 1)

  const Vi below = m < Splat(0.70710678118654752440f);
  e_i += below;              // e -= 1 where m < 1/sqrt(2)
  m = below ? m + m : m;     // m *= 2 there
  m -= Splat(1.0f);
  const Vf e = __builtin_convertvector(e_i, Vf);

  const Vf z = m * m;
  Vf p = Splat(7.0376836292e-2f);
  p = p * m + Splat(-1.1514610310e-1f);
  p = p * m + Splat(1.1676998740e-1f);
  p = p * m + Splat(-1.2420140846e-1f);
  p = p * m + Splat(1.4249322787e-1f);
  p = p * m + Splat(-1.6668057665e-1f);
  p = p * m + Splat(2.0000714765e-1f);
  p = p * m + Splat(-2.4999993993e-1f);
  p = p * m + Splat(3.3333331174e-1f);

  Vf y = m * z * p;
  y += e * Splat(-2.12194440e-4f);
  y -= Splat(0.5f) * z;
  return m + y + e * Splat(0.693359375f);
}

/// Numerically stable sigmoid: (x >= 0 ? 1 : e) / (1 + e), e = e^-|x|.
/// sigmoid(0) = 1/(1+1) = 0.5 exactly.
inline Vf VSigmoid(Vf x) {
  const Vf e = VExp(-VAbs(x));
  const Vf num = (x >= Vf{}) ? Splat(1.0f) : e;
  return num / (Splat(1.0f) + e);
}

/// tanh via exp: sign(x) * (1 - e) / (1 + e), e = e^-2|x|.
inline Vf VTanh(Vf x) {
  const Vf e = VExp(Splat(-2.0f) * VAbs(x));
  const Vf t = (Splat(1.0f) - e) / (Splat(1.0f) + e);
  return (x < Vf{}) ? -t : t;
}

/// Stable softplus: max(x, 0) + log(1 + e^-|x|).
inline Vf VSoftplus(Vf x) {
  const Vf e = VExp(-VAbs(x));
  return VMax(x, Vf{}) + VLog(Splat(1.0f) + e);
}

inline Vf VClamp(Vf x, float lo, float hi) {
  return VMin(VMax(x, Splat(lo)), Splat(hi));
}

// --- GEMM ------------------------------------------------------------------

/// Loads the first `n` (1..kSimdWidth) floats, zero-filling the rest.
inline Vf LoadLanes(const float* p, int n) {
  return n == kSimdWidth ? LoadV(p) : LoadPartial(p, n);
}

/// Writes the first `n` (0..kSimdWidth) lanes of `v` to p, or adds them to
/// what p holds when kAccumulate.
template <bool kAccumulate>
inline void StoreLanes(float* p, Vf v, int n) {
  if (n == kSimdWidth) {
    StoreV(p, kAccumulate ? LoadV(p) + v : v);
  } else if (n > 0) {
    StorePartial(p, kAccumulate ? LoadPartial(p, n) + v : v, n);
  }
}

/// One register tile: MR rows x 16 columns of output for a full sweep of the
/// reduction over one packed panel. Element (r, p) of the row operand lives
/// at a[r * rs + p * ps], so one kernel reads A for the forward product
/// (rs = k, ps = 1), dC for dA (rs = n, ps = 1) and A as Aᵀ for dB (rs = 1,
/// ps = k) without materializing a transpose.
///
/// Each of the 2*MR accumulators is a single sequential FMA chain over
/// ascending p, textually identical in every MR instantiation, so an output
/// row is bit-identical whether it lands in a full 6-row tile or any
/// remainder tile — which is what makes every GEMM entry point invariant to
/// the caller's row partition. The finished chain overwrites c, or with
/// kAccumulate is added to it in one add (autograd's += contract).
template <int MR, bool kAccumulate>
inline void MicroKernel(const float* a, std::size_t rs, std::size_t ps,
                        const float* panel, int kred, float* c, int ldc,
                        int jn) {
  Vf acc0[MR], acc1[MR];
  for (int r = 0; r < MR; ++r) {
    acc0[r] = Vf{};
    acc1[r] = Vf{};
  }
  for (int p = 0; p < kred; ++p, a += ps, panel += kGemmColTile) {
    const Vf b0 = LoadV(panel);
    const Vf b1 = LoadV(panel + kSimdWidth);
    for (int r = 0; r < MR; ++r) {
      const Vf av = Splat(a[r * rs]);
      acc0[r] += av * b0;
      acc1[r] += av * b1;
    }
  }
  const int j0n = std::min(jn, kSimdWidth);
  for (int r = 0; r < MR; ++r) {
    float* crow = c + static_cast<std::size_t>(r) * ldc;
    StoreLanes<kAccumulate>(crow, acc0[r], j0n);
    StoreLanes<kAccumulate>(crow + kSimdWidth, acc1[r], jn - j0n);
  }
}

template <int MR, bool kAccumulate>
inline void GemmRowBlock(const float* a, std::size_t rs, std::size_t ps,
                         const float* packed, int kred, float* c, int ncols) {
  const int panels = (ncols + kGemmColTile - 1) / kGemmColTile;
  for (int pj = 0; pj < panels; ++pj) {
    const float* panel =
        packed + static_cast<std::size_t>(pj) * kred * kGemmColTile;
    const int jn = std::min(kGemmColTile, ncols - pj * kGemmColTile);
    MicroKernel<MR, kAccumulate>(a, rs, ps, panel, kred,
                                 c + pj * kGemmColTile, ncols, jn);
  }
}

/// Output rows [i0, i1) of a product whose right operand is packed over
/// `kred` reduction steps into `ncols` columns; row i of the row operand
/// starts at a + i * rs.
template <bool kAccumulate>
void GemmRows(const float* a, std::size_t rs, std::size_t ps,
              const float* packed, int kred, float* c, int ncols,
              std::int64_t i0, std::int64_t i1) {
  std::int64_t i = i0;
  for (; i + kGemmRowTile <= i1; i += kGemmRowTile) {
    GemmRowBlock<kGemmRowTile, kAccumulate>(a + i * rs, rs, ps, packed, kred,
                                            c + i * ncols, ncols);
  }
  const float* ai = a + i * rs;
  float* ci = c + i * ncols;
  switch (static_cast<int>(i1 - i)) {
    case 1:
      GemmRowBlock<1, kAccumulate>(ai, rs, ps, packed, kred, ci, ncols);
      break;
    case 2:
      GemmRowBlock<2, kAccumulate>(ai, rs, ps, packed, kred, ci, ncols);
      break;
    case 3:
      GemmRowBlock<3, kAccumulate>(ai, rs, ps, packed, kred, ci, ncols);
      break;
    case 4:
      GemmRowBlock<4, kAccumulate>(ai, rs, ps, packed, kred, ci, ncols);
      break;
    case 5:
      GemmRowBlock<5, kAccumulate>(ai, rs, ps, packed, kred, ci, ncols);
      break;
    default: break;
  }
}

}  // namespace

std::int64_t GemmPackedSize(int k, int n) {
  const std::int64_t panels = (n + kGemmColTile - 1) / kGemmColTile;
  return panels * static_cast<std::int64_t>(k) * kGemmColTile;
}

void GemmPackB(const float* b, int k, int n, float* packed) {
  const int panels = (n + kGemmColTile - 1) / kGemmColTile;
  for (int pj = 0; pj < panels; ++pj) {
    const int j0 = pj * kGemmColTile;
    const int jn = std::min(kGemmColTile, n - j0);
    float* dst = packed + static_cast<std::size_t>(pj) * k * kGemmColTile;
    for (int p = 0; p < k; ++p, dst += kGemmColTile) {
      std::memcpy(dst, b + static_cast<std::size_t>(p) * n + j0,
                  sizeof(float) * static_cast<std::size_t>(jn));
      std::fill(dst + jn, dst + kGemmColTile, 0.0f);
    }
  }
}

void GemmPackBT(const float* b, int k, int n, float* packed) {
  const int panels = (k + kGemmColTile - 1) / kGemmColTile;
  for (int pp = 0; pp < panels; ++pp) {
    const int p0 = pp * kGemmColTile;
    const int pn = std::min(kGemmColTile, k - p0);
    float* dst = packed + static_cast<std::size_t>(pp) * n * kGemmColTile;
    if (pn < kGemmColTile) {
      std::fill(dst, dst + static_cast<std::size_t>(n) * kGemmColTile, 0.0f);
    }
    for (int c = 0; c < pn; ++c) {
      const float* brow = b + static_cast<std::size_t>(p0 + c) * n;
      for (int j = 0; j < n; ++j) dst[j * kGemmColTile + c] = brow[j];
    }
  }
}

void GemmRowsPacked(const float* a, const float* packed, float* c, int k,
                    int n, std::int64_t i0, std::int64_t i1) {
  GemmRows<false>(a, k, 1, packed, k, c, n, i0, i1);
}

void GemmGradARowsPacked(const float* dc, const float* packed_bt, float* da,
                         int k, int n, std::int64_t i0, std::int64_t i1) {
  GemmRows<true>(dc, n, 1, packed_bt, n, da, k, i0, i1);
}

void GemmGradBRowsPacked(const float* a, const float* packed_dc, float* db,
                         int m, int k, int n, std::int64_t p0,
                         std::int64_t p1) {
  GemmRows<true>(a, 1, k, packed_dc, m, db, n, p0, p1);
}

void GemmGradBRowsGemv(const float* a, const float* dc, float* db, int m,
                       int k, std::int64_t p0, std::int64_t p1) {
  // Lanes run over p; each lane is one FMA chain over ascending i, exactly
  // the chain the tiled kernel would build for that dB element. The 4-vector
  // block reads each A row once per 32 columns instead of once per 8 (over 2x
  // on BM_MatMulGradBTowerHead, 4-core AVX-512 x86); the per-vector loop
  // finishes the tail.
  constexpr int kVecs = 4;
  std::int64_t p = p0;
  for (; p + kVecs * kSimdWidth <= p1; p += kVecs * kSimdWidth) {
    Vf acc[kVecs] = {};
    const float* ai = a + p;
    for (int i = 0; i < m; ++i, ai += k) {
      const Vf g = Splat(dc[i]);
      for (int v = 0; v < kVecs; ++v) {
        acc[v] += g * LoadV(ai + v * kSimdWidth);
      }
    }
    for (int v = 0; v < kVecs; ++v) {
      StoreLanes<true>(db + p + v * kSimdWidth, acc[v], kSimdWidth);
    }
  }
  for (; p < p1; p += kSimdWidth) {
    const int lanes =
        static_cast<int>(std::min<std::int64_t>(kSimdWidth, p1 - p));
    Vf acc = Vf{};
    const float* ai = a + p;
    for (int i = 0; i < m; ++i, ai += k) {
      acc += Splat(dc[i]) * LoadLanes(ai, lanes);
    }
    StoreLanes<true>(db + p, acc, lanes);
  }
}

namespace {

/// Transposes the 8 x 8 block whose rows are r[0..7] in place, so r[p]
/// becomes column p: (r[0][p], ..., r[7][p]).
inline void Transpose8x8(Vf r[kSimdWidth]) {
  Vf t[kSimdWidth], u[kSimdWidth];
  for (int q = 0; q < 4; ++q) {
    t[2 * q] = __builtin_shufflevector(r[2 * q], r[2 * q + 1], 0, 8, 1, 9, 4,
                                       12, 5, 13);
    t[2 * q + 1] = __builtin_shufflevector(r[2 * q], r[2 * q + 1], 2, 10, 3,
                                           11, 6, 14, 7, 15);
  }
  for (int h = 0; h < 2; ++h) {
    for (int q = 0; q < 2; ++q) {
      const Vf lo = t[4 * h + q], hi = t[4 * h + q + 2];
      u[4 * h + 2 * q] =
          __builtin_shufflevector(lo, hi, 0, 1, 8, 9, 4, 5, 12, 13);
      u[4 * h + 2 * q + 1] =
          __builtin_shufflevector(lo, hi, 2, 3, 10, 11, 6, 7, 14, 15);
    }
  }
  for (int q = 0; q < 4; ++q) {
    r[q] = __builtin_shufflevector(u[q], u[q + 4], 0, 1, 2, 3, 8, 9, 10, 11);
    r[q + 4] =
        __builtin_shufflevector(u[q], u[q + 4], 4, 5, 6, 7, 12, 13, 14, 15);
  }
}

/// n = 1 forward, rows [i0, i0 + 8 * blocks): SIMD lanes over eight rows,
/// one FMA chain per row over ascending p, the chain the micro-kernel builds
/// for that output, then the epilogue. `w` is B's column at stride `ws`.
void DenseRowsGemv(const float* a, const float* w, std::size_t ws, float bias,
                   bool relu, float* y, int k, std::int64_t i0,
                   std::int64_t blocks) {
  for (std::int64_t blk = 0; blk < blocks; ++blk) {
    const float* rows = a + (i0 + blk * kSimdWidth) * k;
    Vf acc = Vf{};
    int p = 0;
    for (; p + kSimdWidth <= k; p += kSimdWidth) {
      Vf col[kSimdWidth];
      for (int r = 0; r < kSimdWidth; ++r) {
        col[r] = LoadV(rows + static_cast<std::size_t>(r) * k + p);
      }
      Transpose8x8(col);
      for (int q = 0; q < kSimdWidth; ++q) {
        acc += col[q] * Splat(w[(p + q) * ws]);
      }
    }
    for (; p < k; ++p) {
      Vf col;
      for (int r = 0; r < kSimdWidth; ++r) {
        col[r] = rows[static_cast<std::size_t>(r) * k + p];
      }
      acc += col * Splat(w[p * ws]);
    }
    Vf v = acc + Splat(bias);
    if (relu) v = VMax(v, Vf{});
    StoreV(y + i0 + blk * kSimdWidth, v);
  }
}

}  // namespace

void DenseRowsPacked(const float* a, const float* packed, const float* bias,
                     bool relu, float* y, int k, int n, std::int64_t i0,
                     std::int64_t i1) {
  if (n == 1) {
    // The 1-unit heads: a 16-column panel would be 15/16 padding. Whole
    // 8-row blocks run the row-lane GEMV, the ragged rows fall through to
    // the panel kernel below; both build the same chains.
    const std::int64_t blocks = (i1 - i0) / kSimdWidth;
    DenseRowsGemv(a, packed, kGemmColTile, bias[0], relu, y, k, i0, blocks);
    i0 += blocks * kSimdWidth;
  }
  // Blocks of a few row tiles, so the epilogue rereads rows the micro-kernel
  // has just stored while they are still in L1. The GEMM is partition-
  // invariant, so the blocking changes no bit.
  constexpr std::int64_t kBlockRows = 8 * kGemmRowTile;
  for (std::int64_t b0 = i0; b0 < i1; b0 += kBlockRows) {
    const std::int64_t b1 = std::min(i1, b0 + kBlockRows);
    GemmRows<false>(a, k, 1, packed, k, y, n, b0, b1);
    for (std::int64_t i = b0; i < b1; ++i) {
      float* row = y + i * n;
      int j = 0;
      for (; j + kSimdWidth <= n; j += kSimdWidth) {
        Vf v = LoadV(row + j) + LoadV(bias + j);
        if (relu) v = VMax(v, Vf{});
        StoreV(row + j, v);
      }
      // The same two float ops per lane in scalar form: a padded vector here
      // would reload what the micro-kernel's partial store just wrote, and
      // that store-to-load stall costs more than the n = 1 head's GEMM.
      for (; j < n; ++j) {
        const float v = row[j] + bias[j];
        row[j] = relu ? (v > 0.0f ? v : 0.0f) : v;
      }
    }
  }
}

void DenseGradPrepass(const float* dy, const float* y, bool relu, float* dz,
                      float* packed_dz, float* db, int m, int n) {
  // Panel-outer, row-inner: the packed panel is written sequentially and the
  // panel's bias sums stay in registers across all m rows. Each bias lane is
  // one add chain over ascending rows, the order of Add's column loop.
  for (int j0 = 0; j0 < n; j0 += kGemmColTile) {
    const int n0 = std::min(kSimdWidth, n - j0);
    const int n1 = std::min(kSimdWidth, n - j0 - n0);
    const auto load = [](const float* p, int lanes) {
      return lanes > 0 ? LoadLanes(p, lanes) : Vf{};
    };
    Vf sum0 = db != nullptr ? load(db + j0, n0) : Vf{};
    Vf sum1 = db != nullptr ? load(db + j0 + kSimdWidth, n1) : Vf{};
    float* panel =
        packed_dz != nullptr ? packed_dz + static_cast<std::size_t>(j0) * m
                             : nullptr;
    for (int i = 0; i < m; ++i) {
      const std::size_t off = static_cast<std::size_t>(i) * n + j0;
      Vf t0 = load(dy + off, n0);
      Vf t1 = load(dy + off + kSimdWidth, n1);
      if (relu) {
        t0 = Vf{} + ((load(y + off, n0) > Vf{}) ? t0 : Vf{});
        t1 = Vf{} + ((load(y + off + kSimdWidth, n1) > Vf{}) ? t1 : Vf{});
      }
      sum0 += t0;
      sum1 += t1;
      const Vf d0 = Vf{} + t0;
      const Vf d1 = Vf{} + t1;
      StoreLanes<false>(dz + off, d0, n0);
      StoreLanes<false>(dz + off + kSimdWidth, d1, n1);
      if (panel != nullptr) {
        // Padding lanes loaded as zero stay +0: the panel's zero padding.
        StoreV(panel + static_cast<std::size_t>(i) * kGemmColTile, d0);
        StoreV(panel + static_cast<std::size_t>(i) * kGemmColTile + kSimdWidth,
               d1);
      }
    }
    if (db != nullptr) {
      StoreLanes<false>(db + j0, sum0, n0);
      StoreLanes<false>(db + j0 + kSimdWidth, sum1, n1);
    }
  }
}

// --- Elementwise maps ------------------------------------------------------
// Each body runs one lane-wise vector expression over full blocks, then the
// SAME expression on a zero-padded register for the tail; only valid lanes
// are stored, so results are independent of where [i0, i1) starts and ends.

#define DCMT_MAP_BODY(EXPR_V)                                      \
  std::int64_t i = i0;                                             \
  for (; i + kSimdWidth <= i1; i += kSimdWidth) {                  \
    const Vf x = LoadV(xp + i);                                    \
    StoreV(yp + i, (EXPR_V));                                      \
  }                                                                \
  if (i < i1) {                                                    \
    const int r = static_cast<int>(i1 - i);                        \
    const Vf x = LoadPartial(xp + i, r);                           \
    StorePartial(yp + i, (EXPR_V), r);                             \
  }

#define DCMT_MAP_GRAD_BODY(EXPR_V)                                 \
  std::int64_t i = i0;                                             \
  for (; i + kSimdWidth <= i1; i += kSimdWidth) {                  \
    const Vf s = LoadV(sp + i);                                    \
    const Vf g = LoadV(gp + i);                                    \
    StoreV(xg + i, LoadV(xg + i) + (EXPR_V));                      \
  }                                                                \
  if (i < i1) {                                                    \
    const int r = static_cast<int>(i1 - i);                        \
    const Vf s = LoadPartial(sp + i, r);                           \
    const Vf g = LoadPartial(gp + i, r);                           \
    StorePartial(xg + i, LoadPartial(xg + i, r) + (EXPR_V), r);    \
  }

void MapSigmoid(const float* xp, float* yp, std::int64_t i0, std::int64_t i1) {
  DCMT_MAP_BODY(VSigmoid(x))
}

void MapSigmoidGrad(const float* sp, const float* gp, float* xg,
                    std::int64_t i0, std::int64_t i1) {
  DCMT_MAP_GRAD_BODY(g * (s * (Splat(1.0f) - s)))
}

void MapRelu(const float* xp, float* yp, std::int64_t i0, std::int64_t i1) {
  DCMT_MAP_BODY(VMax(x, Vf{}))
}

void MapReluGrad(const float* sp, const float* gp, float* xg, std::int64_t i0,
                 std::int64_t i1) {
  DCMT_MAP_GRAD_BODY((s > Vf{}) ? g : Vf{})
}

void MapTanh(const float* xp, float* yp, std::int64_t i0, std::int64_t i1) {
  DCMT_MAP_BODY(VTanh(x))
}

void MapTanhGrad(const float* sp, const float* gp, float* xg, std::int64_t i0,
                 std::int64_t i1) {
  DCMT_MAP_GRAD_BODY(g * (Splat(1.0f) - s * s))
}

void MapExp(const float* xp, float* yp, std::int64_t i0, std::int64_t i1) {
  DCMT_MAP_BODY(VExp(x))
}

void MapExpGrad(const float* sp, const float* gp, float* xg, std::int64_t i0,
                std::int64_t i1) {
  DCMT_MAP_GRAD_BODY(g * s)
}

void MapLog(const float* xp, float* yp, float eps, std::int64_t i0,
            std::int64_t i1) {
  DCMT_MAP_BODY(VLog(VMax(x, Splat(eps))))
}

void MapLogGrad(const float* sp, const float* gp, float* xg, float eps,
                std::int64_t i0, std::int64_t i1) {
  DCMT_MAP_GRAD_BODY(g / VMax(s, Splat(eps)))
}

void MapSoftplus(const float* xp, float* yp, std::int64_t i0,
                 std::int64_t i1) {
  DCMT_MAP_BODY(VSoftplus(x))
}

void MapSoftplusGrad(const float* sp, const float* gp, float* xg,
                     std::int64_t i0, std::int64_t i1) {
  DCMT_MAP_GRAD_BODY(g * VSigmoid(s))
}

#undef DCMT_MAP_BODY
#undef DCMT_MAP_GRAD_BODY

void MapBce(const float* p, const float* y, float* out, float eps,
            std::int64_t i0, std::int64_t i1) {
  const auto expr = [eps](Vf pv, Vf yv) {
    const Vf pc = VClamp(pv, eps, 1.0f - eps);
    return -yv * VLog(pc) - (Splat(1.0f) - yv) * VLog(Splat(1.0f) - pc);
  };
  std::int64_t i = i0;
  for (; i + kSimdWidth <= i1; i += kSimdWidth) {
    StoreV(out + i, expr(LoadV(p + i), LoadV(y + i)));
  }
  if (i < i1) {
    const int r = static_cast<int>(i1 - i);
    StorePartial(out + i, expr(LoadPartial(p + i, r), LoadPartial(y + i, r)),
                 r);
  }
}

void MapBceGrad(const float* p, const float* y, const float* g, float* pg,
                float* yg, float eps, std::int64_t i0, std::int64_t i1) {
  const auto dpred = [eps](Vf pv, Vf yv, Vf gv) {
    const Vf pc = VClamp(pv, eps, 1.0f - eps);
    return gv * ((pc - yv) / (pc * (Splat(1.0f) - pc)));
  };
  const auto dtarget = [eps](Vf pv, Vf gv) {
    const Vf pc = VClamp(pv, eps, 1.0f - eps);
    return gv * (VLog(Splat(1.0f) - pc) - VLog(pc));
  };
  std::int64_t i = i0;
  for (; i + kSimdWidth <= i1; i += kSimdWidth) {
    const Vf pv = LoadV(p + i);
    const Vf yv = LoadV(y + i);
    const Vf gv = LoadV(g + i);
    if (pg != nullptr) StoreV(pg + i, LoadV(pg + i) + dpred(pv, yv, gv));
    if (yg != nullptr) StoreV(yg + i, LoadV(yg + i) + dtarget(pv, gv));
  }
  if (i < i1) {
    const int r = static_cast<int>(i1 - i);
    const Vf pv = LoadPartial(p + i, r);
    const Vf yv = LoadPartial(y + i, r);
    const Vf gv = LoadPartial(g + i, r);
    if (pg != nullptr) {
      StorePartial(pg + i, LoadPartial(pg + i, r) + dpred(pv, yv, gv), r);
    }
    if (yg != nullptr) {
      StorePartial(yg + i, LoadPartial(yg + i, r) + dtarget(pv, gv), r);
    }
  }
}

void MapSigmoidBce(const float* z, const float* y, float* out, std::int64_t i0,
                   std::int64_t i1) {
  const auto expr = [](Vf zv, Vf yv) {
    // max(z,0) - z*y + log(1 + e^-|z|): the standard overflow-free form of
    // BCE-with-logits; algebraically -y log σ(z) - (1-y) log(1-σ(z)).
    const Vf e = VExp(-VAbs(zv));
    return VMax(zv, Vf{}) - zv * yv + VLog(Splat(1.0f) + e);
  };
  std::int64_t i = i0;
  for (; i + kSimdWidth <= i1; i += kSimdWidth) {
    StoreV(out + i, expr(LoadV(z + i), LoadV(y + i)));
  }
  if (i < i1) {
    const int r = static_cast<int>(i1 - i);
    StorePartial(out + i, expr(LoadPartial(z + i, r), LoadPartial(y + i, r)),
                 r);
  }
}

void MapSigmoidBceGrad(const float* z, const float* y, const float* g,
                       float* zg, float* yg, std::int64_t i0,
                       std::int64_t i1) {
  std::int64_t i = i0;
  for (; i + kSimdWidth <= i1; i += kSimdWidth) {
    const Vf zv = LoadV(z + i);
    const Vf yv = LoadV(y + i);
    const Vf gv = LoadV(g + i);
    if (zg != nullptr) {
      StoreV(zg + i, LoadV(zg + i) + gv * (VSigmoid(zv) - yv));
    }
    if (yg != nullptr) StoreV(yg + i, LoadV(yg + i) + gv * -zv);
  }
  if (i < i1) {
    const int r = static_cast<int>(i1 - i);
    const Vf zv = LoadPartial(z + i, r);
    const Vf yv = LoadPartial(y + i, r);
    const Vf gv = LoadPartial(g + i, r);
    if (zg != nullptr) {
      StorePartial(zg + i, LoadPartial(zg + i, r) + gv * (VSigmoid(zv) - yv),
                   r);
    }
    if (yg != nullptr) {
      StorePartial(yg + i, LoadPartial(yg + i, r) + gv * -zv, r);
    }
  }
}

void SoftmaxRowForward(const float* row, float* orow, int n) {
  // Row max (tail padded with the first element, which never wins wrongly).
  Vf vmax = Splat(row[0]);
  int j = 0;
  for (; j + kSimdWidth <= n; j += kSimdWidth) vmax = VMax(vmax, LoadV(row + j));
  float mx = HMax(vmax);
  for (; j < n; ++j) mx = std::max(mx, row[j]);

  // Exponentials and their sum; tail lanes are masked out of the sum.
  const Vf vmx = Splat(mx);
  Vf vsum = Vf{};
  j = 0;
  for (; j + kSimdWidth <= n; j += kSimdWidth) {
    const Vf e = VExp(LoadV(row + j) - vmx);
    StoreV(orow + j, e);
    vsum += e;
  }
  if (j < n) {
    const int r = n - j;
    const Vf e = VExp(LoadPartial(row + j, r) - vmx);
    StorePartial(orow + j, e, r);
    vsum += MaskTail(e, r);
  }
  const float inv = 1.0f / HSum(vsum);

  const Vf vinv = Splat(inv);
  j = 0;
  for (; j + kSimdWidth <= n; j += kSimdWidth) {
    StoreV(orow + j, LoadV(orow + j) * vinv);
  }
  if (j < n) {
    const int r = n - j;
    StorePartial(orow + j, LoadPartial(orow + j, r) * vinv, r);
  }
}

void SoftmaxRowBackward(const float* y, const float* g, float* arow, int n) {
  Vf vdot = Vf{};
  int j = 0;
  for (; j + kSimdWidth <= n; j += kSimdWidth) {
    vdot += LoadV(g + j) * LoadV(y + j);
  }
  if (j < n) {
    vdot += LoadPartial(g + j, n - j) * LoadPartial(y + j, n - j);
  }
  const Vf dot = Splat(HSum(vdot));

  j = 0;
  for (; j + kSimdWidth <= n; j += kSimdWidth) {
    StoreV(arow + j,
           LoadV(arow + j) + LoadV(y + j) * (LoadV(g + j) - dot));
  }
  if (j < n) {
    const int r = n - j;
    StorePartial(arow + j,
                 LoadPartial(arow + j, r) +
                     LoadPartial(y + j, r) * (LoadPartial(g + j, r) - dot),
                 r);
  }
}

double ReduceSum(const float* x, std::int64_t i0, std::int64_t i1) {
  double acc = 0.0;
  for (std::int64_t i = i0; i < i1; ++i) acc += x[i];
  return acc;
}

double ReduceDot(const float* a, const float* w, std::int64_t i0,
                 std::int64_t i1) {
  double acc = 0.0;
  for (std::int64_t i = i0; i < i1; ++i) {
    acc += static_cast<double>(a[i] * w[i]);
  }
  return acc;
}

double ReduceSquares(const float* x, std::int64_t i0, std::int64_t i1) {
  double acc = 0.0;
  for (std::int64_t i = i0; i < i1; ++i) {
    acc += static_cast<double>(x[i] * x[i]);
  }
  return acc;
}

void AccumulateSquareLanes(const float* x, std::int64_t n, double* lanes) {
  Vd acc;
  std::memcpy(&acc, lanes, sizeof(acc));
  std::int64_t i = 0;
  for (; i + kSimdWidth <= n; i += kSimdWidth) {
    const Vd d = __builtin_convertvector(LoadV(x + i), Vd);
    acc += d * d;
  }
  if (i < n) {
    // Zero padding adds +0.0, which leaves every lane's sum unchanged.
    const Vd d = __builtin_convertvector(
        LoadPartial(x + i, static_cast<int>(n - i)), Vd);
    acc += d * d;
  }
  std::memcpy(lanes, &acc, sizeof(acc));
}

void AdamUpdate(float* w, const float* g, float* m, float* v,
                const AdamStepCoeffs& c, std::int64_t i0, std::int64_t i1) {
  const Vf wd = Splat(c.weight_decay);
  const Vf b1 = Splat(c.beta1);
  const Vf b2 = Splat(c.beta2);
  const Vf one_minus_b1 = Splat(1.0f - c.beta1);
  const Vf one_minus_b2 = Splat(1.0f - c.beta2);
  const Vf bias1 = Splat(c.bias1);
  const Vf bias2 = Splat(c.bias2);
  const Vf lr = Splat(c.lr);
  const Vf eps = Splat(c.eps);
  // Written in the scalar reference's expression order, so the compiler
  // contracts the same products into FMAs in both.
  const auto update = [&](Vf& wv, Vf gv, Vf& mv, Vf& vv) {
    const Vf grad = gv + wd * wv;
    mv = b1 * mv + one_minus_b1 * grad;
    vv = b2 * vv + one_minus_b2 * grad * grad;
    const Vf m_hat = mv / bias1;
    const Vf v_hat = vv / bias2;
    wv -= lr * m_hat / (VSqrt(v_hat) + eps);
  };
  std::int64_t i = i0;
  for (; i + kSimdWidth <= i1; i += kSimdWidth) {
    Vf wv = LoadV(w + i);
    Vf mv = LoadV(m + i);
    Vf vv = LoadV(v + i);
    update(wv, LoadV(g + i), mv, vv);
    StoreV(w + i, wv);
    StoreV(m + i, mv);
    StoreV(v + i, vv);
  }
  if (i < i1) {
    const int r = static_cast<int>(i1 - i);
    Vf wv = LoadPartial(w + i, r);
    Vf mv = LoadPartial(m + i, r);
    Vf vv = LoadPartial(v + i, r);
    update(wv, LoadPartial(g + i, r), mv, vv);
    StorePartial(w + i, wv, r);
    StorePartial(m + i, mv, r);
    StorePartial(v + i, vv, r);
  }
}

}  // namespace kernels
}  // namespace dcmt
