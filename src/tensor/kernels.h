#ifndef DCMT_TENSOR_KERNELS_H_
#define DCMT_TENSOR_KERNELS_H_

#include <cstdint>

namespace dcmt {
namespace kernels {

// SIMD compute kernels behind ops.cc (DESIGN.md §14).
//
// Everything here is a pure function over raw row-major float buffers: no
// Tensor, no autograd, no threading. The GEMM callers in ops.cc and the
// optimizers own partitioning (ParallelFor) and call a kernel per chunk; the
// other ops call a kernel once over the whole range. Kernels own the
// vectorized inner loops.
//
// Vectorization uses GCC/Clang portable vector extensions (8-wide float,
// 32 bytes — one AVX2 register, two SSE/NEON registers on narrower targets);
// no intrinsics headers and no new dependencies.
//
// Determinism contract (load-bearing — see DESIGN.md §14):
//  * Every Map* kernel is LANE-WISE: element i's result depends only on
//    x[i], never on its position within a SIMD block. Ragged heads/tails are
//    computed with the same vector code on zero-padded registers, so
//    splitting [0,N) at ANY boundary (a micro-batch's rows, a ParallelFor
//    chunk) reproduces the unsplit results bit for bit.
//  * Forward and both backward GEMMs run one register-tiled micro-kernel.
//    It gives each output element a single fused multiply-add chain over
//    the ascending reduction index (k forward, n for dA, m for dB),
//    identical in every row-tile variant; the backward entry points then
//    add the finished chain into the gradient in one add. So an output is
//    bit-identical regardless of how rows are chunked across threads or
//    which row-remainder kernel computes it. The n = 1 dB GEMV and the
//    n = 1 dense forward GEMV build the same chain for each element.
//  * The dense forward reads W row-major in place at every row count; only
//    the backward operands (Bᵀ, dC) and MatMul are packed into 16-column
//    panels. A panel row holds exactly W[p][j0..j0+15], so the chain over p
//    is the same either way and DenseRows matches GemmRowsPacked bit for
//    bit (kernel_test's DenseBitIdenticalToComposite).
//  * Transcendentals (VExp/VLog inside) are polynomial implementations that
//    agree with libm to a few ulp but are NOT bit-identical to libm; exact
//    identities that tests rely on are preserved by construction:
//    exp(0) == 1, log(1) == 0, sigmoid(0) == 0.5.

/// SIMD lane count of the float vectors used throughout.
inline constexpr int kSimdWidth = 8;
/// GEMM register tile: kGemmRowTile x kGemmColTile outputs per micro-kernel
/// invocation (kGemmColTile = two SIMD registers of columns).
inline constexpr int kGemmRowTile = 6;
inline constexpr int kGemmColTile = 16;

// --- GEMM: C[m x n] = A[m x k] * B[k x n] ----------------------------------

/// Floats required for the packed image of B (zero-padded 16-column panels).
std::int64_t GemmPackedSize(int k, int n);

/// Packs row-major B[k x n] into column panels: packed[panel][p][0..15] holds
/// B[p][16*panel .. 16*panel+15], zero-padded past column n. Padding lanes
/// contribute exact zeros to the micro-kernel accumulators, so ragged column
/// counts need no scalar epilogue.
void GemmPackB(const float* b, int k, int n, float* packed);

/// Computes output rows [i0, i1) of C = A * B from packed B (overwrites C).
/// Safe to call concurrently for disjoint row ranges.
void GemmRowsPacked(const float* a, const float* packed, float* c, int k,
                    int n, std::int64_t i0, std::int64_t i1);

// --- Backward GEMMs for C = A * B: dA += dC * B^T, dB += A^T * dC ---------
// All accumulate into the gradient buffer and are safe to call concurrently
// for disjoint row ranges.

/// Packs B^T (B row-major [k x n]) like GemmPackB packs a [n x k] matrix:
/// packed[panel][j][0..15] holds B[16*panel .. 16*panel+15][j], zero-padded
/// past row k. Needs GemmPackedSize(n, k) floats.
void GemmPackBT(const float* b, int k, int n, float* packed);

/// Accumulates rows [i0, i1) of dA += dC * B^T from GemmPackBT(B); dC is the
/// row operand and the reduction runs over n.
void GemmGradARowsPacked(const float* dc, const float* packed_bt, float* da,
                         int k, int n, std::int64_t i0, std::int64_t i1);

/// Accumulates rows [p0, p1) of dB += A^T * dC from GemmPackB(dC, m, n). The
/// row operand is A read as A^T (A[i][p..p+6) is contiguous, so no
/// transpose) and the reduction runs over m.
void GemmGradBRowsPacked(const float* a, const float* packed_dc, float* db,
                         int m, int k, int n, std::int64_t p0,
                         std::int64_t p1);

/// n = 1: entries [p0, p1) of the GEMV dB[p] += sum_i A[i][p] * dC[i], with
/// SIMD lanes over p and i ascending. No packing.
void GemmGradBRowsGemv(const float* a, const float* dc, float* db, int m,
                       int k, std::int64_t p0, std::int64_t p1);

// --- Fused dense layer: Y = act(A * B + bias), act = ReLU or identity ------

/// Rows [i0, i1) of Y from row-major W [k x n], read in place (no pack):
/// the GemmRowsPacked micro-kernel at B row stride n, then a lane-wise
/// epilogue y = c + bias[j] and, when `relu`, max(y, 0) — the exact float
/// ops of Add's row broadcast and MapRelu, so Y is bit-identical to the
/// MatMul + Add + Relu composite. No load reads past W's last element. At
/// n = 1 whole 8-row blocks run a row-lane GEMV that builds the same FMA
/// chains. Safe to call concurrently for disjoint row ranges.
void DenseRows(const float* a, const float* w, const float* bias, bool relu,
               float* y, int k, int n, std::int64_t i0, std::int64_t i1);

/// Backward pre-pass of the fused dense layer, one serial sweep over dY
/// [m x n] (`y` is the layer output, read only when `relu`). With
/// t = relu ? 0 + (y > 0 ? dY : 0) : dY, it adds t into `db` (when non-null)
/// in ascending row order, as Add's backward would, and writes the GEMM
/// gradient dZ = 0 + t row-major into `dz` and, when `packed_dz` is
/// non-null, also in GemmPackB(dZ, m, n) layout. The `0 +` reproduces the
/// composite's accumulate-into-zeroed-gradient, sign of zero included.
void DenseGradPrepass(const float* dy, const float* y, bool relu, float* dz,
                      float* packed_dz, float* db, int m, int n);

// --- Elementwise maps over [i0, i1) of contiguous buffers ------------------
// Forward kernels overwrite y; *Grad kernels ACCUMULATE into the gradient
// buffer (xg += g * d/dx), matching autograd's += contract.

void MapSigmoid(const float* x, float* y, std::int64_t i0, std::int64_t i1);
/// xg += g * y * (1 - y); `y` is the sigmoid output.
void MapSigmoidGrad(const float* y, const float* g, float* xg, std::int64_t i0,
                    std::int64_t i1);

void MapRelu(const float* x, float* y, std::int64_t i0, std::int64_t i1);
void MapReluGrad(const float* x, const float* g, float* xg, std::int64_t i0,
                 std::int64_t i1);

void MapTanh(const float* x, float* y, std::int64_t i0, std::int64_t i1);
/// xg += g * (1 - y^2); `y` is the tanh output.
void MapTanhGrad(const float* y, const float* g, float* xg, std::int64_t i0,
                 std::int64_t i1);

void MapSoftplus(const float* x, float* y, std::int64_t i0, std::int64_t i1);
/// xg += g * sigmoid(x).
void MapSoftplusGrad(const float* x, const float* g, float* xg,
                     std::int64_t i0, std::int64_t i1);

/// out[i] = -y[i] log(p') - (1-y[i]) log(1-p'), p' = clamp(p[i], eps, 1-eps).
void MapBce(const float* p, const float* y, float* out, float eps,
            std::int64_t i0, std::int64_t i1);
/// pg += g * (p'-y)/(p'(1-p')) and/or yg += g * log((1-p')/p'); either
/// gradient pointer may be null.
void MapBceGrad(const float* p, const float* y, const float* g, float* pg,
                float* yg, float eps, std::int64_t i0, std::int64_t i1);

/// Fused sigmoid + BCE on logits z: out[i] = max(z,0) - z*y + log1p(e^-|z|).
/// Needs no probability clamp — the logit form is finite for all z.
void MapSigmoidBce(const float* z, const float* y, float* out, std::int64_t i0,
                   std::int64_t i1);
/// zg += g * (sigmoid(z) - y) and/or yg += g * (-z); either may be null.
void MapSigmoidBceGrad(const float* z, const float* y, const float* g,
                       float* zg, float* yg, std::int64_t i0, std::int64_t i1);

// --- Row kernels (one call per matrix row; row-local, any row partition) ---

/// orow = softmax(row) over n columns (max-subtracted, vectorized).
void SoftmaxRowForward(const float* row, float* orow, int n);
/// arow += y * (g - dot(g, y)) for one row of n columns; `y` is the softmax
/// output row.
void SoftmaxRowBackward(const float* y, const float* g, float* arow, int n);

// --- Full reductions (scalar loops, double accumulators) -------------------
// These are deliberately NOT vectorized: they reproduce, bit for bit, the
// serial accumulation order of the reference composites (Sum, Sum∘Mul)
// that the fused Mean/WeightedSum ops replace.

/// sum_{i in [i0,i1)} x[i], accumulated in double.
double ReduceSum(const float* x, std::int64_t i0, std::int64_t i1);
/// sum (a[i]*w[i]) — float product first (as Mul would round), then widened.
double ReduceDot(const float* a, const float* w, std::int64_t i0,
                 std::int64_t i1);

// --- Optimizer tail (optim::Optimizer::ClipGradNorm, optim::Adam) ----------

/// lanes[l] += (double)x[i] * x[i] for every i in [0, n) with i % 8 == l,
/// each lane in ascending i. `lanes` holds kSimdWidth doubles. The squares
/// are exact in double, so a lane's value depends only on which elements
/// reach it and in what order — a pure function of the caller's layout.
void AccumulateSquareLanes(const float* x, std::int64_t n, double* lanes);

/// Hyperparameters of one Adam step; bias1/bias2 are 1 - beta^t.
struct AdamStepCoeffs {
  float lr;
  float beta1;
  float beta2;
  float eps;
  float weight_decay;
  float bias1;
  float bias2;
};

/// Adam with coupled L2 over [i0, i1), lane-wise:
///   grad = g + wd*w; m = b1*m + (1-b1)*grad; v = b2*v + (1-b2)*grad*grad;
///   w -= lr * (m/bias1) / (sqrt(v/bias2) + eps).
/// The ragged tail runs the same vector code on zero-padded registers, and
/// sqrt and division are correctly rounded, so any split of [i0, i1) gives
/// the bits of the scalar loop written in this expression form.
void AdamUpdate(float* w, const float* g, float* m, float* v,
                const AdamStepCoeffs& c, std::int64_t i0, std::int64_t i1);

}  // namespace kernels
}  // namespace dcmt

#endif  // DCMT_TENSOR_KERNELS_H_
