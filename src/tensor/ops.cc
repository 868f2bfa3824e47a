#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/thread_pool.h"
#include "tensor/kernels.h"

namespace dcmt {
namespace ops {
namespace {

// Every backward closure below captures the *output* node as a raw
// Tensor::Impl* — the closure is owned by that node, so the pointer is valid
// exactly as long as the closure can run. Capturing the output as a Tensor
// handle would create a shared_ptr cycle and leak the entire upstream graph
// (see Tensor::SetBackwardFn).
//
// Threading: only the GEMMs (MatMul, Dense and their backward) and the
// micro-batch join fan out, with core::ParallelFor over disjoint output rows;
// the vectorized inner loops live in tensor/kernels.cc. Elementwise,
// row-wise and scatter ops and the full reductions are plain loops over the
// whole range: a taped step of 512 or more rows already runs each
// micro-batch's ops on its own core (DESIGN.md §9), and smaller shapes are
// too little work to pay for a dispatch. Every value here is therefore a
// function of the inputs alone, never of the thread count.

using core::ParallelFor;

/// Minimum multiply-adds per chunk for matmul-shaped kernels, derived from
/// the pool's dispatch cost (DESIGN.md §9). A dispatch costs ~1-2us while
/// the workers are spinning; 2^19 multiply-adds is ~25us of single-thread
/// GEMM work, so every chunk is worth an order of magnitude more than its
/// hand-off. The tower GEMMs of a 1024-row batch (1024x112->64,
/// 1024x64->32) split four ways in the forward pass and in both backward
/// products; the n = 1 heads stay single-chunk.
constexpr std::int64_t kMatMulGrain = 524288;

/// Row grain so each chunk holds at least `work` scalar ops at `per_row`
/// ops per row.
inline std::int64_t RowGrain(std::int64_t work, std::int64_t per_row) {
  return std::max<std::int64_t>(1, work / std::max<std::int64_t>(1, per_row));
}

[[noreturn]] void Fatal(const char* msg) {
  std::fprintf(stderr, "dcmt ops fatal: %s\n", msg);
  std::abort();
}

/// How the second operand of a binary op maps onto the first.
enum class Broadcast { kSame, kRow, kCol, kScalar };

Broadcast BroadcastKind(const Tensor& a, const Tensor& b) {
  if (b.rows() == a.rows() && b.cols() == a.cols()) return Broadcast::kSame;
  if (b.rows() == 1 && b.cols() == 1) return Broadcast::kScalar;
  if (b.rows() == 1 && b.cols() == a.cols()) return Broadcast::kRow;
  if (b.rows() == a.rows() && b.cols() == 1) return Broadcast::kCol;
  Fatal("incompatible shapes for broadcast binary op");
}

/// Index of b's element corresponding to a's element (r, c).
inline std::size_t BIndex(Broadcast k, int r, int c, int bcols) {
  switch (k) {
    case Broadcast::kSame:
      return static_cast<std::size_t>(r) * bcols + c;
    case Broadcast::kRow:
      return static_cast<std::size_t>(c);
    case Broadcast::kCol:
      return static_cast<std::size_t>(r);
    case Broadcast::kScalar:
      return 0;
  }
  return 0;
}

bool AnyRequiresGrad(const Tensor& a, const Tensor& b) {
  return a.requires_grad() || b.requires_grad();
}

/// Builds a binary elementwise node for the plain-arithmetic family (add,
/// mul, ...). `fwd(av, bv)` computes the value; `dfda` / `dfdb` compute
/// local partials given (av, bv, out). The transcendental family bypasses
/// this template for the vectorized kernels in tensor/kernels.cc.
template <typename Fwd, typename DfDa, typename DfDb>
Tensor BinaryOp(const char* op, const Tensor& a, const Tensor& b, Fwd fwd,
                DfDa dfda, DfDb dfdb) {
  const Broadcast kind = BroadcastKind(a, b);
  const int m = a.rows(), n = a.cols();
  Tensor out = Tensor::MakeNode(m, n, {a, b}, AnyRequiresGrad(a, b));
  out.SetOp(op);
  const float* ad = a.data();
  const float* bd = b.data();
  float* od = out.data();
  const int bcols = b.cols();
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < n; ++c) {
      const std::size_t i = static_cast<std::size_t>(r) * n + c;
      od[i] = fwd(ad[i], bd[BIndex(kind, r, c, bcols)]);
    }
  }
  if (out.requires_grad()) {
    Tensor a_cap = a, b_cap = b;
    Tensor::Impl* self = out.impl();
    out.SetBackwardFn([a_cap, b_cap, self, kind, m, n, dfda, dfdb]() mutable {
      const float* og = self->EnsureGrad();
      const float* out_d = self->data.data();
      const float* a_d = a_cap.data();
      const float* b_d = b_cap.data();
      float* ag = a_cap.requires_grad() ? a_cap.impl()->EnsureGrad() : nullptr;
      float* bg = b_cap.requires_grad() ? b_cap.impl()->EnsureGrad() : nullptr;
      const int b_cols = b_cap.cols();
      // Row-major order: a broadcast b's accumulators take their
      // contributions in ascending (row, column) order.
      for (int r = 0; r < m; ++r) {
        for (int c = 0; c < n; ++c) {
          const std::size_t i = static_cast<std::size_t>(r) * n + c;
          const std::size_t j = BIndex(kind, r, c, b_cols);
          const float g = og[i];
          if (ag != nullptr) ag[i] += g * dfda(a_d[i], b_d[j], out_d[i]);
          if (bg != nullptr) bg[j] += g * dfdb(a_d[i], b_d[j], out_d[i]);
        }
      }
    });
  }
  return out;
}

/// Builds a unary elementwise node; `dfdx(x, y)` is the local derivative.
/// Like BinaryOp, this is the plain-arithmetic path only.
template <typename Fwd, typename DfDx>
Tensor UnaryOp(const char* op, const Tensor& a, Fwd fwd, DfDx dfdx) {
  const int m = a.rows(), n = a.cols();
  Tensor out = Tensor::MakeNode(m, n, {a}, a.requires_grad());
  out.SetOp(op);
  const float* ad = a.data();
  float* od = out.data();
  const std::int64_t total = a.size();
  for (std::int64_t i = 0; i < total; ++i) od[i] = fwd(ad[i]);
  if (out.requires_grad()) {
    Tensor a_cap = a;
    Tensor::Impl* self = out.impl();
    out.SetBackwardFn([a_cap, self, total, dfdx]() mutable {
      const float* og = self->EnsureGrad();
      const float* out_d = self->data.data();
      const float* a_d = a_cap.data();
      float* ag = a_cap.impl()->EnsureGrad();
      for (std::int64_t i = 0; i < total; ++i) {
        ag[i] += og[i] * dfdx(a_d[i], out_d[i]);
      }
    });
  }
  return out;
}

using MapFn = void (*)(const float*, float*, std::int64_t, std::int64_t);
using MapGradFn = void (*)(const float*, const float*, float*, std::int64_t,
                           std::int64_t);

/// Builds a unary node around a vectorized kernel pair from
/// tensor/kernels.cc. `grad_from_output` selects whether the grad kernel's
/// first operand is the op's output (sigmoid/tanh/exp) or its input
/// (relu/softplus).
Tensor UnaryKernelOp(const char* op, const Tensor& a, MapFn fwd, MapGradFn bwd,
                     bool grad_from_output) {
  const int m = a.rows(), n = a.cols();
  Tensor out = Tensor::MakeNode(m, n, {a}, a.requires_grad());
  out.SetOp(op);
  const float* ad = a.data();
  float* od = out.data();
  const std::int64_t total = a.size();
  fwd(ad, od, 0, total);
  if (out.requires_grad()) {
    Tensor a_cap = a;
    Tensor::Impl* self = out.impl();
    out.SetBackwardFn([a_cap, self, total, bwd, grad_from_output]() mutable {
      const float* og = self->EnsureGrad();
      const float* src = grad_from_output ? self->data.data() : a_cap.data();
      float* ag = a_cap.impl()->EnsureGrad();
      bwd(src, og, ag, 0, total);
    });
  }
  return out;
}

/// Per-thread scratch for the GEMM operands packed or staged before a
/// ParallelFor (no allocation in the serving or training steady state). A
/// pointer stays valid through the caller's ParallelFor: worker threads only
/// read it, and MatMul's forward and the GEMM backwards never nest inside
/// one another (Dense's forward reads W in place and packs nothing). Each
/// call reuses its slot's buffer, so what a slot held is dead once the slot
/// is filled again; Dense's backward keeps dZ in two slots while the shared
/// GEMM backward packs B^T into the third.
enum ScratchSlot { kPackedOperand, kDenseGradRows, kPackedGrad, kScratchSlots };

float* GemmScratch(ScratchSlot slot, std::int64_t floats) {
  thread_local std::vector<float> scratch[kScratchSlots];
  std::vector<float>& buf = scratch[slot];
  if (static_cast<std::int64_t>(buf.size()) < floats) {
    buf.resize(static_cast<std::size_t>(floats));
  }
  return buf.data();
}

/// Backward of C = A * B for both MatMul and Dense: dA += dC * B^T and
/// dB += A^T * dC, each when its tensor requires grad. `packed_dc` is
/// GemmPackB(dC, m, n) when the caller already built it (Dense's pre-pass);
/// null means pack here. Both gradients run the forward's micro-kernel on an
/// operand packed once before the ParallelFor. Every gradient element is one
/// FMA chain over its ascending reduction index plus one add into the
/// buffer, so the row partition (thread count) never changes a bit. At n = 1
/// dB skips packing for a GEMV (a 16-lane panel would be 15/16 padding).
void GemmBackward(const float* dc, const float* packed_dc, Tensor& a,
                  Tensor& b, int m, int k, int n) {
  // dL/dA = dL/dC * B^T -> [m x k]; chunks own disjoint rows of dA.
  if (a.requires_grad()) {
    float* ag = a.impl()->EnsureGrad();
    float* bt = GemmScratch(kPackedOperand, kernels::GemmPackedSize(n, k));
    kernels::GemmPackBT(b.data(), k, n, bt);
    ParallelFor(0, m, RowGrain(kMatMulGrain, static_cast<std::int64_t>(k) * n),
                [&](std::int64_t i0, std::int64_t i1) {
                  kernels::GemmGradARowsPacked(dc, bt, ag, k, n, i0, i1);
                });
  }
  // dL/dB = A^T * dL/dC -> [k x n]; chunks own disjoint rows of dB.
  if (b.requires_grad()) {
    float* bg = b.impl()->EnsureGrad();
    const float* a_d = a.data();
    const std::int64_t grain =
        RowGrain(kMatMulGrain, static_cast<std::int64_t>(m) * n);
    if (n == 1) {
      ParallelFor(0, k, grain, [&](std::int64_t p0, std::int64_t p1) {
        kernels::GemmGradBRowsGemv(a_d, dc, bg, m, k, p0, p1);
      });
    } else {
      if (packed_dc == nullptr) {
        float* packed = GemmScratch(kPackedGrad, kernels::GemmPackedSize(m, n));
        kernels::GemmPackB(dc, m, n, packed);
        packed_dc = packed;
      }
      ParallelFor(0, k, grain, [&](std::int64_t p0, std::int64_t p1) {
        kernels::GemmGradBRowsPacked(a_d, packed_dc, bg, m, k, n, p0, p1);
      });
    }
  }
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  if (a.cols() != b.rows()) Fatal("MatMul inner dimensions mismatch");
  const int m = a.rows(), k = a.cols(), n = b.cols();
  Tensor out = Tensor::MakeNode(m, n, {a, b}, AnyRequiresGrad(a, b));
  out.SetOp("matmul");
  const float* ad = a.data();
  float* od = out.data();
  // Packed-panel SIMD GEMM (DESIGN.md §14): B is repacked into 16-column
  // zero-padded panels once, then row chunks run the register-tiled
  // micro-kernel. Output values are invariant to the row partition, so any
  // thread count produces identical bits.
  float* packed = GemmScratch(kPackedOperand, kernels::GemmPackedSize(k, n));
  kernels::GemmPackB(b.data(), k, n, packed);
  ParallelFor(0, m, RowGrain(kMatMulGrain, static_cast<std::int64_t>(k) * n),
              [&](std::int64_t i0, std::int64_t i1) {
                kernels::GemmRowsPacked(ad, packed, od, k, n, i0, i1);
              });
  if (out.requires_grad()) {
    Tensor a_cap = a, b_cap = b;
    Tensor::Impl* self = out.impl();
    out.SetBackwardFn([a_cap, b_cap, self, m, k, n]() mutable {
      GemmBackward(self->EnsureGrad(), /*packed_dc=*/nullptr, a_cap, b_cap, m,
                   k, n);
    });
  }
  return out;
}

Tensor Dense(const Tensor& x, const Tensor& w, const Tensor& b, bool relu) {
  if (x.cols() != w.rows()) Fatal("Dense inner dimensions mismatch");
  if (b.rows() != 1 || b.cols() != w.cols()) {
    Fatal("Dense bias must be a [1 x out] row");
  }
  const int m = x.rows(), k = x.cols(), n = w.cols();
  Tensor out = Tensor::MakeNode(
      m, n, {x, w, b},
      x.requires_grad() || w.requires_grad() || b.requires_grad());
  out.SetOp("dense");
  const float* xd = x.data();
  const float* bd = b.data();
  float* od = out.data();
  // The GEMM micro-kernel reading W in place, with the bias add and ReLU
  // applied to each row block right after it is stored (DESIGN.md §14).
  // W is not packed first: for a 1-2-row served batch that pass over all of
  // W cost more than the product itself.
  const float* wd = w.data();
  ParallelFor(0, m, RowGrain(kMatMulGrain, static_cast<std::int64_t>(k) * n),
              [&](std::int64_t i0, std::int64_t i1) {
                kernels::DenseRows(xd, wd, bd, relu, od, k, n, i0, i1);
              });
  if (out.requires_grad()) {
    Tensor x_cap = x, w_cap = w, b_cap = b;
    Tensor::Impl* self = out.impl();
    out.SetBackwardFn([x_cap, w_cap, b_cap, self, m, k, n, relu]() mutable {
      // One serial pass turns dY into the GEMM gradient dZ (ReLU mask), sums
      // the bias gradient and packs dZ for dW; then the shared GEMM backward.
      float* dz = GemmScratch(kDenseGradRows, static_cast<std::int64_t>(m) * n);
      float* packed_dz =
          w_cap.requires_grad() && n > 1
              ? GemmScratch(kPackedGrad, kernels::GemmPackedSize(m, n))
              : nullptr;
      float* bg = b_cap.requires_grad() ? b_cap.impl()->EnsureGrad() : nullptr;
      kernels::DenseGradPrepass(self->EnsureGrad(), self->data.data(), relu, dz,
                                packed_dz, bg, m, n);
      GemmBackward(dz, packed_dz, x_cap, w_cap, m, k, n);
    });
  }
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "add", a, b, [](float x, float y) { return x + y; },
      [](float, float, float) { return 1.0f; },
      [](float, float, float) { return 1.0f; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "sub", a, b, [](float x, float y) { return x - y; },
      [](float, float, float) { return 1.0f; },
      [](float, float, float) { return -1.0f; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "mul", a, b, [](float x, float y) { return x * y; },
      [](float, float y, float) { return y; },
      [](float x, float, float) { return x; });
}

Tensor Scale(const Tensor& a, float s) {
  return UnaryOp(
      "scale", a, [s](float x) { return x * s; },
      [s](float, float) { return s; });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(
      "add_scalar", a, [s](float x) { return x + s; },
      [](float, float) { return 1.0f; });
}

Tensor Neg(const Tensor& a) {
  return UnaryOp(
      "neg", a, [](float x) { return -x; },
      [](float, float) { return -1.0f; });
}

Tensor OneMinus(const Tensor& a) {
  return UnaryOp(
      "one_minus", a, [](float x) { return 1.0f - x; },
      [](float, float) { return -1.0f; });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryKernelOp("sigmoid", a, kernels::MapSigmoid,
                       kernels::MapSigmoidGrad, /*grad_from_output=*/true);
}

Tensor Relu(const Tensor& a) {
  return UnaryKernelOp("relu", a, kernels::MapRelu, kernels::MapReluGrad,
                       /*grad_from_output=*/false);
}

Tensor Tanh(const Tensor& a) {
  return UnaryKernelOp("tanh", a, kernels::MapTanh, kernels::MapTanhGrad,
                       /*grad_from_output=*/true);
}

Tensor Abs(const Tensor& a) {
  return UnaryOp(
      "abs", a, [](float x) { return std::fabs(x); },
      [](float x, float) { return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f); });
}

Tensor Softplus(const Tensor& a) {
  return UnaryKernelOp("softplus", a, kernels::MapSoftplus,
                       kernels::MapSoftplusGrad, /*grad_from_output=*/false);
}

Tensor Square(const Tensor& a) {
  return UnaryOp(
      "square", a, [](float x) { return x * x; },
      [](float x, float) { return 2.0f * x; });
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  if (parts.empty()) Fatal("ConcatCols needs at least one tensor");
  const int m = parts[0].rows();
  int total_cols = 0;
  bool needs_grad = false;
  for (const Tensor& p : parts) {
    if (p.rows() != m) Fatal("ConcatCols row count mismatch");
    total_cols += p.cols();
    needs_grad = needs_grad || p.requires_grad();
  }
  Tensor out = Tensor::MakeNode(m, total_cols, parts, needs_grad);
  out.SetOp("concat_cols");
  float* od = out.data();
  int col0 = 0;
  for (const Tensor& p : parts) {
    const float* pd = p.data();
    const int pc = p.cols();
    for (int r = 0; r < m; ++r) {
      std::copy(pd + static_cast<std::size_t>(r) * pc,
                pd + static_cast<std::size_t>(r) * pc + pc,
                od + static_cast<std::size_t>(r) * total_cols + col0);
    }
    col0 += pc;
  }
  if (needs_grad) {
    std::vector<Tensor> parts_cap = parts;
    Tensor::Impl* self = out.impl();
    out.SetBackwardFn([parts_cap, self, m, total_cols]() mutable {
      const float* og = self->EnsureGrad();
      int offset = 0;
      for (Tensor& p : parts_cap) {
        const int pc = p.cols();
        if (p.requires_grad()) {
          float* pg = p.impl()->EnsureGrad();
          for (int r = 0; r < m; ++r) {
            const float* src =
                og + static_cast<std::size_t>(r) * total_cols + offset;
            float* dst = pg + static_cast<std::size_t>(r) * pc;
            for (int c = 0; c < pc; ++c) dst[c] += src[c];
          }
        }
        offset += pc;
      }
    });
  }
  return out;
}

Tensor SliceCols(const Tensor& a, int start, int len) {
  if (start < 0 || len <= 0 || start + len > a.cols()) {
    Fatal("SliceCols out of range");
  }
  const int m = a.rows(), n = a.cols();
  Tensor out = Tensor::MakeNode(m, len, {a}, a.requires_grad());
  out.SetOp("slice_cols");
  const float* ad = a.data();
  float* od = out.data();
  // A plain loop rather than a std::copy per row: the slices are mostly
  // one column wide (a micro-batch join's fields), where a memmove call per
  // row costs several times the copy.
  for (int r = 0; r < m; ++r) {
    const float* src = ad + static_cast<std::size_t>(r) * n + start;
    float* dst = od + static_cast<std::size_t>(r) * len;
    for (int c = 0; c < len; ++c) dst[c] = src[c];
  }
  if (out.requires_grad()) {
    Tensor a_cap = a;
    Tensor::Impl* self = out.impl();
    out.SetBackwardFn([a_cap, self, m, n, start, len]() mutable {
      const float* og = self->EnsureGrad();
      float* ag = a_cap.impl()->EnsureGrad();
      for (int r = 0; r < m; ++r) {
        const float* src = og + static_cast<std::size_t>(r) * len;
        float* dst = ag + static_cast<std::size_t>(r) * n + start;
        for (int c = 0; c < len; ++c) dst[c] += src[c];
      }
    });
  }
  return out;
}

Tensor JoinMicroBatches(const std::vector<std::vector<Tensor>>& blocks) {
  if (blocks.empty() || blocks[0].empty()) {
    Fatal("JoinMicroBatches needs at least one block and one column");
  }
  const int micro = static_cast<int>(blocks.size());
  const int f_cols = static_cast<int>(blocks[0].size());
  std::vector<int> row0{0};  // micro-batch k owns rows [row0[k], row0[k+1])
  bool needs_grad = false;
  for (const std::vector<Tensor>& cols : blocks) {
    if (static_cast<int>(cols.size()) != f_cols) {
      Fatal("JoinMicroBatches ragged column lists");
    }
    const int rows = cols[0].rows();
    for (const Tensor& c : cols) {
      if (!c.defined() || c.cols() != 1 || c.rows() != rows) {
        Fatal("JoinMicroBatches wants [rows_k x 1] columns per micro-batch");
      }
      needs_grad = needs_grad || c.requires_grad();
    }
    row0.push_back(row0.back() + rows);
  }
  const int m = row0.back();
  Tensor out = Tensor::MakeNode(m, f_cols, {}, needs_grad);
  out.SetOp("micro_batch_join");
  float* od = out.data();
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    float* block = od + static_cast<std::size_t>(row0[k]) * f_cols;
    for (int f = 0; f < f_cols; ++f) {
      const Tensor& c = blocks[k][static_cast<std::size_t>(f)];
      const float* cd = c.data();
      for (int r = 0; r < c.rows(); ++r) {
        block[static_cast<std::size_t>(r) * f_cols + f] = cd[r];
      }
    }
  }
  if (!needs_grad) return out;

  Tensor::Impl* self = out.impl();
  for (const std::vector<Tensor>& cols : blocks) {
    self->micro_roots.insert(self->micro_roots.end(), cols.begin(), cols.end());
  }
  out.SetBackwardFn([self, micro, f_cols, row0]() {
    const float* og = self->EnsureGrad();
    std::vector<GradSink> sinks(static_cast<std::size_t>(micro));
    ParallelFor(0, micro, 1, [&](std::int64_t k0, std::int64_t k1) {
      for (std::int64_t k = k0; k < k1; ++k) {
        const std::size_t kk = static_cast<std::size_t>(k);
        const float* block = og + static_cast<std::size_t>(row0[kk]) * f_cols;
        const int rows = row0[kk + 1] - row0[kk];
        const std::vector<Tensor> roots(
            self->micro_roots.begin() + k * f_cols,
            self->micro_roots.begin() + (k + 1) * f_cols);
        std::vector<std::vector<float>> seeds(
            static_cast<std::size_t>(f_cols),
            std::vector<float>(static_cast<std::size_t>(rows)));
        for (int r = 0; r < rows; ++r) {
          for (int f = 0; f < f_cols; ++f) {
            seeds[static_cast<std::size_t>(f)][static_cast<std::size_t>(r)] =
                block[static_cast<std::size_t>(r) * f_cols + f];
          }
        }
        const GradSink::Scope scope(&sinks[kk]);
        Tensor::BackwardFrom(roots, seeds);
      }
    });
    GradSink::Reduce(sinks);
  });
  return out;
}

Tensor EmbeddingLookup(const Tensor& table, const std::vector<int>& ids) {
  if (ids.empty()) Fatal("EmbeddingLookup with empty ids");
  const int v = table.rows(), d = table.cols();
  const int b = static_cast<int>(ids.size());
  for (int id : ids) {
    if (id < 0 || id >= v) Fatal("EmbeddingLookup id out of vocabulary range");
  }
  Tensor out = Tensor::MakeNode(b, d, {table}, table.requires_grad());
  out.SetOp("embedding_lookup");
  const float* td = table.data();
  float* od = out.data();
  for (int r = 0; r < b; ++r) {
    const float* src = td + static_cast<std::size_t>(ids[r]) * d;
    std::copy(src, src + d, od + static_cast<std::size_t>(r) * d);
  }
  if (out.requires_grad()) {
    Tensor table_cap = table;
    Tensor::Impl* self = out.impl();
    std::vector<int> ids_cap = ids;
    out.SetBackwardFn([table_cap, self, ids_cap, b, d]() mutable {
      const float* og = self->EnsureGrad();
      float* tg = table_cap.impl()->EnsureGrad();
      // Scatter in ascending batch order: a table row accumulates its
      // duplicate-id contributions in the order the ids appear.
      for (int r = 0; r < b; ++r) {
        const float* src = og + static_cast<std::size_t>(r) * d;
        float* dst = tg + static_cast<std::size_t>(ids_cap[r]) * d;
        for (int c = 0; c < d; ++c) dst[c] += src[c];
      }
    });
  }
  return out;
}

Tensor EmbeddingConcat(const std::vector<Tensor>& tables,
                       const std::vector<std::vector<int>>& field_ids) {
  if (tables.empty()) Fatal("EmbeddingConcat needs at least one table");
  if (field_ids.size() != tables.size()) {
    Fatal("EmbeddingConcat field count mismatch");
  }
  const int b = static_cast<int>(field_ids[0].size());
  if (b == 0) Fatal("EmbeddingConcat with empty ids");
  int total_cols = 0;
  bool needs_grad = false;
  for (std::size_t f = 0; f < tables.size(); ++f) {
    if (static_cast<int>(field_ids[f].size()) != b) {
      Fatal("EmbeddingConcat ragged id lists");
    }
    const int v = tables[f].rows();
    for (int id : field_ids[f]) {
      if (id < 0 || id >= v) Fatal("EmbeddingConcat id out of vocabulary range");
    }
    total_cols += tables[f].cols();
    needs_grad = needs_grad || tables[f].requires_grad();
  }
  Tensor out = Tensor::MakeNode(b, total_cols, tables, needs_grad);
  out.SetOp("embedding_concat");
  float* od = out.data();
  // Fused gather+concat: each output row is assembled directly from the
  // tables — no per-field intermediate tensors, one pass over the output.
  for (int r = 0; r < b; ++r) {
    float* dst = od + static_cast<std::size_t>(r) * total_cols;
    for (std::size_t f = 0; f < tables.size(); ++f) {
      const int d = tables[f].cols();
      const float* src =
          tables[f].data() + static_cast<std::size_t>(field_ids[f][r]) * d;
      std::copy(src, src + d, dst);
      dst += d;
    }
  }
  if (needs_grad) {
    std::vector<Tensor> tables_cap = tables;
    std::vector<std::vector<int>> ids_cap = field_ids;
    Tensor::Impl* self = out.impl();
    out.SetBackwardFn([tables_cap, ids_cap, self, b, total_cols]() mutable {
      const float* og = self->EnsureGrad();
      int offset = 0;
      for (std::size_t f = 0; f < tables_cap.size(); ++f) {
        const int d = tables_cap[f].cols();
        if (tables_cap[f].requires_grad()) {
          float* tg = tables_cap[f].impl()->EnsureGrad();
          const std::vector<int>& ids = ids_cap[f];
          // EmbeddingLookup's ascending-batch-order scatter, reading this
          // field's column slice of the fused gradient.
          for (int r = 0; r < b; ++r) {
            const float* src =
                og + static_cast<std::size_t>(r) * total_cols + offset;
            float* dst = tg + static_cast<std::size_t>(ids[r]) * d;
            for (int c = 0; c < d; ++c) dst[c] += src[c];
          }
        }
        offset += d;
      }
    });
  }
  return out;
}

Tensor Sum(const Tensor& a) {
  Tensor out = Tensor::MakeNode(1, 1, {a}, a.requires_grad());
  out.SetOp("sum");
  const float* ad = a.data();
  const std::int64_t total = a.size();
  // One serial double accumulation over the whole range.
  out.data()[0] = static_cast<float>(kernels::ReduceSum(ad, 0, total));
  if (out.requires_grad()) {
    Tensor a_cap = a;
    Tensor::Impl* self = out.impl();
    out.SetBackwardFn([a_cap, self, total]() mutable {
      const float g = self->EnsureGrad()[0];
      float* ag = a_cap.impl()->EnsureGrad();
      for (std::int64_t i = 0; i < total; ++i) ag[i] += g;
    });
  }
  return out;
}

Tensor Mean(const Tensor& a) {
  // Fused Scale(Sum(a), 1/size): Sum's double accumulation, the 1/size
  // factor applied after the float cast — bit-identical to the two-node
  // composite (ops::reference::Mean) without the intermediate.
  Tensor out = Tensor::MakeNode(1, 1, {a}, a.requires_grad());
  out.SetOp("mean");
  const float* ad = a.data();
  const std::int64_t total = a.size();
  const float inv = 1.0f / static_cast<float>(total);
  out.data()[0] = static_cast<float>(kernels::ReduceSum(ad, 0, total)) * inv;
  if (out.requires_grad()) {
    Tensor a_cap = a;
    Tensor::Impl* self = out.impl();
    out.SetBackwardFn([a_cap, self, total, inv]() mutable {
      const float g = self->EnsureGrad()[0] * inv;
      float* ag = a_cap.impl()->EnsureGrad();
      for (std::int64_t i = 0; i < total; ++i) ag[i] += g;
    });
  }
  return out;
}

Tensor SumRows(const Tensor& a) {
  const int m = a.rows(), n = a.cols();
  Tensor out = Tensor::MakeNode(m, 1, {a}, a.requires_grad());
  out.SetOp("sum_rows");
  const float* ad = a.data();
  float* od = out.data();
  for (int r = 0; r < m; ++r) {
    float acc = 0.0f;
    const float* row = ad + static_cast<std::size_t>(r) * n;
    for (int c = 0; c < n; ++c) acc += row[c];
    od[r] = acc;
  }
  if (out.requires_grad()) {
    Tensor a_cap = a;
    Tensor::Impl* self = out.impl();
    out.SetBackwardFn([a_cap, self, m, n]() mutable {
      const float* og = self->EnsureGrad();
      float* ag = a_cap.impl()->EnsureGrad();
      for (int r = 0; r < m; ++r) {
        float* row = ag + static_cast<std::size_t>(r) * n;
        for (int c = 0; c < n; ++c) row[c] += og[r];
      }
    });
  }
  return out;
}

Tensor SoftmaxRows(const Tensor& a) {
  const int m = a.rows(), n = a.cols();
  Tensor out = Tensor::MakeNode(m, n, {a}, a.requires_grad());
  out.SetOp("softmax_rows");
  const float* ad = a.data();
  float* od = out.data();
  for (int r = 0; r < m; ++r) {
    kernels::SoftmaxRowForward(ad + static_cast<std::size_t>(r) * n,
                               od + static_cast<std::size_t>(r) * n, n);
  }
  if (out.requires_grad()) {
    Tensor a_cap = a;
    Tensor::Impl* self = out.impl();
    out.SetBackwardFn([a_cap, self, m, n]() mutable {
      const float* og = self->EnsureGrad();
      const float* out_d = self->data.data();
      float* ag = a_cap.impl()->EnsureGrad();
      for (int r = 0; r < m; ++r) {
        const std::size_t row = static_cast<std::size_t>(r) * n;
        kernels::SoftmaxRowBackward(out_d + row, og + row, ag + row, n);
      }
    });
  }
  return out;
}

Tensor BceLoss(const Tensor& pred, const Tensor& target, float eps) {
  if (pred.rows() != target.rows() || pred.cols() != target.cols()) {
    Fatal("BceLoss shape mismatch");
  }
  if (eps <= 0.0f) Fatal("BceLoss eps must be positive");
  const int m = pred.rows(), n = pred.cols();
  Tensor out = Tensor::MakeNode(m, n, {pred, target}, AnyRequiresGrad(pred, target));
  out.SetOp("bce_loss");
  const float* pd = pred.data();
  const float* yd = target.data();
  float* od = out.data();
  const std::int64_t total = pred.size();
  kernels::MapBce(pd, yd, od, eps, 0, total);
  if (out.requires_grad()) {
    Tensor pred_cap = pred, target_cap = target;
    Tensor::Impl* self = out.impl();
    out.SetBackwardFn([pred_cap, target_cap, self, total, eps]() mutable {
      const float* og = self->EnsureGrad();
      const float* p_d = pred_cap.data();
      const float* y_d = target_cap.data();
      float* pg = pred_cap.requires_grad() ? pred_cap.impl()->EnsureGrad() : nullptr;
      float* tg = target_cap.requires_grad() ? target_cap.impl()->EnsureGrad() : nullptr;
      kernels::MapBceGrad(p_d, y_d, og, pg, tg, eps, 0, total);
    });
  }
  return out;
}

Tensor SigmoidBce(const Tensor& logits, const Tensor& target) {
  if (logits.rows() != target.rows() || logits.cols() != target.cols()) {
    Fatal("SigmoidBce shape mismatch");
  }
  const int m = logits.rows(), n = logits.cols();
  Tensor out =
      Tensor::MakeNode(m, n, {logits, target}, AnyRequiresGrad(logits, target));
  out.SetOp("sigmoid_bce");
  const float* zd = logits.data();
  const float* yd = target.data();
  float* od = out.data();
  const std::int64_t total = logits.size();
  kernels::MapSigmoidBce(zd, yd, od, 0, total);
  if (out.requires_grad()) {
    Tensor z_cap = logits, y_cap = target;
    Tensor::Impl* self = out.impl();
    out.SetBackwardFn([z_cap, y_cap, self, total]() mutable {
      const float* og = self->EnsureGrad();
      const float* z_d = z_cap.data();
      const float* y_d = y_cap.data();
      float* zg = z_cap.requires_grad() ? z_cap.impl()->EnsureGrad() : nullptr;
      float* yg = y_cap.requires_grad() ? y_cap.impl()->EnsureGrad() : nullptr;
      kernels::MapSigmoidBceGrad(z_d, y_d, og, zg, yg, 0, total);
    });
  }
  return out;
}

Tensor WeightedSum(const Tensor& a, const Tensor& weights) {
  if (a.rows() != weights.rows() || a.cols() != weights.cols()) {
    Fatal("WeightedSum shape mismatch");
  }
  // Fused Sum(Mul(a, w)): float products widened into Sum's double
  // accumulation — bit-identical to the composite
  // (ops::reference::WeightedSum) without materializing the product tensor.
  Tensor out = Tensor::MakeNode(1, 1, {a, weights}, AnyRequiresGrad(a, weights));
  out.SetOp("weighted_sum");
  const float* ad = a.data();
  const float* wd = weights.data();
  const std::int64_t total = a.size();
  out.data()[0] = static_cast<float>(kernels::ReduceDot(ad, wd, 0, total));
  if (out.requires_grad()) {
    Tensor a_cap = a, w_cap = weights;
    Tensor::Impl* self = out.impl();
    out.SetBackwardFn([a_cap, w_cap, self, total]() mutable {
      const float g = self->EnsureGrad()[0];
      const float* a_d = a_cap.data();
      const float* w_d = w_cap.data();
      float* ag = a_cap.requires_grad() ? a_cap.impl()->EnsureGrad() : nullptr;
      float* wg = w_cap.requires_grad() ? w_cap.impl()->EnsureGrad() : nullptr;
      for (std::int64_t i = 0; i < total; ++i) {
        if (ag != nullptr) ag[i] += g * w_d[i];
        if (wg != nullptr) wg[i] += g * a_d[i];
      }
    });
  }
  return out;
}

}  // namespace ops
}  // namespace dcmt
