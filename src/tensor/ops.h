#ifndef DCMT_TENSOR_OPS_H_
#define DCMT_TENSOR_OPS_H_

#include <vector>

#include "tensor/tensor.h"

namespace dcmt {
namespace ops {

// Differentiable operator library. Every function builds a node in the
// autodiff graph; gradients flow to any parent with requires_grad().
//
// Binary elementwise ops broadcast the *second* argument against the first:
// `b` may have the same shape as `a`, be a row vector [1 x a.cols], a column
// vector [a.rows x 1], or a scalar [1 x 1]. The output always has a's shape.

/// Matrix product: [m x k] * [k x n] -> [m x n].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Fused dense layer act(x W + b) for x [m x k], W [k x n] and a bias row
/// b [1 x n]; act is ReLU when `relu`, else the identity. One graph node and
/// one output buffer replace MatMul + Add (+ Relu), bit-identical to that
/// composite in values and in the x, W and b gradients at any thread count
/// (DESIGN.md §14). The bias add and ReLU run on each GEMM row block as it
/// is stored; backward makes one pass over dOut (ReLU mask, bias column sum
/// in ascending row order, packing for dW), then runs MatMul's GEMMs.
Tensor Dense(const Tensor& x, const Tensor& w, const Tensor& b, bool relu);

/// Elementwise a + b (broadcasting b).
Tensor Add(const Tensor& a, const Tensor& b);

/// Elementwise a - b (broadcasting b).
Tensor Sub(const Tensor& a, const Tensor& b);

/// Elementwise a * b (broadcasting b).
Tensor Mul(const Tensor& a, const Tensor& b);

/// a * s for a compile-time-constant scalar (no graph node for s).
Tensor Scale(const Tensor& a, float s);

/// a + s elementwise for a constant scalar.
Tensor AddScalar(const Tensor& a, float s);

/// -a.
Tensor Neg(const Tensor& a);

/// 1 - a. The paper's hard counterfactual constraint r* = 1 - r.
Tensor OneMinus(const Tensor& a);

/// Logistic sigmoid.
Tensor Sigmoid(const Tensor& a);

/// Rectified linear unit.
Tensor Relu(const Tensor& a);

/// Hyperbolic tangent.
Tensor Tanh(const Tensor& a);

/// Elementwise absolute value; subgradient 0 at exactly 0.
Tensor Abs(const Tensor& a);

/// Numerically stable softplus log(1 + exp(a)); maps logits to (0, inf).
/// Used to parameterize non-negative error imputations (ESCM²-DR).
Tensor Softplus(const Tensor& a);

/// Elementwise square.
Tensor Square(const Tensor& a);

/// Horizontal concatenation of tensors with equal row counts.
Tensor ConcatCols(const std::vector<Tensor>& parts);

/// Columns [start, start + len) of `a` as a new tensor.
Tensor SliceCols(const Tensor& a, int start, int len);

/// Micro-batch join (DESIGN.md §9). `blocks[k][f]` is column f of
/// micro-batch k: a [rows_k x 1] root of that micro-batch's own tape. Returns
/// the [Σ_k rows_k x F] node J whose column f stacks blocks[0][f],
/// blocks[1][f], ... in k order. The micro-tapes are held by J privately, not
/// as parents. J's backward hands micro-batch k its row block of J's
/// gradient as the seeds of its roots and runs the K backward passes on
/// min(K, pool width) shards, each taking its micro-batches in ascending k,
/// with leaf gradients written to one GradSink per micro-batch; it then
/// reduces the sinks into the leaves in ascending k. The result is the same
/// bits at any thread count.
Tensor JoinMicroBatches(const std::vector<std::vector<Tensor>>& blocks);

/// Gathers rows of `table` [V x d] by `ids` -> [ids.size() x d]. Backward
/// scatter-adds into the table gradient (dense buffer, sparse writes).
Tensor EmbeddingLookup(const Tensor& table, const std::vector<int>& ids);

/// Sum of all elements -> [1 x 1].
Tensor Sum(const Tensor& a);

/// Mean of all elements -> [1 x 1].
Tensor Mean(const Tensor& a);

/// Per-row sum across columns -> [m x 1].
Tensor SumRows(const Tensor& a);

/// Row-wise softmax -> same shape; rows sum to 1.
Tensor SoftmaxRows(const Tensor& a);

/// Per-element binary cross-entropy between predictions p in (0,1) and
/// targets y (same shape):
///   e(y, p) = -y log(p) - (1-y) log(1-p), with p clamped to [eps, 1-eps].
/// This is the paper's log loss e(r, r̂). Returns pred's shape. Like every
/// other binary op, gradients flow to *either* parent that requires grad
/// (dL/dy = log((1-p)/p) when the target is differentiable — e.g. soft
/// labels produced by another head). eps must be positive (fatal otherwise).
Tensor BceLoss(const Tensor& pred, const Tensor& target, float eps = 1e-7f);

/// Fused sigmoid + binary cross-entropy on LOGITS (one graph node, one pass):
///   out = -y log σ(z) - (1-y) log(1-σ(z)) = max(z,0) - z·y + log(1+e^-|z|).
/// Numerically superior to BceLoss(Sigmoid(z), y): the logit form needs no
/// probability clamp and stays finite for any z. Backward uses the
/// algebraically simplified dL/dz = σ(z) - y (and dL/dy = -z when the target
/// is differentiable). Same shape rules as BceLoss.
Tensor SigmoidBce(const Tensor& logits, const Tensor& target);

/// Fused embedding gather + column concat: one node replacing per-field
/// EmbeddingLookup + ConcatCols without the intermediate per-field tensors.
/// `field_ids[f]` are row indices into `tables[f]` [V_f x d_f]; output is
/// [batch x Σ d_f] with field f's embedding at its column offset. Backward
/// scatter-adds into each table's gradient in ascending batch order, like
/// EmbeddingLookup, so it is bit-identical to the composite.
Tensor EmbeddingConcat(const std::vector<Tensor>& tables,
                       const std::vector<std::vector<int>>& field_ids);

/// sum(a * w) for a weight tensor of identical shape -> [1 x 1]. Fused
/// single node (no Mul intermediate); bit-identical to Sum(Mul(a, w)).
/// The workhorse for IPW / SNIPS-weighted losses where weights are detached.
Tensor WeightedSum(const Tensor& a, const Tensor& weights);

}  // namespace ops
}  // namespace dcmt

#endif  // DCMT_TENSOR_OPS_H_
