#ifndef DCMT_TENSOR_TENSOR_H_
#define DCMT_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/random.h"

namespace dcmt {

/// A 2-D float32 matrix participating in a dynamically built reverse-mode
/// autodiff graph. Tensors are cheap shared handles: copying a Tensor aliases
/// the underlying storage and graph node.
///
/// The engine is deliberately 2-D only — every quantity in this library is a
/// [batch x features] activation, a [vocab x dim] table, or a [1 x 1] scalar —
/// which keeps indexing trivial and bugs visible.
///
/// Graph construction: ops in ops.h create result tensors that record their
/// parents and a backward closure. Calling Backward() on a [1 x 1] scalar
/// seeds its gradient with 1 and runs the closures in reverse topological
/// order, accumulating into each requires-grad tensor's grad buffer;
/// BackwardFrom() does the same from several seeded roots at once.
class Tensor {
 public:
  /// Null handle; most APIs treat it as "absent".
  Tensor() = default;

  /// True if this handle points at storage.
  bool defined() const { return impl_ != nullptr; }

  // --- Factories -----------------------------------------------------------

  /// [rows x cols] tensor of zeros.
  static Tensor Zeros(int rows, int cols, bool requires_grad = false);

  /// [rows x cols] tensor filled with `value`.
  static Tensor Full(int rows, int cols, float value, bool requires_grad = false);

  /// [1 x 1] scalar tensor.
  static Tensor Scalar(float value, bool requires_grad = false);

  /// [rows x cols] tensor with i.i.d. N(0, stddev^2) entries drawn from `rng`.
  static Tensor Randn(int rows, int cols, float stddev, Rng* rng,
                      bool requires_grad = false);

  /// [rows x cols] tensor with i.i.d. U(lo, hi) entries drawn from `rng`.
  static Tensor Uniform(int rows, int cols, float lo, float hi, Rng* rng,
                        bool requires_grad = false);

  /// [rows x cols] tensor copying `values` (row-major, size must match).
  static Tensor FromData(int rows, int cols, const std::vector<float>& values,
                         bool requires_grad = false);

  /// Column vector [values.size() x 1] copying `values`.
  static Tensor ColumnVector(const std::vector<float>& values,
                             bool requires_grad = false);

  // --- Shape and storage ----------------------------------------------------

  int rows() const;
  int cols() const;
  /// Total number of elements (rows * cols).
  std::int64_t size() const;

  /// Mutable row-major element storage. Mutating data of a non-leaf tensor
  /// after graph construction invalidates gradients; only do it on leaves.
  float* data();
  const float* data() const;

  /// Element accessors (bounds-checked in debug builds only).
  float at(int r, int c) const;
  void set(int r, int c, float v);

  /// Copies the storage out as a row-major vector.
  std::vector<float> ToVector() const;

  /// Value of a [1 x 1] tensor. Aborts if not scalar.
  float item() const;

  // --- Autograd -------------------------------------------------------------

  bool requires_grad() const;

  /// Gradient buffer, allocated (zeroed) on first access. Only meaningful for
  /// requires-grad tensors after Backward().
  float* grad();
  const float* grad() const;
  /// True once a gradient buffer has been allocated.
  bool has_grad() const;

  /// Zeroes the gradient buffer if allocated.
  void ZeroGrad();

  /// Runs reverse-mode autodiff from this [1 x 1] scalar: BackwardFrom with
  /// this one root and seed 1. Aborts if the tensor is not scalar or does not
  /// require grad.
  void Backward();

  /// Runs reverse-mode autodiff from several roots in one pass. Root i's
  /// gradient is set to `seeds[i]` (root-shaped, row-major; the seeds of a
  /// root listed twice add). Then every closure reachable from any root runs
  /// once, in reverse topological order of their union, so a root that feeds
  /// another root (pCTR into pCTCVR) gets both its seed and its downstream
  /// gradient before its own closure runs. Roots that do not require grad
  /// are skipped.
  static void BackwardFrom(const std::vector<Tensor>& roots,
                           const std::vector<std::vector<float>>& seeds);

  /// Returns a view-free copy sharing storage but detached from the graph:
  /// gradients do not flow through the result.
  Tensor Detach() const;

  /// Identity used for graph bookkeeping and debugging.
  const void* id() const { return impl_.get(); }

  /// Number of live graph nodes (tensors holding parent edges) across the
  /// whole process. Leaves and inference-mode tensors never count, so after
  /// a tape is released — or after any amount of InferenceGuard scoring —
  /// this returns to its prior value. Exposed for the serving no-leak
  /// property tests (DESIGN.md §13).
  static std::int64_t LiveGraphNodesForTesting();

  /// Optional debug name (used by Module parameter registration).
  const std::string& name() const;
  void set_name(std::string name);

  // --- Internal (used by ops.cc; not part of the public modeling API) -------

  struct Impl;
  /// Creates a graph-internal tensor with given parents and backward closure.
  static Tensor MakeNode(int rows, int cols, std::vector<Tensor> parents,
                         bool requires_grad);
  /// Tags the node with the operator that produced it ("matmul", "add", ...).
  /// Consumed by nn::GraphCheck to validate per-op shape rules; a null tag
  /// means "opaque node" and only generic structural checks apply.
  void SetOp(const char* op);
  /// Operator tag set via SetOp, or nullptr for leaves / opaque nodes.
  const char* op() const;
  /// Sets the backward closure of a node created by MakeNode.
  ///
  /// OWNERSHIP RULE: the closure is stored inside this tensor's Impl, so it
  /// must capture this tensor only as a raw Impl* (via impl()) — capturing
  /// the Tensor handle itself would form a shared_ptr cycle and leak the
  /// whole upstream graph. Parents may be captured as Tensor handles (the
  /// child already owns them through its parent list).
  void SetBackwardFn(std::function<void()> fn);
  Impl* impl() const { return impl_.get(); }

 private:
  explicit Tensor(std::shared_ptr<Impl> impl) : impl_(std::move(impl)) {}

  std::shared_ptr<Impl> impl_;
};

/// Storage + graph node behind a Tensor handle. Public so that ops.cc (and
/// only it, by convention) can build backward closures against raw pointers.
struct Tensor::Impl {
  ~Impl();  // updates the live-graph-node count

  int rows = 0;
  int cols = 0;
  std::vector<float> data;
  std::vector<float> grad;  // lazily allocated
  bool requires_grad = false;
  /// This node holds parent edges and is counted by LiveGraphNodesForTesting.
  bool counted_graph_node = false;
  std::string name;

  // Graph structure. Leaves have no parents and no backward_fn.
  std::vector<Tensor> parents;
  std::function<void()> backward_fn;
  /// Operator tag ("matmul", ...) for graph validation; nullptr on leaves.
  const char* op = nullptr;
  /// Set once Backward() has executed this node's closure. A later backward
  /// pass reaching the node again would double-accumulate gradients;
  /// nn::GraphCheck reports such stale-tape reuse before it corrupts a run.
  bool backward_ran = false;
  /// Roots of the private micro-batch tapes a join node holds
  /// (ops::JoinMicroBatches). They are not parents: the topological sort
  /// never walks into them, and the join's own closure runs their backward.
  /// nn::CheckGraph descends into them.
  std::vector<Tensor> micro_roots;

  /// Gradient buffer, zero-allocated on first use. For a leaf, while a
  /// GradSink is installed on the calling thread, this is the sink's private
  /// buffer for the leaf instead.
  float* EnsureGrad();
};

/// Scoped inference mode for the tensor engine (DESIGN.md §13).
///
/// While a guard is alive on a thread, every tensor the thread creates is a
/// pure value: requires_grad is forced off, MakeNode stores no parent edges,
/// and — because every op in ops.cc gates its backward closure on
/// out.requires_grad() — no backward closures are captured. Forward values
/// are bit-identical to the taped path (the kernels never read graph state),
/// which is the serving parity contract serve::FrozenModel is built on.
///
/// Guards nest (a guarded region may call a helper that takes its own
/// guard) and are strictly per-thread: concurrent training on other threads
/// keeps building tapes untouched.
class InferenceGuard {
 public:
  InferenceGuard();
  ~InferenceGuard();
  InferenceGuard(const InferenceGuard&) = delete;
  InferenceGuard& operator=(const InferenceGuard&) = delete;

  /// True while any InferenceGuard is alive on the calling thread.
  static bool Active();
};

/// Private leaf gradients of one micro-batch's backward pass (DESIGN.md §9).
/// While a GradSink::Scope is alive on a thread, Impl::EnsureGrad on a leaf
/// (a node without parents or closure: parameters, inputs) returns this
/// sink's zero-initialized buffer for that leaf, so micro-batch backwards
/// running on different threads never write one buffer. Interior nodes of a
/// micro-batch's tape are private to it already and keep their own grad.
class GradSink {
 public:
  /// Redirects the calling thread's leaf-gradient writes into `sink` until
  /// destruction. Scopes do not nest.
  class Scope {
   public:
    explicit Scope(GradSink* sink);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
  };

  /// This sink's buffer for `leaf`, allocated zeroed on first use.
  float* Buffer(Tensor::Impl* leaf);

  /// For every leaf any sink holds, sets its own gradient to
  /// grad + s_0 + s_1 + ... + s_{K-1}, elementwise and in sink order, so the
  /// result does not depend on which threads ran the micro-batches. The
  /// elementwise loop fans out over the pool; its partition never changes a
  /// bit. Must run with no Scope installed on the calling thread.
  static void Reduce(const std::vector<GradSink>& sinks);

 private:
  /// (leaf, buffer) in first-touch order; a step touches a few dozen leaves.
  std::vector<std::pair<Tensor::Impl*, std::vector<float>>> buffers_;
};

}  // namespace dcmt

#endif  // DCMT_TENSOR_TENSOR_H_
