#ifndef DCMT_NN_GRAPH_CHECK_H_
#define DCMT_NN_GRAPH_CHECK_H_

#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace dcmt {
namespace nn {

/// One defect found in an autograd tape. `kind` is a stable machine-readable
/// slug; `message` carries the human diagnostic (op tag, shapes, names).
struct GraphIssue {
  /// One of: "loss-not-scalar", "loss-no-grad", "null-parent",
  /// "shape-invalid", "shape-mismatch", "missing-backward",
  /// "stale-tape", "unreachable-param".
  std::string kind;
  std::string message;
};

/// Result of validating a built tape. `ok()` means the graph is safe to run
/// Backward() on exactly once and every parameter will receive gradient.
struct GraphCheckResult {
  std::vector<GraphIssue> issues;
  /// Nodes reachable from the loss (diagnostic; 0 when the loss is null).
  int nodes_visited = 0;

  bool ok() const { return issues.empty(); }
  /// Multi-line "kind: message" report, empty string when ok().
  std::string Report() const;
};

/// Statically validates the autograd tape hanging off `loss` before
/// Backward() is spent on it, including the private micro-batch tapes of
/// every ops::JoinMicroBatches node on it. Checks, in order:
///
///   1. The loss is a defined [1 x 1] scalar that requires grad.
///   2. Every node's storage agrees with its declared shape, and every
///      recorded parent handle is non-null.
///   3. Per-op shape rules for every tagged node (see ops.cc): matmul inner
///      dimensions, elementwise broadcast compatibility, concat column
///      bookkeeping, reduction output shapes, and so on.
///   4. Interior nodes that require grad and have grad-requiring parents
///      carry a backward closure ("missing backward registration" — the
///      failure mode of a hand-built or half-constructed node).
///   5. No node in the tape has already been consumed by a previous
///      Backward() call (stale-tape / double-backward reuse would silently
///      double-accumulate gradients).
///   6. Every tensor in `params` requires grad and is reachable from the
///      loss (an unreachable parameter trains at its initialization forever
///      — the classic silently-broken-model bug).
///
/// The walk is read-only and allocation-light: validating a model's step
/// graph in a debug build costs far less than the step itself.
GraphCheckResult CheckGraph(const Tensor& loss,
                            const std::vector<Tensor>& params);

/// CheckGraph with no parameter-reachability requirement.
GraphCheckResult CheckGraph(const Tensor& loss);

}  // namespace nn
}  // namespace dcmt

#endif  // DCMT_NN_GRAPH_CHECK_H_
