#include "nn/graph_check.h"

#include <cstddef>
#include <cstring>
#include <sstream>
#include <unordered_set>

namespace dcmt {
namespace nn {
namespace {

using Impl = Tensor::Impl;

std::string ShapeOf(const Impl* n) {
  std::ostringstream os;
  os << "[" << n->rows << " x " << n->cols << "]";
  return os.str();
}

/// "op 'matmul' node [3 x 4]" or "node 'esmm.ctr.w0' [64 x 32]".
std::string Describe(const Impl* n) {
  std::ostringstream os;
  if (n->op != nullptr) os << "op '" << n->op << "' ";
  os << "node";
  if (!n->name.empty()) os << " '" << n->name << "'";
  os << " " << ShapeOf(n);
  return os.str();
}

bool OpIs(const Impl* n, const char* tag) {
  return n->op != nullptr && std::strcmp(n->op, tag) == 0;
}

bool IsElementwiseBinary(const Impl* n) {
  static const char* kTags[] = {"add", "sub", "mul", "div", "bce_loss",
                                "sigmoid_bce"};
  for (const char* t : kTags) {
    if (OpIs(n, t)) return true;
  }
  return false;
}

/// Fused [1 x 1] reductions (mean, Σ a·w, Σ a²). `sum` keeps its own branch
/// below for historical reasons; these share its only rule.
bool IsScalarReduction(const Impl* n) {
  static const char* kTags[] = {"mean", "weighted_sum", "squared_norm"};
  for (const char* t : kTags) {
    if (OpIs(n, t)) return true;
  }
  return false;
}

bool IsElementwiseUnary(const Impl* n) {
  static const char* kTags[] = {"scale",   "add_scalar", "neg",  "one_minus",
                                "sigmoid", "relu",       "tanh", "exp",
                                "log",     "abs",        "softplus", "square",
                                "softmax_rows"};
  for (const char* t : kTags) {
    if (OpIs(n, t)) return true;
  }
  return false;
}

/// Second operand of a binary elementwise op must be same-shape, a row
/// vector, a column vector, or a scalar relative to the first.
bool Broadcastable(const Impl* a, const Impl* b) {
  if (b->rows == a->rows && b->cols == a->cols) return true;
  if (b->rows == 1 && b->cols == 1) return true;
  if (b->rows == 1 && b->cols == a->cols) return true;
  if (b->rows == a->rows && b->cols == 1) return true;
  return false;
}

class Checker {
 public:
  explicit Checker(GraphCheckResult* result) : result_(result) {}

  void Add(const char* kind, const std::string& message) {
    result_->issues.push_back({kind, message});
  }

  /// Validates one node's storage invariants and per-op shape rules.
  void CheckNode(const Impl* n) {
    if (n->rows <= 0 || n->cols <= 0 ||
        n->data.size() !=
            static_cast<std::size_t>(n->rows) * static_cast<std::size_t>(n->cols)) {
      Add("shape-invalid", Describe(n) + " declares shape " + ShapeOf(n) +
                               " but holds " + std::to_string(n->data.size()) +
                               " elements");
      return;  // Downstream shape rules would only repeat the confusion.
    }
    if (!n->grad.empty() && n->grad.size() != n->data.size()) {
      Add("shape-invalid", Describe(n) + " has a gradient buffer of " +
                               std::to_string(n->grad.size()) +
                               " elements for " + std::to_string(n->data.size()) +
                               " data elements");
    }
    for (const Tensor& p : n->parents) {
      if (!p.defined()) {
        Add("null-parent", Describe(n) + " records a null parent handle");
        return;
      }
    }
    CheckOpShapes(n);
    if (n->backward_ran) {
      Add("stale-tape",
          Describe(n) +
              " was already consumed by a previous Backward() — rebuild the "
              "forward graph instead of reusing the tape");
    }
    if (!n->parents.empty() && n->requires_grad && !n->backward_fn) {
      bool parent_needs_grad = false;
      for (const Tensor& p : n->parents) {
        parent_needs_grad = parent_needs_grad || p.requires_grad();
      }
      if (parent_needs_grad) {
        Add("missing-backward",
            Describe(n) +
                " requires grad and has grad-requiring parents but no "
                "backward closure is registered");
      }
    }
  }

  void CheckOpShapes(const Impl* n) {
    const std::vector<Tensor>& ps = n->parents;
    if (OpIs(n, "matmul")) {
      if (ps.size() != 2) {
        Add("shape-mismatch", Describe(n) + " expects 2 parents, has " +
                                  std::to_string(ps.size()));
        return;
      }
      const Impl* a = ps[0].impl();
      const Impl* b = ps[1].impl();
      if (a->cols != b->rows) {
        Add("shape-mismatch", Describe(n) + ": inner dimensions " + ShapeOf(a) +
                                  " * " + ShapeOf(b) + " do not agree");
      }
      if (n->rows != a->rows || n->cols != b->cols) {
        Add("shape-mismatch", Describe(n) + ": output should be [" +
                                  std::to_string(a->rows) + " x " +
                                  std::to_string(b->cols) + "]");
      }
    } else if (OpIs(n, "dense")) {
      // Fused act(x W + b): parents x [m x k], W [k x n], bias row b [1 x n].
      if (ps.size() != 3) {
        Add("shape-mismatch", Describe(n) + " expects 3 parents, has " +
                                  std::to_string(ps.size()));
        return;
      }
      const Impl* x = ps[0].impl();
      const Impl* w = ps[1].impl();
      const Impl* b = ps[2].impl();
      if (x->cols != w->rows) {
        Add("shape-mismatch", Describe(n) + ": inner dimensions " + ShapeOf(x) +
                                  " * " + ShapeOf(w) + " do not agree");
      }
      if (b->rows != 1 || b->cols != w->cols) {
        Add("shape-mismatch", Describe(n) + ": bias " + ShapeOf(b) +
                                  " is not a [1 x " + std::to_string(w->cols) +
                                  "] row");
      }
      if (n->rows != x->rows || n->cols != w->cols) {
        Add("shape-mismatch", Describe(n) + ": output should be [" +
                                  std::to_string(x->rows) + " x " +
                                  std::to_string(w->cols) + "]");
      }
    } else if (IsElementwiseBinary(n)) {
      if (ps.size() != 2) {
        Add("shape-mismatch", Describe(n) + " expects 2 parents, has " +
                                  std::to_string(ps.size()));
        return;
      }
      const Impl* a = ps[0].impl();
      const Impl* b = ps[1].impl();
      if (n->rows != a->rows || n->cols != a->cols) {
        Add("shape-mismatch",
            Describe(n) + ": output shape differs from first operand " +
                ShapeOf(a));
      }
      if (!Broadcastable(a, b)) {
        Add("shape-mismatch", Describe(n) + ": second operand " + ShapeOf(b) +
                                  " does not broadcast against " + ShapeOf(a));
      }
    } else if (IsElementwiseUnary(n)) {
      if (ps.size() != 1) {
        Add("shape-mismatch", Describe(n) + " expects 1 parent, has " +
                                  std::to_string(ps.size()));
        return;
      }
      const Impl* a = ps[0].impl();
      if (n->rows != a->rows || n->cols != a->cols) {
        Add("shape-mismatch", Describe(n) + ": output shape differs from input " +
                                  ShapeOf(a));
      }
    } else if (OpIs(n, "concat_cols")) {
      int total_cols = 0;
      for (const Tensor& p : ps) {
        if (p.rows() != n->rows) {
          Add("shape-mismatch", Describe(n) + ": part " + ShapeOf(p.impl()) +
                                    " has a different row count");
        }
        total_cols += p.cols();
      }
      if (total_cols != n->cols) {
        Add("shape-mismatch", Describe(n) + ": parts sum to " +
                                  std::to_string(total_cols) + " columns");
      }
    } else if (OpIs(n, "slice_cols")) {
      if (ps.size() == 1) {
        const Impl* a = ps[0].impl();
        if (n->rows != a->rows || n->cols > a->cols) {
          Add("shape-mismatch",
              Describe(n) + ": slice does not fit input " + ShapeOf(a));
        }
      }
    } else if (OpIs(n, "embedding_lookup")) {
      if (ps.size() == 1 && n->cols != ps[0].cols()) {
        Add("shape-mismatch", Describe(n) + ": output width differs from table " +
                                  ShapeOf(ps[0].impl()));
      }
    } else if (OpIs(n, "embedding_concat")) {
      // Fused gather+concat: one parent per field table; output width is the
      // sum of the table widths.
      int total_cols = 0;
      for (const Tensor& p : ps) total_cols += p.cols();
      if (total_cols != n->cols) {
        Add("shape-mismatch", Describe(n) + ": field tables sum to " +
                                  std::to_string(total_cols) + " columns");
      }
    } else if (OpIs(n, "sum") || IsScalarReduction(n)) {
      if (n->rows != 1 || n->cols != 1) {
        Add("shape-mismatch", Describe(n) + ": reduction output must be [1 x 1]");
      }
    } else if (OpIs(n, "sum_rows")) {
      if (ps.size() == 1 && (n->rows != ps[0].rows() || n->cols != 1)) {
        Add("shape-mismatch", Describe(n) + ": row reduction of " +
                                  ShapeOf(ps[0].impl()) + " must be [" +
                                  std::to_string(ps[0].rows()) + " x 1]");
      }
    }
  }

 private:
  GraphCheckResult* result_;
};

}  // namespace

std::string GraphCheckResult::Report() const {
  std::ostringstream os;
  for (const GraphIssue& issue : issues) {
    os << issue.kind << ": " << issue.message << "\n";
  }
  return os.str();
}

GraphCheckResult CheckGraph(const Tensor& loss,
                            const std::vector<Tensor>& params) {
  GraphCheckResult result;
  Checker checker(&result);

  if (!loss.defined()) {
    checker.Add("loss-no-grad", "loss tensor is null");
    return result;
  }
  if (loss.rows() != 1 || loss.cols() != 1) {
    checker.Add("loss-not-scalar",
                "loss must be [1 x 1], got " + ShapeOf(loss.impl()));
  }
  if (!loss.requires_grad()) {
    checker.Add("loss-no-grad",
                "loss does not require grad — Backward() would abort");
  }

  // Iterative DFS over the tape, mirroring Tensor::Backward()'s traversal.
  // A micro-batch join's private tapes are walked too: the join's backward
  // runs them, so their nodes and the parameters they reach are the step's.
  std::unordered_set<const Impl*> visited;
  std::vector<const Impl*> stack{loss.impl()};
  visited.insert(loss.impl());
  const auto push = [&](const Tensor& t) {
    Impl* ti = t.impl();
    if (ti != nullptr && visited.insert(ti).second) stack.push_back(ti);
  };

  while (!stack.empty()) {
    const Impl* node = stack.back();
    stack.pop_back();
    ++result.nodes_visited;
    checker.CheckNode(node);
    for (const Tensor& parent : node->parents) push(parent);
    for (const Tensor& root : node->micro_roots) push(root);
  }

  for (const Tensor& p : params) {
    const Impl* pi = p.impl();
    const std::string label =
        pi != nullptr && !pi->name.empty() ? pi->name : "<unnamed>";
    if (pi == nullptr) {
      checker.Add("unreachable-param", "parameter '" + label + "' is null");
      continue;
    }
    if (!pi->requires_grad) {
      checker.Add("unreachable-param",
                  "parameter '" + label +
                      "' does not require grad — the optimizer will never "
                      "update it");
      continue;
    }
    if (visited.find(pi) == visited.end()) {
      checker.Add("unreachable-param",
                  "parameter '" + label + "' " + ShapeOf(pi) +
                      " is not reachable from the loss — it would stay at "
                      "its initialization forever");
    }
  }

  return result;
}

GraphCheckResult CheckGraph(const Tensor& loss) { return CheckGraph(loss, {}); }

}  // namespace nn
}  // namespace dcmt
