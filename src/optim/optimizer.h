#ifndef DCMT_OPTIM_OPTIMIZER_H_
#define DCMT_OPTIM_OPTIMIZER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/thread_pool.h"
#include "tensor/tensor.h"

namespace dcmt {
namespace optim {

/// Base interface for gradient-descent optimizers. An optimizer holds shared
/// handles to the parameters it updates; Step() consumes the gradients
/// accumulated since the last ZeroGrad().
class Optimizer {
 public:
  explicit Optimizer(std::vector<Tensor> params) : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Applies one update using current gradients.
  virtual void Step() = 0;

  /// Zeroes all parameter gradients.
  void ZeroGrad() {
    for (Tensor& p : params_) p.ZeroGrad();
  }

  /// Rescales gradients so their global L2 norm is at most `max_norm`.
  /// Returns the pre-clip norm. The squared norm is summed in double over
  /// fixed blocks of the gradients laid end to end, so it has the same bits
  /// at any thread count (DESIGN.md §9).
  float ClipGradNorm(float max_norm);

  const std::vector<Tensor>& params() const { return params_; }

 protected:
  /// The parameters that hold a gradient, laid end to end in registration
  /// order, so that one ParallelFor covers all of them.
  struct GradSpans {
    std::vector<std::size_t> param;       // index into params_
    std::vector<std::int64_t> offset{0};  // param[s]: [offset[s], offset[s+1])
    std::int64_t size() const { return offset.back(); }
    /// Calls fn(k, lo, hi) for each parameter k overlapping [i0, i1), in
    /// layout order, with [lo, hi) local to parameter k.
    template <typename Fn>
    void Visit(std::int64_t i0, std::int64_t i1, Fn&& fn) const {
      core::ForEachSegmentPiece(
          offset, i0, i1, [&](std::size_t s, std::int64_t lo, std::int64_t hi) {
            fn(param[s], lo, hi);
          });
    }
  };
  GradSpans GradLayout() const;

  std::vector<Tensor> params_;
};

}  // namespace optim
}  // namespace dcmt

#endif  // DCMT_OPTIM_OPTIMIZER_H_
