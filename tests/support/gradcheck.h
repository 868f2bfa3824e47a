#ifndef DCMT_TESTS_SUPPORT_GRADCHECK_H_
#define DCMT_TESTS_SUPPORT_GRADCHECK_H_

#include <functional>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace dcmt {

/// Result of a finite-difference gradient check.
struct GradCheckResult {
  bool ok = true;
  /// Largest relative error observed over all checked coordinates.
  float max_rel_error = 0.0f;
  /// Human-readable description of the worst coordinate (empty when ok).
  std::string worst;
};

/// Compares analytic gradients of `loss_fn` (a scalar-valued function of
/// `inputs`, which must all require grad) against central finite differences.
///
/// `loss_fn` is invoked repeatedly and must rebuild its graph from the current
/// leaf values each call. Relative error uses |a-n| / max(1e-3, |a|+|n|), an absolute floor sized for
/// float32 central differences.
/// Checks every coordinate of every input tensor; keep inputs small.
GradCheckResult CheckGradients(
    const std::function<Tensor()>& loss_fn, std::vector<Tensor> inputs,
    float step = 1e-3f, float tolerance = 5e-2f);

}  // namespace dcmt

#endif  // DCMT_TESTS_SUPPORT_GRADCHECK_H_
