#include "support/gradcheck.h"

#include <cmath>
#include <cstdio>

namespace dcmt {

GradCheckResult CheckGradients(const std::function<Tensor()>& loss_fn,
                               std::vector<Tensor> inputs, float step,
                               float tolerance) {
  GradCheckResult result;

  // Analytic pass.
  for (Tensor& t : inputs) t.ZeroGrad();
  Tensor loss = loss_fn();
  loss.Backward();

  std::vector<std::vector<float>> analytic;
  analytic.reserve(inputs.size());
  for (Tensor& t : inputs) {
    analytic.emplace_back(t.grad(), t.grad() + t.size());
  }

  // Numeric pass: central differences, one coordinate at a time.
  for (std::size_t which = 0; which < inputs.size(); ++which) {
    Tensor& t = inputs[which];
    float* d = t.data();
    for (std::int64_t i = 0; i < t.size(); ++i) {
      const float saved = d[i];
      d[i] = saved + step;
      const float up = loss_fn().item();
      d[i] = saved - step;
      const float down = loss_fn().item();
      d[i] = saved;
      const float numeric = (up - down) / (2.0f * step);
      const float a = analytic[which][static_cast<std::size_t>(i)];
      const float denom = std::max(1e-3f, std::fabs(a) + std::fabs(numeric));
      const float rel = std::fabs(a - numeric) / denom;
      if (rel > result.max_rel_error) {
        result.max_rel_error = rel;
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "input %zu coord %lld: analytic=%.6g numeric=%.6g rel=%.4g",
                      which, static_cast<long long>(i), a, numeric, rel);
        result.worst = buf;
      }
    }
  }
  result.ok = result.max_rel_error <= tolerance;
  if (result.ok) result.worst.clear();
  return result;
}

}  // namespace dcmt
