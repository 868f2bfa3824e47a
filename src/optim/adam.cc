#include "optim/adam.h"

#include <cmath>

#include "core/thread_pool.h"
#include "tensor/kernels.h"

namespace dcmt {
namespace optim {
namespace {

/// Minimum elements per Adam chunk, over all parameters laid end to end:
/// ~8k vectorized updates is a couple of microseconds, above the pool's
/// dispatch cost, and splits a DCMT step's ~80k parameters four ways.
constexpr std::int64_t kElementGrain = 8192;

}  // namespace

Adam::Adam(std::vector<Tensor> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Tensor& p : params_) {
    m_.emplace_back(static_cast<std::size_t>(p.size()), 0.0f);
    v_.emplace_back(static_cast<std::size_t>(p.size()), 0.0f);
  }
}

AdamState Adam::ExportState() const {
  AdamState state;
  state.step = step_;
  state.lr = lr_;
  state.m = m_;
  state.v = v_;
  return state;
}

bool Adam::ImportState(const AdamState& state) {
  if (state.step < 0) return false;
  if (state.m.size() != m_.size() || state.v.size() != v_.size()) return false;
  for (std::size_t k = 0; k < m_.size(); ++k) {
    if (state.m[k].size() != m_[k].size() || state.v[k].size() != v_[k].size()) {
      return false;
    }
  }
  step_ = state.step;
  lr_ = state.lr;
  m_ = state.m;
  v_ = state.v;
  return true;
}

void Adam::Step() {
  ++step_;
  const kernels::AdamStepCoeffs coeffs{
      lr_,
      beta1_,
      beta2_,
      eps_,
      weight_decay_,
      1.0f - std::pow(beta1_, static_cast<float>(step_)),
      1.0f - std::pow(beta2_, static_cast<float>(step_))};
  // Every element updates independently, so any partition (thread count)
  // gives the same bits.
  const GradSpans spans = GradLayout();
  core::ParallelFor(0, spans.size(), kElementGrain,
                    [&](std::int64_t i0, std::int64_t i1) {
    spans.Visit(i0, i1, [&](std::size_t k, std::int64_t lo, std::int64_t hi) {
      kernels::AdamUpdate(params_[k].data(), params_[k].grad(), m_[k].data(),
                          v_[k].data(), coeffs, lo, hi);
    });
  });
}

}  // namespace optim
}  // namespace dcmt
