#include "optim/adam.h"

#include <cmath>

#include "core/thread_pool.h"

namespace dcmt {
namespace optim {
namespace {

/// Minimum parameter elements per Adam chunk: ~8k elements is a few
/// microseconds of update work, a few times the pool's dispatch cost.
/// Tower weights stay single-chunk; the embedding tables fan out.
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
  const float bias1 = 1.0f - std::pow(beta1_, static_cast<float>(step_));
  const float bias2 = 1.0f - std::pow(beta2_, static_cast<float>(step_));
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Tensor& p = params_[k];
    if (!p.has_grad()) continue;
    float* w = p.data();
    const float* g = p.grad();
    float* m = m_[k].data();
    float* v = v_[k].data();
    // Every element updates independently, so any partition (thread count)
    // gives the same bits.
    core::ParallelFor(0, p.size(), kElementGrain,
                      [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        const float grad = g[i] + weight_decay_ * w[i];
        m[i] = beta1_ * m[i] + (1.0f - beta1_) * grad;
        v[i] = beta2_ * v[i] + (1.0f - beta2_) * grad * grad;
        const float m_hat = m[i] / bias1;
        const float v_hat = v[i] / bias2;
        w[i] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
      }
    });
  }
}

}  // namespace optim
}  // namespace dcmt
