// Unit tests for the optimizers: analytic one-step updates, convergence on
// convex problems, weight decay, momentum, and gradient clipping, plus the
// bit-level contracts of the vectorized optimizer tail (scalar oracle,
// thread-count invariance). Plain SGD lives here, not in src/: nothing but
// these tests uses it, as the reference optimizer and as a concrete
// Optimizer for the clipping tests.

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/thread_pool.h"
#include "nn/linear.h"
#include "optim/adam.h"
#include "optim/optimizer.h"
#include "tensor/ops.h"
#include "tensor/random.h"

namespace dcmt {
namespace {

/// Plain stochastic gradient descent with optional classical momentum and
/// decoupled L2 weight decay.
class Sgd : public optim::Optimizer {
 public:
  Sgd(std::vector<Tensor> params, float lr, float momentum = 0.0f,
      float weight_decay = 0.0f)
      : Optimizer(std::move(params)),
        lr_(lr),
        momentum_(momentum),
        weight_decay_(weight_decay) {
    // dcmt-lint: allow(float-eq) — 0.0f is the exact "no momentum" sentinel.
    if (momentum_ != 0.0f) {
      velocity_.reserve(params_.size());
      for (Tensor& p : params_) {
        velocity_.emplace_back(static_cast<std::size_t>(p.size()), 0.0f);
      }
    }
  }

  void Step() override {
    for (std::size_t k = 0; k < params_.size(); ++k) {
      Tensor& p = params_[k];
      if (!p.has_grad()) continue;
      float* w = p.data();
      const float* g = p.grad();
      for (std::int64_t i = 0; i < p.size(); ++i) {
        float update = g[i] + weight_decay_ * w[i];
        // dcmt-lint: allow(float-eq) — exact sentinel, as above.
        if (momentum_ != 0.0f) {
          float& v = velocity_[k][static_cast<std::size_t>(i)];
          v = momentum_ * v + update;
          update = v;
        }
        w[i] -= lr_ * update;
      }
    }
  }

 private:
  float lr_;
  float momentum_;
  float weight_decay_;
  std::vector<std::vector<float>> velocity_;
};

/// One SGD step on f(w) = w^2 / 2 has update w -= lr * w.
TEST(SgdTest, SingleStepMatchesFormula) {
  Tensor w = Tensor::Scalar(4.0f, /*requires_grad=*/true);
  Sgd sgd({w}, /*lr=*/0.1f);
  sgd.ZeroGrad();
  ops::Scale(ops::Square(w), 0.5f).Backward();
  sgd.Step();
  EXPECT_NEAR(w.item(), 4.0f - 0.1f * 4.0f, 1e-6f);
}

TEST(SgdTest, ConvergesOnQuadratic) {
  Tensor w = Tensor::Scalar(5.0f, /*requires_grad=*/true);
  Sgd sgd({w}, 0.2f);
  for (int i = 0; i < 100; ++i) {
    sgd.ZeroGrad();
    ops::Square(ops::AddScalar(w, -3.0f)).Backward();
    sgd.Step();
  }
  EXPECT_NEAR(w.item(), 3.0f, 1e-3f);
}

TEST(SgdTest, MomentumAcceleratesFirstSteps) {
  // Compare after 4 steps: classical momentum accelerates the early descent
  // (it overshoots and oscillates later, so a long horizon would not be a
  // fair acceleration check).
  Tensor w1 = Tensor::Scalar(5.0f, /*requires_grad=*/true);
  Tensor w2 = Tensor::Scalar(5.0f, /*requires_grad=*/true);
  Sgd plain({w1}, 0.05f);
  Sgd momentum({w2}, 0.05f, /*momentum=*/0.9f);
  for (int i = 0; i < 4; ++i) {
    plain.ZeroGrad();
    ops::Square(w1).Backward();
    plain.Step();
    momentum.ZeroGrad();
    ops::Square(w2).Backward();
    momentum.Step();
  }
  EXPECT_LT(std::fabs(w2.item()), std::fabs(w1.item()));
}

TEST(SgdTest, WeightDecayShrinksWeightsWithZeroGrad) {
  Tensor w = Tensor::Scalar(2.0f, /*requires_grad=*/true);
  Sgd sgd({w}, 0.1f, 0.0f, /*weight_decay=*/0.5f);
  w.grad()[0] = 0.0f;  // force allocated zero gradient
  sgd.Step();
  EXPECT_NEAR(w.item(), 2.0f - 0.1f * 0.5f * 2.0f, 1e-6f);
}

TEST(AdamTest, FirstStepSizeIsLr) {
  // With bias correction, |step 1| == lr regardless of gradient scale.
  Tensor w = Tensor::Scalar(1.0f, /*requires_grad=*/true);
  optim::Adam adam({w}, /*lr=*/0.01f);
  w.grad()[0] = 123.0f;
  adam.Step();
  EXPECT_NEAR(w.item(), 1.0f - 0.01f, 1e-4f);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Tensor w = Tensor::Scalar(-4.0f, /*requires_grad=*/true);
  optim::Adam adam({w}, 0.1f);
  for (int i = 0; i < 300; ++i) {
    adam.ZeroGrad();
    ops::Square(ops::AddScalar(w, -1.0f)).Backward();
    adam.Step();
  }
  EXPECT_NEAR(w.item(), 1.0f, 1e-2f);
}

TEST(AdamTest, StepCountAdvances) {
  Tensor w = Tensor::Scalar(1.0f, /*requires_grad=*/true);
  optim::Adam adam({w});
  EXPECT_EQ(adam.ExportState().step, 0);
  w.grad()[0] = 1.0f;
  adam.Step();
  adam.Step();
  EXPECT_EQ(adam.ExportState().step, 2);
}

TEST(AdamTest, SkipsParametersWithoutGradients) {
  Tensor w = Tensor::Scalar(3.0f, /*requires_grad=*/true);
  optim::Adam adam({w}, 0.1f);
  adam.Step();  // no grad allocated: parameter must not move
  EXPECT_FLOAT_EQ(w.item(), 3.0f);
}

TEST(AdamTest, FitsLogisticRegression) {
  // y = 1[x0 > x1] is linearly separable; Adam should drive BCE far down.
  Rng rng(3);
  constexpr int kN = 128;
  std::vector<float> xs(kN * 2), ys(kN);
  for (int i = 0; i < kN; ++i) {
    xs[static_cast<std::size_t>(i) * 2] = rng.Uniform(-1.0f, 1.0f);
    xs[static_cast<std::size_t>(i) * 2 + 1] = rng.Uniform(-1.0f, 1.0f);
    ys[static_cast<std::size_t>(i)] =
        xs[static_cast<std::size_t>(i) * 2] > xs[static_cast<std::size_t>(i) * 2 + 1]
            ? 1.0f
            : 0.0f;
  }
  Tensor x = Tensor::FromData(kN, 2, xs);
  Tensor y = Tensor::FromData(kN, 1, ys);
  nn::Linear layer("lr", 2, 1, &rng);
  optim::Adam adam(layer.parameters(), 0.05f);
  float first_loss = 0.0f, last_loss = 0.0f;
  for (int step = 0; step < 200; ++step) {
    adam.ZeroGrad();
    Tensor loss = ops::Mean(ops::BceLoss(ops::Sigmoid(layer.Forward(x)), y));
    loss.Backward();
    adam.Step();
    if (step == 0) first_loss = loss.item();
    last_loss = loss.item();
  }
  EXPECT_LT(last_loss, 0.25f * first_loss);
}

TEST(ClipGradNormTest, RescalesLargeGradients) {
  Tensor w = Tensor::FromData(1, 2, {0.0f, 0.0f}, /*requires_grad=*/true);
  Sgd sgd({w}, 1.0f);
  w.grad()[0] = 3.0f;
  w.grad()[1] = 4.0f;  // norm 5
  const float pre = sgd.ClipGradNorm(1.0f);
  EXPECT_NEAR(pre, 5.0f, 1e-5f);
  EXPECT_NEAR(w.grad()[0], 0.6f, 1e-5f);
  EXPECT_NEAR(w.grad()[1], 0.8f, 1e-5f);
}

TEST(ClipGradNormTest, LeavesSmallGradientsAlone) {
  Tensor w = Tensor::FromData(1, 2, {0.0f, 0.0f}, /*requires_grad=*/true);
  Sgd sgd({w}, 1.0f);
  w.grad()[0] = 0.3f;
  w.grad()[1] = 0.4f;
  sgd.ClipGradNorm(1.0f);
  EXPECT_FLOAT_EQ(w.grad()[0], 0.3f);
  EXPECT_FLOAT_EQ(w.grad()[1], 0.4f);
}

// --- Bit-level contracts of the optimizer tail -----------------------------

// Sizes around the 8-lane vector width, the 8192-element Adam grain and the
// 4096-element norm block, plus one embedding-sized table.
const std::int64_t kTailSizes[] = {1, 7, 8, 9, 8191, 8192, 8193, 40000};

/// Restores the pool to its test default however a test exits.
struct PoolSetting {
  PoolSetting(int threads, std::int64_t grain_cap) {
    core::ThreadPool::Global().SetNumThreads(threads);
    core::SetGrainCapForTesting(grain_cap);
  }
  ~PoolSetting() {
    core::SetGrainCapForTesting(0);
    core::ThreadPool::Global().SetNumThreads(1);
  }
};

struct PoolCase {
  int threads;
  std::int64_t grain_cap;
};
const PoolCase kPoolCases[] = {{1, 0}, {2, 0}, {4, 0}, {4, 1}, {3, 5}};

std::vector<std::uint32_t> Bits(const float* x, std::int64_t n) {
  std::vector<std::uint32_t> out(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    out[static_cast<std::size_t>(i)] = std::bit_cast<std::uint32_t>(x[i]);
  }
  return out;
}

std::vector<std::uint32_t> Bits(const std::vector<float>& x) {
  return Bits(x.data(), static_cast<std::int64_t>(x.size()));
}

/// Fresh parameters of kTailSizes, seeded identically on every call.
std::vector<Tensor> TailParams() {
  Rng rng(17);
  std::vector<Tensor> params;
  for (const std::int64_t n : kTailSizes) {
    std::vector<float> w(static_cast<std::size_t>(n));
    for (float& x : w) x = rng.Uniform(-1.0f, 1.0f);
    params.push_back(Tensor::FromData(1, static_cast<int>(n), std::move(w),
                                      /*requires_grad=*/true));
  }
  return params;
}

/// Gradient of parameter k at `step`; magnitudes span several decades so
/// the updates exercise sqrt and division over a wide exponent range.
std::vector<float> TailGrad(std::size_t k, int step, std::int64_t n) {
  Rng rng(1000 + 31 * k + static_cast<std::uint64_t>(step));
  std::vector<float> g(static_cast<std::size_t>(n));
  for (float& x : g) {
    x = rng.Uniform(-1.0f, 1.0f) * std::pow(10.0f, rng.Uniform(-4.0f, 2.0f));
  }
  return g;
}

/// The scalar Adam update the vectorized kernel must reproduce bit for bit:
/// the per-parameter loop optim::Adam ran before it was vectorized.
struct ScalarAdam {
  float lr, beta1, beta2, eps, weight_decay;
  std::int64_t step = 0;

  void Step(std::vector<std::vector<float>>* w,
            const std::vector<std::vector<float>>& g,
            const std::vector<bool>& has_grad,
            std::vector<std::vector<float>>* m,
            std::vector<std::vector<float>>* v) {
    ++step;
    const float bias1 = 1.0f - std::pow(beta1, static_cast<float>(step));
    const float bias2 = 1.0f - std::pow(beta2, static_cast<float>(step));
    for (std::size_t k = 0; k < w->size(); ++k) {
      if (!has_grad[k]) continue;
      float* wk = (*w)[k].data();
      float* mk = (*m)[k].data();
      float* vk = (*v)[k].data();
      const float* gk = g[k].data();
      for (std::size_t i = 0; i < (*w)[k].size(); ++i) {
        const float grad = gk[i] + weight_decay * wk[i];
        mk[i] = beta1 * mk[i] + (1.0f - beta1) * grad;
        vk[i] = beta2 * vk[i] + (1.0f - beta2) * grad * grad;
        const float m_hat = mk[i] / bias1;
        const float v_hat = vk[i] / bias2;
        wk[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
      }
    }
  }
};

TEST(OptimTest, AdamStepMatchesScalarReferenceBitForBit) {
  constexpr int kSteps = 4;
  constexpr float kLr = 3e-3f, kBeta1 = 0.9f, kBeta2 = 0.999f, kEps = 1e-8f,
                  kWeightDecay = 1e-2f;
  // Parameter 2 (8 elements) never gets a gradient: it must not move.
  constexpr std::size_t kNoGrad = 2;

  // The oracle, run once.
  std::vector<std::vector<float>> ref_w, ref_g(std::size(kTailSizes)), ref_m,
      ref_v;
  std::vector<bool> has_grad;
  for (const Tensor& p : TailParams()) {
    ref_w.emplace_back(p.data(), p.data() + p.size());
    ref_m.emplace_back(static_cast<std::size_t>(p.size()), 0.0f);
    ref_v.emplace_back(static_cast<std::size_t>(p.size()), 0.0f);
    has_grad.push_back(ref_w.size() - 1 != kNoGrad);
  }
  ScalarAdam ref{kLr, kBeta1, kBeta2, kEps, kWeightDecay};
  for (int step = 0; step < kSteps; ++step) {
    for (std::size_t k = 0; k < ref_w.size(); ++k) {
      ref_g[k] = TailGrad(k, step, static_cast<std::int64_t>(ref_w[k].size()));
    }
    ref.Step(&ref_w, ref_g, has_grad, &ref_m, &ref_v);
  }

  for (const PoolCase& pc : kPoolCases) {
    SCOPED_TRACE(::testing::Message() << "threads=" << pc.threads
                                      << " grain_cap=" << pc.grain_cap);
    PoolSetting pool(pc.threads, pc.grain_cap);
    std::vector<Tensor> params = TailParams();
    optim::Adam adam(params, kLr, kBeta1, kBeta2, kEps, kWeightDecay);
    for (int step = 0; step < kSteps; ++step) {
      for (std::size_t k = 0; k < params.size(); ++k) {
        if (k == kNoGrad) continue;
        const std::vector<float> g = TailGrad(k, step, params[k].size());
        std::copy(g.begin(), g.end(), params[k].grad());
      }
      adam.Step();
    }
    ASSERT_FALSE(params[kNoGrad].has_grad());
    const optim::AdamState state = adam.ExportState();
    for (std::size_t k = 0; k < params.size(); ++k) {
      SCOPED_TRACE(::testing::Message() << "parameter " << k << " of size "
                                        << params[k].size());
      EXPECT_EQ(Bits(params[k].data(), params[k].size()), Bits(ref_w[k]));
      EXPECT_EQ(Bits(state.m[k]), Bits(ref_m[k]));
      EXPECT_EQ(Bits(state.v[k]), Bits(ref_v[k]));
    }
  }
}

TEST(ClipGradNormTest, NormAndClippedGradsAreThreadCountInvariant) {
  // The gradients of kTailSizes, with parameter 3 left without a gradient.
  constexpr std::size_t kNoGrad = 3;
  std::vector<std::vector<float>> grads;
  long double exact_sq = 0.0L;
  for (std::size_t k = 0; k < std::size(kTailSizes); ++k) {
    grads.push_back(TailGrad(k, /*step=*/0, kTailSizes[k]));
    if (k == kNoGrad) continue;
    for (const float g : grads.back()) {
      exact_sq += static_cast<long double>(g) * g;
    }
  }
  const float exact_norm = static_cast<float>(std::sqrt(exact_sq));

  // Once below the norm (clips) and once above it (leaves grads alone).
  for (const float max_norm : {0.5f * exact_norm, 2.0f * exact_norm}) {
    SCOPED_TRACE(::testing::Message() << "max_norm=" << max_norm);
    std::vector<std::vector<std::uint32_t>> first_grads;
    std::uint32_t first_norm = 0;
    for (const PoolCase& pc : kPoolCases) {
      SCOPED_TRACE(::testing::Message() << "threads=" << pc.threads
                                        << " grain_cap=" << pc.grain_cap);
      PoolSetting pool(pc.threads, pc.grain_cap);
      std::vector<Tensor> params = TailParams();
      for (std::size_t k = 0; k < params.size(); ++k) {
        if (k == kNoGrad) continue;
        std::copy(grads[k].begin(), grads[k].end(), params[k].grad());
      }
      Sgd sgd(params, 1.0f);
      const float norm = sgd.ClipGradNorm(max_norm);

      // The double sum's error (~1e-16 relative) is far below a float's
      // half ulp, so the norm is the serial long-double norm, rounded once.
      EXPECT_EQ(std::bit_cast<std::uint32_t>(norm),
                std::bit_cast<std::uint32_t>(exact_norm));
      const float scale = max_norm / norm;
      std::vector<std::vector<std::uint32_t>> clipped;
      for (std::size_t k = 0; k < params.size(); ++k) {
        if (k == kNoGrad) {
          EXPECT_FALSE(params[k].has_grad());
          clipped.emplace_back();
          continue;
        }
        std::vector<float> expected = grads[k];
        if (norm > max_norm) {
          for (float& g : expected) g *= scale;
        }
        clipped.push_back(Bits(params[k].grad(), params[k].size()));
        EXPECT_EQ(clipped.back(), Bits(expected)) << "parameter " << k;
      }
      if (first_grads.empty()) {
        first_norm = std::bit_cast<std::uint32_t>(norm);
        first_grads = std::move(clipped);
      } else {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(norm), first_norm);
        EXPECT_EQ(clipped, first_grads);
      }
    }
  }
}

}  // namespace
}  // namespace dcmt
