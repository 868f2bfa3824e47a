// Unit and property tests for the autodiff tensor engine: construction,
// forward values of every op, and finite-difference gradient checks.

#include <cmath>

#include <gtest/gtest.h>

#include "support/gradcheck.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace dcmt {
namespace {

using ops::Abs;
using ops::Add;
using ops::AddScalar;
using ops::BceLoss;
using ops::ConcatCols;
using ops::EmbeddingLookup;
using ops::MatMul;
using ops::Mean;
using ops::Mul;
using ops::Neg;
using ops::OneMinus;
using ops::Relu;
using ops::Scale;
using ops::Sigmoid;
using ops::SliceCols;
using ops::Softplus;
using ops::SoftmaxRows;
using ops::Square;
using ops::Sub;
using ops::Sum;
using ops::SumRows;
using ops::Tanh;
using ops::WeightedSum;

// --- Construction ------------------------------------------------------------

TEST(TensorTest, ZerosHasShapeAndZeroData) {
  Tensor t = Tensor::Zeros(3, 4);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 4);
  EXPECT_EQ(t.size(), 12);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(t.data()[i], 0.0f);
}

TEST(TensorTest, FullFillsValue) {
  Tensor t = Tensor::Full(2, 2, 3.5f);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(t.data()[i], 3.5f);
}

TEST(TensorTest, ScalarItem) {
  EXPECT_FLOAT_EQ(Tensor::Scalar(-1.25f).item(), -1.25f);
}

TEST(TensorTest, FromDataRoundTrips) {
  const std::vector<float> v = {1, 2, 3, 4, 5, 6};
  Tensor t = Tensor::FromData(2, 3, v);
  EXPECT_EQ(t.ToVector(), v);
  EXPECT_FLOAT_EQ(t.at(1, 2), 6.0f);
}

TEST(TensorTest, ColumnVectorShape) {
  Tensor t = Tensor::ColumnVector({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 1);
}

TEST(TensorTest, RandnIsDeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  Tensor ta = Tensor::Randn(4, 4, 1.0f, &a);
  Tensor tb = Tensor::Randn(4, 4, 1.0f, &b);
  Tensor tc = Tensor::Randn(4, 4, 1.0f, &c);
  EXPECT_EQ(ta.ToVector(), tb.ToVector());
  EXPECT_NE(ta.ToVector(), tc.ToVector());
}

TEST(TensorTest, DetachSharesValuesNotGraph) {
  Tensor a = Tensor::Full(2, 2, 2.0f, /*requires_grad=*/true);
  Tensor d = a.Detach();
  EXPECT_FALSE(d.requires_grad());
  EXPECT_EQ(d.ToVector(), a.ToVector());
}

TEST(TensorTest, NullTensorUndefined) {
  Tensor t;
  EXPECT_FALSE(t.defined());
  EXPECT_EQ(t.rows(), 0);
}

// --- Forward values -----------------------------------------------------------

TEST(OpsForward, MatMulSmall) {
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(OpsForward, AddRowBroadcast) {
  Tensor a = Tensor::FromData(2, 2, {1, 2, 3, 4});
  Tensor bias = Tensor::FromData(1, 2, {10, 20});
  Tensor c = Add(a, bias);
  EXPECT_FLOAT_EQ(c.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 24.0f);
}

TEST(OpsForward, MulColBroadcast) {
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor col = Tensor::FromData(2, 1, {2, 10});
  Tensor c = Mul(a, col);
  EXPECT_FLOAT_EQ(c.at(0, 2), 6.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 40.0f);
}

TEST(OpsForward, ScalarBroadcast) {
  Tensor a = Tensor::FromData(2, 2, {1, 2, 3, 4});
  Tensor s = Tensor::Scalar(3.0f);
  Tensor c = Mul(a, s);
  EXPECT_FLOAT_EQ(c.at(1, 1), 12.0f);
}

TEST(OpsForward, SigmoidValues) {
  Tensor a = Tensor::FromData(1, 3, {0.0f, 100.0f, -100.0f});
  Tensor s = Sigmoid(a);
  EXPECT_FLOAT_EQ(s.at(0, 0), 0.5f);
  EXPECT_NEAR(s.at(0, 1), 1.0f, 1e-6f);
  EXPECT_NEAR(s.at(0, 2), 0.0f, 1e-6f);
}

TEST(OpsForward, ReluClampsNegatives) {
  Tensor a = Tensor::FromData(1, 4, {-2, -0.5f, 0.5f, 2});
  Tensor r = Relu(a);
  EXPECT_FLOAT_EQ(r.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(r.at(0, 3), 2.0f);
}

TEST(OpsForward, OneMinus) {
  Tensor a = Tensor::FromData(1, 2, {0.3f, 0.9f});
  Tensor o = OneMinus(a);
  EXPECT_FLOAT_EQ(o.at(0, 0), 0.7f);
  EXPECT_NEAR(o.at(0, 1), 0.1f, 1e-6f);
}

TEST(OpsForward, SoftplusStableInTails) {
  Tensor a = Tensor::FromData(1, 3, {-200.0f, 0.0f, 200.0f});
  Tensor s = Softplus(a);
  EXPECT_NEAR(s.at(0, 0), 0.0f, 1e-6f);
  EXPECT_NEAR(s.at(0, 1), std::log(2.0f), 1e-5f);
  EXPECT_NEAR(s.at(0, 2), 200.0f, 1e-3f);
}

TEST(OpsForward, ConcatAndSliceInverse) {
  Tensor a = Tensor::FromData(2, 2, {1, 2, 3, 4});
  Tensor b = Tensor::FromData(2, 1, {5, 6});
  Tensor c = ConcatCols({a, b});
  EXPECT_EQ(c.cols(), 3);
  EXPECT_FLOAT_EQ(c.at(1, 2), 6.0f);
  Tensor back = SliceCols(c, 0, 2);
  EXPECT_EQ(back.ToVector(), a.ToVector());
}

TEST(OpsForward, EmbeddingLookupGathersRows) {
  Tensor table = Tensor::FromData(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor out = EmbeddingLookup(table, {2, 0, 2});
  EXPECT_EQ(out.rows(), 3);
  EXPECT_FLOAT_EQ(out.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(out.at(1, 1), 2.0f);
  EXPECT_FLOAT_EQ(out.at(2, 1), 6.0f);
}

TEST(OpsForward, SumMeanSumRows) {
  Tensor a = Tensor::FromData(2, 2, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(Sum(a).item(), 10.0f);
  EXPECT_FLOAT_EQ(Mean(a).item(), 2.5f);
  Tensor rows = SumRows(a);
  EXPECT_FLOAT_EQ(rows.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(rows.at(1, 0), 7.0f);
}

TEST(OpsForward, SoftmaxRowsSumToOne) {
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, -1, 0, 1});
  Tensor s = SoftmaxRows(a);
  for (int r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < 3; ++c) sum += s.at(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
  }
  EXPECT_GT(s.at(0, 2), s.at(0, 0));
}

TEST(OpsForward, SoftmaxRowsStableForLargeLogits) {
  Tensor a = Tensor::FromData(1, 2, {1000.0f, 999.0f});
  Tensor s = SoftmaxRows(a);
  EXPECT_TRUE(std::isfinite(s.at(0, 0)));
  EXPECT_NEAR(s.at(0, 0) + s.at(0, 1), 1.0f, 1e-6f);
}

TEST(OpsForward, BceLossMatchesFormula) {
  Tensor p = Tensor::FromData(2, 1, {0.8f, 0.2f});
  Tensor y = Tensor::FromData(2, 1, {1.0f, 0.0f});
  Tensor e = BceLoss(p, y);
  EXPECT_NEAR(e.at(0, 0), -std::log(0.8f), 1e-6f);
  EXPECT_NEAR(e.at(1, 0), -std::log(0.8f), 1e-6f);
}

TEST(OpsForward, BceLossClampsExtremePredictions) {
  Tensor p = Tensor::FromData(2, 1, {0.0f, 1.0f});
  Tensor y = Tensor::FromData(2, 1, {1.0f, 0.0f});
  Tensor e = BceLoss(p, y);
  EXPECT_TRUE(std::isfinite(e.at(0, 0)));
  EXPECT_TRUE(std::isfinite(e.at(1, 0)));
}

TEST(OpsForward, WeightedSum) {
  Tensor a = Tensor::FromData(3, 1, {1, 2, 3});
  Tensor w = Tensor::FromData(3, 1, {0.5f, 0.0f, 2.0f});
  EXPECT_FLOAT_EQ(WeightedSum(a, w).item(), 6.5f);
}

// --- Backward: hand-computed cases --------------------------------------------

TEST(OpsBackward, SumGradIsOnes) {
  Tensor a = Tensor::Full(2, 3, 1.0f, /*requires_grad=*/true);
  Sum(a).Backward();
  for (int i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(a.grad()[i], 1.0f);
}

TEST(OpsBackward, GradAccumulatesAcrossUses) {
  // loss = sum(a) + sum(a) => da = 2.
  Tensor a = Tensor::Full(2, 2, 1.0f, /*requires_grad=*/true);
  Tensor loss = Add(Sum(a), Sum(a));
  loss.Backward();
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(a.grad()[i], 2.0f);
}

TEST(OpsBackward, DetachBlocksGradient) {
  Tensor a = Tensor::Full(2, 2, 2.0f, /*requires_grad=*/true);
  Tensor loss = Sum(Mul(a, a.Detach()));  // d/da = a_detached only
  loss.Backward();
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(a.grad()[i], 2.0f);
}

TEST(OpsBackward, EmbeddingScatterAdds) {
  Tensor table = Tensor::Zeros(4, 2, /*requires_grad=*/true);
  Tensor out = EmbeddingLookup(table, {1, 1, 3});
  Sum(out).Backward();
  // Row 1 used twice, row 3 once, rows 0/2 untouched.
  EXPECT_FLOAT_EQ(table.grad()[1 * 2 + 0], 2.0f);
  EXPECT_FLOAT_EQ(table.grad()[3 * 2 + 1], 1.0f);
  EXPECT_FLOAT_EQ(table.grad()[0], 0.0f);
  EXPECT_FLOAT_EQ(table.grad()[2 * 2], 0.0f);
}

TEST(OpsBackward, ZeroGradResets) {
  Tensor a = Tensor::Full(1, 1, 1.0f, /*requires_grad=*/true);
  Sum(a).Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 1.0f);
  a.ZeroGrad();
  EXPECT_FLOAT_EQ(a.grad()[0], 0.0f);
}

// --- Gradient checks (finite differences) -------------------------------------

Tensor MakeInput(int rows, int cols, std::uint64_t seed, float lo = -1.0f,
                 float hi = 1.0f) {
  Rng rng(seed);
  return Tensor::Uniform(rows, cols, lo, hi, &rng, /*requires_grad=*/true);
}

TEST(GradCheck, MatMul) {
  Tensor a = MakeInput(3, 4, 1);
  Tensor b = MakeInput(4, 2, 2);
  auto loss = [&]() { return Sum(MatMul(a, b)); };
  const GradCheckResult r = CheckGradients(loss, {a, b});
  EXPECT_TRUE(r.ok) << r.worst;
}

TEST(GradCheck, MatMulChain) {
  Tensor a = MakeInput(2, 3, 3);
  Tensor b = MakeInput(3, 3, 4);
  Tensor c = MakeInput(3, 2, 5);
  auto loss = [&]() { return Sum(MatMul(MatMul(a, b), c)); };
  const GradCheckResult r = CheckGradients(loss, {a, b, c});
  EXPECT_TRUE(r.ok) << r.worst;
}

struct BroadcastCase {
  int rows;
  int cols;
  const char* label;
};

class BroadcastGradTest : public ::testing::TestWithParam<BroadcastCase> {};

TEST_P(BroadcastGradTest, AddSubMulDiv) {
  const BroadcastCase param = GetParam();
  Tensor a = MakeInput(3, 4, 11);
  Tensor b = MakeInput(param.rows, param.cols, 12, 0.5f, 1.5f);  // away from 0
  {
    auto loss = [&]() { return Sum(Add(a, b)); };
    EXPECT_TRUE(CheckGradients(loss, {a, b}).ok) << "Add " << param.label;
  }
  {
    auto loss = [&]() { return Sum(Sub(a, b)); };
    EXPECT_TRUE(CheckGradients(loss, {a, b}).ok) << "Sub " << param.label;
  }
  {
    auto loss = [&]() { return Sum(Square(Mul(a, b))); };
    EXPECT_TRUE(CheckGradients(loss, {a, b}).ok) << "Mul " << param.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBroadcastKinds, BroadcastGradTest,
    ::testing::Values(BroadcastCase{3, 4, "same"}, BroadcastCase{1, 4, "row"},
                      BroadcastCase{3, 1, "col"}, BroadcastCase{1, 1, "scalar"}),
    [](const ::testing::TestParamInfo<BroadcastCase>& param_info) {
      return param_info.param.label;
    });

TEST(GradCheck, UnaryOps) {
  Tensor a = MakeInput(3, 3, 21, -2.0f, 2.0f);
  struct Case {
    const char* name;
    std::function<Tensor()> loss;
  };
  const std::vector<Case> cases = {
      {"sigmoid", [&] { return Sum(Sigmoid(a)); }},
      {"tanh", [&] { return Sum(Tanh(a)); }},
      {"neg", [&] { return Sum(Neg(a)); }},
      {"one_minus", [&] { return Sum(OneMinus(a)); }},
      {"square", [&] { return Sum(Square(a)); }},
      {"scale", [&] { return Sum(Scale(a, -2.5f)); }},
      {"add_scalar", [&] { return Sum(AddScalar(a, 1.5f)); }},
      {"softplus", [&] { return Sum(Softplus(a)); }},
  };
  for (const Case& c : cases) {
    const GradCheckResult r = CheckGradients(c.loss, {a});
    EXPECT_TRUE(r.ok) << c.name << ": " << r.worst;
  }
}

TEST(GradCheck, AbsAwayFromKink) {
  Tensor a = MakeInput(2, 3, 23, 0.5f, 2.0f);
  Tensor b = MakeInput(2, 3, 24, -2.0f, -0.5f);
  auto loss = [&]() { return Add(Sum(Abs(a)), Sum(Abs(b))); };
  EXPECT_TRUE(CheckGradients(loss, {a, b}).ok);
}

TEST(GradCheck, ReluAwayFromKink) {
  // Keep entries away from 0 so finite differences are valid.
  Tensor a = MakeInput(2, 3, 25, 0.3f, 2.0f);
  Tensor b = MakeInput(2, 3, 26, -2.0f, -0.3f);
  auto loss = [&]() { return Add(Sum(Relu(a)), Sum(Relu(b))); };
  EXPECT_TRUE(CheckGradients(loss, {a, b}).ok);
}

TEST(GradCheck, ConcatAndSlice) {
  Tensor a = MakeInput(2, 2, 31);
  Tensor b = MakeInput(2, 3, 32);
  auto loss = [&]() {
    Tensor c = ConcatCols({a, b});
    return Sum(Square(SliceCols(c, 1, 3)));
  };
  EXPECT_TRUE(CheckGradients(loss, {a, b}).ok);
}

TEST(GradCheck, EmbeddingLookup) {
  Tensor table = MakeInput(5, 3, 33);
  const std::vector<int> ids = {0, 2, 2, 4, 1};
  auto loss = [&]() { return Sum(Square(EmbeddingLookup(table, ids))); };
  EXPECT_TRUE(CheckGradients(loss, {table}).ok);
}

TEST(GradCheck, SumRowsAndMean) {
  Tensor a = MakeInput(3, 4, 34);
  auto loss = [&]() { return Mean(Square(SumRows(a))); };
  EXPECT_TRUE(CheckGradients(loss, {a}).ok);
}

TEST(GradCheck, SoftmaxRows) {
  Tensor a = MakeInput(3, 4, 35);
  Tensor pick = Tensor::FromData(3, 4, {1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1});
  auto loss = [&]() { return Sum(Mul(SoftmaxRows(a), pick)); };
  EXPECT_TRUE(CheckGradients(loss, {a}).ok);
}

TEST(GradCheck, BceThroughSigmoid) {
  Tensor logits = MakeInput(4, 1, 36, -2.0f, 2.0f);
  Tensor labels = Tensor::FromData(4, 1, {1, 0, 1, 0});
  auto loss = [&]() { return Mean(BceLoss(Sigmoid(logits), labels)); };
  EXPECT_TRUE(CheckGradients(loss, {logits}).ok);
}

TEST(GradCheck, DcmtStyleCompositeLoss) {
  // A miniature of Eq. (9): weighted factual + counterfactual BCE + |1-(r+r*)|.
  Tensor lf = MakeInput(4, 1, 37, -1.5f, 1.5f);
  Tensor lcf = MakeInput(4, 1, 38, -1.5f, 1.5f);
  Tensor y = Tensor::FromData(4, 1, {1, 0, 0, 1});
  Tensor w_f = Tensor::FromData(4, 1, {0.5f, 0.0f, 0.25f, 0.25f});
  Tensor w_cf = Tensor::FromData(4, 1, {0.0f, 1.0f, 0.0f, 0.0f});
  auto loss = [&]() {
    Tensor r = Sigmoid(lf);
    Tensor r_cf = Sigmoid(lcf);
    Tensor factual = WeightedSum(BceLoss(r, y), w_f);
    Tensor counter = WeightedSum(BceLoss(r_cf, OneMinus(y)), w_cf);
    Tensor reg = Mean(Abs(OneMinus(Add(r, r_cf))));
    return Add(Add(factual, counter), Scale(reg, 0.1f));
  };
  EXPECT_TRUE(CheckGradients(loss, {lf, lcf}).ok);
}

// --- Rng ----------------------------------------------------------------------

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const float u = rng.Uniform();
    EXPECT_GE(u, 0.0f);
    EXPECT_LT(u, 1.0f);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(2);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.03);
  EXPECT_NEAR(sq / kN, 1.0, 0.05);
}

TEST(RngTest, BoundedIsUnbiasedEnough) {
  Rng rng(3);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 10000; ++i) ++counts[rng.NextBounded(5)];
  for (int c : counts) EXPECT_NEAR(c, 2000, 250);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(4);
  EXPECT_FALSE(rng.Bernoulli(0.0f));
  EXPECT_TRUE(rng.Bernoulli(1.0f));
}

TEST(RngTest, SplitStreamsDiffer) {
  Rng parent(5);
  Rng a = parent.Split(1);
  Rng b = parent.Split(2);
  EXPECT_NE(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(6);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

}  // namespace
}  // namespace dcmt
