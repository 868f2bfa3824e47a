// Unit tests for the neural-net layer library: parameter registration,
// shapes, initialization statistics, and gradient flow through layers.

#include <cmath>

#include <gtest/gtest.h>

#include "nn/embedding.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "support/gradcheck.h"
#include "tensor/ops.h"

namespace dcmt {
namespace {

TEST(LinearTest, ShapesAndParameterCount) {
  Rng rng(1);
  nn::Linear layer("fc", 8, 3, &rng);
  EXPECT_EQ(layer.in_features(), 8);
  EXPECT_EQ(layer.out_features(), 3);
  // W: 8*3, b: 3.
  EXPECT_EQ(layer.ParameterCount(), 8 * 3 + 3);
  EXPECT_EQ(layer.parameters().size(), 2u);

  Tensor x = Tensor::Full(5, 8, 1.0f);
  Tensor y = layer.Forward(x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 3);
}

TEST(LinearTest, BiasStartsZeroWeightsNot) {
  Rng rng(2);
  nn::Linear layer("fc", 4, 4, &rng);
  const Tensor& b = layer.bias();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(b.data()[i], 0.0f);
  float weight_norm = 0.0f;
  for (int i = 0; i < 16; ++i) weight_norm += std::fabs(layer.weight().data()[i]);
  EXPECT_GT(weight_norm, 0.0f);
}

TEST(LinearTest, ForwardMatchesManualAffine) {
  Rng rng(3);
  nn::Linear layer("fc", 2, 1, &rng);
  Tensor x = Tensor::FromData(1, 2, {2.0f, -1.0f});
  const float expected = 2.0f * layer.weight().at(0, 0) +
                         (-1.0f) * layer.weight().at(1, 0) + layer.bias().at(0, 0);
  EXPECT_NEAR(layer.Forward(x).at(0, 0), expected, 1e-6f);
}

TEST(LinearTest, GradCheckThroughLayer) {
  Rng rng(4);
  nn::Linear layer("fc", 3, 2, &rng);
  Tensor x = Tensor::Uniform(4, 3, -1.0f, 1.0f, &rng, /*requires_grad=*/true);
  auto loss = [&]() { return ops::Sum(ops::Square(layer.Forward(x))); };
  std::vector<Tensor> inputs = layer.parameters();
  inputs.push_back(x);
  EXPECT_TRUE(CheckGradients(loss, inputs).ok);
}

TEST(MlpTest, DepthAndOutputWidth) {
  Rng rng(5);
  nn::Mlp mlp("mlp", 10, {16, 8, 4}, &rng);
  EXPECT_EQ(mlp.depth(), 3);
  EXPECT_EQ(mlp.out_features(), 4);
  Tensor x = Tensor::Full(2, 10, 0.5f);
  Tensor y = mlp.Forward(x);
  EXPECT_EQ(y.rows(), 2);
  EXPECT_EQ(y.cols(), 4);
}

TEST(MlpTest, ReluOutputsNonNegative) {
  Rng rng(6);
  nn::Mlp mlp("mlp", 6, {8, 8}, &rng, nn::Activation::kRelu);
  Tensor x = Tensor::Uniform(16, 6, -2.0f, 2.0f, &rng);
  Tensor y = mlp.Forward(x);
  for (std::int64_t i = 0; i < y.size(); ++i) EXPECT_GE(y.data()[i], 0.0f);
}

TEST(MlpTest, SigmoidActivationBounded) {
  Rng rng(7);
  nn::Mlp mlp("mlp", 6, {8}, &rng, nn::Activation::kSigmoid);
  Tensor x = Tensor::Uniform(16, 6, -3.0f, 3.0f, &rng);
  Tensor y = mlp.Forward(x);
  for (std::int64_t i = 0; i < y.size(); ++i) {
    EXPECT_GT(y.data()[i], 0.0f);
    EXPECT_LT(y.data()[i], 1.0f);
  }
}

TEST(MlpTest, GradientReachesAllParameters) {
  Rng rng(8);
  nn::Mlp mlp("mlp", 4, {6, 3}, &rng, nn::Activation::kTanh);
  Tensor x = Tensor::Uniform(8, 4, -1.0f, 1.0f, &rng);
  mlp.ZeroGrad();
  ops::Sum(ops::Square(mlp.Forward(x))).Backward();
  for (const Tensor& p : mlp.parameters()) {
    float norm = 0.0f;
    const Tensor& pt = p;
    ASSERT_TRUE(pt.has_grad()) << p.name();
    for (std::int64_t i = 0; i < p.size(); ++i) norm += std::fabs(pt.grad()[i]);
    EXPECT_GT(norm, 0.0f) << p.name();
  }
}

TEST(EmbeddingBagTest, OutputIsConcatOfFields) {
  Rng rng(9);
  nn::EmbeddingBag bag("emb", {10, 20}, 4, &rng);
  EXPECT_EQ(bag.field_count(), 2);
  EXPECT_EQ(bag.out_features(), 8);
  const std::vector<std::vector<int>> ids = {{3, 7}, {11, 0}};
  Tensor out = bag.Forward(ids);
  EXPECT_EQ(out.rows(), 2);
  EXPECT_EQ(out.cols(), 8);
  // First 4 columns of row 0 = table0 row 3; last 4 = table1 row 11.
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(out.at(0, c), bag.table(0).at(3, c));
    EXPECT_EQ(out.at(0, 4 + c), bag.table(1).at(11, c));
  }
}

TEST(EmbeddingBagTest, GradientsFlowOnlyToUsedRows) {
  Rng rng(10);
  nn::EmbeddingBag bag("emb", {5}, 3, &rng);
  bag.ZeroGrad();
  ops::Sum(bag.Forward({{2, 2, 4}})).Backward();
  Tensor table = bag.table(0);
  // Row 2 used twice.
  EXPECT_FLOAT_EQ(table.grad()[2 * 3], 2.0f);
  EXPECT_FLOAT_EQ(table.grad()[4 * 3], 1.0f);
  EXPECT_FLOAT_EQ(table.grad()[0], 0.0f);
}

TEST(InitTest, XavierWithinBound) {
  Rng rng(11);
  Tensor w = nn::XavierUniform(100, 50, &rng);
  const float bound = std::sqrt(6.0f / 150.0f);
  for (std::int64_t i = 0; i < w.size(); ++i) {
    EXPECT_LE(std::fabs(w.data()[i]), bound);
  }
  EXPECT_TRUE(w.requires_grad());
}

TEST(InitTest, HeNormalVariance) {
  Rng rng(12);
  Tensor w = nn::HeNormal(200, 100, &rng);
  double sq = 0.0;
  for (std::int64_t i = 0; i < w.size(); ++i) {
    sq += static_cast<double>(w.data()[i]) * w.data()[i];
  }
  const double var = sq / static_cast<double>(w.size());
  EXPECT_NEAR(var, 2.0 / 200.0, 2.0 / 200.0 * 0.15);
}

TEST(ModuleTest, ParameterCountAggregatesChildren) {
  Rng rng(13);
  nn::Mlp mlp("mlp", 4, {8, 2}, &rng);
  // (4*8 + 8) + (8*2 + 2) = 58.
  EXPECT_EQ(mlp.ParameterCount(), 58);
}

}  // namespace
}  // namespace dcmt
