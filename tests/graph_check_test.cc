// Tests for nn::CheckGraph (DESIGN.md §11): the validator must pass every
// model-zoo tape untouched and reject each seeded class of broken graph with
// the right issue kind.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "data/batcher.h"
#include "data/profiles.h"
#include "nn/graph_check.h"
#include "serve/frozen_model.h"
#include "tensor/gradcheck.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace dcmt {
namespace {

bool HasKind(const nn::GraphCheckResult& r, const std::string& kind) {
  return std::any_of(r.issues.begin(), r.issues.end(),
                     [&](const nn::GraphIssue& i) { return i.kind == kind; });
}

data::Batch SmallBatch() {
  data::DatasetProfile profile = data::ProfileByName("ae-es");
  profile.train_exposures = 64;
  profile.test_exposures = 1;
  data::SyntheticLogGenerator generator(profile);
  static const data::Dataset dataset = generator.GenerateTrain();
  return data::MakeContiguousBatch(dataset, 0, 32);
}

data::FeatureSchema SmallSchema() {
  data::DatasetProfile profile = data::ProfileByName("ae-es");
  profile.train_exposures = 64;
  profile.test_exposures = 1;
  data::SyntheticLogGenerator generator(profile);
  return generator.GenerateTrain().schema();
}

// --- Green path: every registered model builds a clean tape. ---------------

class ModelTapeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ModelTapeTest, TapeValidates) {
  const data::Batch batch = SmallBatch();
  models::ModelConfig config;
  config.embedding_dim = 8;
  config.seed = 7;
  auto model = core::CreateModel(GetParam(), SmallSchema(), config);
  const models::Predictions preds = model->Forward(batch);
  const Tensor loss = model->Loss(batch, preds);
  const nn::GraphCheckResult result = nn::CheckGraph(loss, model->parameters());
  EXPECT_TRUE(result.ok()) << result.Report();
  EXPECT_GT(result.nodes_visited, 0);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelTapeTest,
                         ::testing::ValuesIn(core::ExtendedModelNames()),
                         [](const ::testing::TestParamInfo<std::string>& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// --- InferenceGuard leaves no state behind (DESIGN.md §13). ----------------

TEST(InferenceGuardPropertyTest, GuardedScoringLeavesTapeCountersUntouched) {
  const data::Batch batch = SmallBatch();
  models::ModelConfig config;
  config.embedding_dim = 8;
  config.seed = 7;
  auto model = core::CreateModel("dcmt", SmallSchema(), config);
  const std::int64_t live_before = Tensor::LiveGraphNodesForTesting();
  serve::FrozenModel frozen =
      serve::FrozenModel::View(model.get(), SmallSchema());
  const serve::ScoreColumns scores = frozen.ScoreBatch(batch);
  ASSERT_EQ(scores.pctcvr.size(), 32u);
  // No graph node survives a guarded forward: the tape is exactly as empty
  // as it was before scoring.
  EXPECT_EQ(Tensor::LiveGraphNodesForTesting(), live_before);
}

TEST(InferenceGuardPropertyTest, TrainingTapeStillValidatesAfterScoring) {
  const data::Batch batch = SmallBatch();
  models::ModelConfig config;
  config.embedding_dim = 8;
  config.seed = 7;
  auto model = core::CreateModel("dcmt", SmallSchema(), config);
  serve::FrozenModel frozen =
      serve::FrozenModel::View(model.get(), SmallSchema());
  frozen.ScoreBatch(batch);
  // A training step taken right after guarded scoring must build the same
  // clean tape it always does.
  const models::Predictions preds = model->Forward(batch);
  const Tensor loss = model->Loss(batch, preds);
  const nn::GraphCheckResult result = nn::CheckGraph(loss, model->parameters());
  EXPECT_TRUE(result.ok()) << result.Report();
  EXPECT_GT(result.nodes_visited, 0);
}

TEST(InferenceGuardPropertyTest, GradcheckPassesAfterGuardedScoring) {
  const data::Batch batch = SmallBatch();
  models::ModelConfig config;
  config.embedding_dim = 8;
  config.seed = 7;
  auto model = core::CreateModel("dcmt", SmallSchema(), config);
  Tensor w = Tensor::Full(3, 2, 0.5f, /*requires_grad=*/true);
  Tensor x = Tensor::Full(4, 3, 1.0f);
  Tensor y = Tensor::Full(4, 2, 1.0f);
  const auto loss_fn = [&] {
    // Interleave guarded serving with the gradcheck's graph rebuilds: the
    // guard must not bleed into the taped loss it is sandwiched between.
    serve::FrozenModel::View(model.get(), SmallSchema()).ScoreBatch(batch);
    return ops::Sum(ops::BceLoss(ops::Sigmoid(ops::MatMul(x, w)), y));
  };
  const GradCheckResult result = CheckGradients(loss_fn, {w});
  EXPECT_TRUE(result.ok) << result.worst;
}

TEST(GraphCheckTest, SimpleOpsGraphValidates) {
  Tensor w = Tensor::Full(3, 2, 0.5f, /*requires_grad=*/true);
  Tensor x = Tensor::Full(4, 3, 1.0f);
  Tensor y = Tensor::Full(4, 2, 1.0f);
  Tensor loss = ops::Sum(ops::BceLoss(ops::Sigmoid(ops::MatMul(x, w)), y));
  const nn::GraphCheckResult result = nn::CheckGraph(loss, {w});
  EXPECT_TRUE(result.ok()) << result.Report();
}

// --- Red path: each seeded defect is caught with its stable kind. ----------

TEST(GraphCheckTest, RejectsNonScalarLoss) {
  Tensor loss = Tensor::Zeros(2, 1, /*requires_grad=*/true);
  EXPECT_TRUE(HasKind(nn::CheckGraph(loss), "loss-not-scalar"));
}

TEST(GraphCheckTest, RejectsLossWithoutGrad) {
  Tensor loss = Tensor::Scalar(0.5f, /*requires_grad=*/false);
  EXPECT_TRUE(HasKind(nn::CheckGraph(loss), "loss-no-grad"));
}

TEST(GraphCheckTest, RejectsUndefinedLoss) {
  Tensor loss;
  const nn::GraphCheckResult result = nn::CheckGraph(loss);
  EXPECT_FALSE(result.ok());
}

TEST(GraphCheckTest, RejectsDisconnectedParameter) {
  Tensor w = Tensor::Full(3, 1, 0.1f, /*requires_grad=*/true);
  Tensor orphan = Tensor::Full(2, 2, 0.1f, /*requires_grad=*/true);
  orphan.set_name("orphan");
  Tensor x = Tensor::Full(4, 3, 1.0f);
  Tensor loss = ops::Sum(ops::MatMul(x, w));
  const nn::GraphCheckResult result = nn::CheckGraph(loss, {w, orphan});
  EXPECT_TRUE(HasKind(result, "unreachable-param")) << result.Report();
  // The reachable parameter alone is fine.
  EXPECT_TRUE(nn::CheckGraph(loss, {w}).ok());
}

TEST(GraphCheckTest, RejectsMatMulShapeMismatch) {
  // Hand-built node lying about its provenance: tagged matmul but the inner
  // dimensions (3 vs 4) cannot multiply. Real ops can never build this; a
  // buggy hand-rolled op or a corrupted tape can.
  Tensor a = Tensor::Full(2, 3, 1.0f, /*requires_grad=*/true);
  Tensor b = Tensor::Full(4, 5, 1.0f);
  Tensor bad = Tensor::MakeNode(2, 5, {a, b}, /*requires_grad=*/true);
  bad.SetOp("matmul");
  bad.SetBackwardFn([] {});
  Tensor loss = ops::Sum(bad);
  const nn::GraphCheckResult result = nn::CheckGraph(loss);
  EXPECT_TRUE(HasKind(result, "shape-mismatch")) << result.Report();
}

TEST(GraphCheckTest, RejectsDenseShapeMismatch) {
  // Hand-built fused dense node whose bias row is 4 wide while W has 5
  // columns; x * W itself agrees.
  Tensor x = Tensor::Full(2, 3, 1.0f, /*requires_grad=*/true);
  Tensor w = Tensor::Full(3, 5, 1.0f);
  Tensor b = Tensor::Full(1, 4, 0.0f);
  Tensor bad = Tensor::MakeNode(2, 5, {x, w, b}, /*requires_grad=*/true);
  bad.SetOp("dense");
  bad.SetBackwardFn([] {});
  Tensor loss = ops::Sum(bad);
  const nn::GraphCheckResult result = nn::CheckGraph(loss);
  EXPECT_TRUE(HasKind(result, "shape-mismatch")) << result.Report();
  EXPECT_NE(result.Report().find("bias"), std::string::npos) << result.Report();
  // The real op builds a node the checker accepts.
  Tensor good_w = Tensor::Full(3, 5, 0.5f, /*requires_grad=*/true);
  Tensor good_b = Tensor::Full(1, 5, 0.1f, /*requires_grad=*/true);
  const Tensor good = ops::Sum(ops::Dense(x, good_w, good_b, /*relu=*/true));
  EXPECT_TRUE(nn::CheckGraph(good, {good_w, good_b}).ok());
}

TEST(GraphCheckTest, RejectsElementwiseShapeMismatch) {
  // "add" with incompatible (non-broadcastable) parent shapes.
  Tensor a = Tensor::Full(4, 3, 1.0f, /*requires_grad=*/true);
  Tensor b = Tensor::Full(2, 5, 1.0f);
  Tensor bad = Tensor::MakeNode(4, 3, {a, b}, /*requires_grad=*/true);
  bad.SetOp("add");
  bad.SetBackwardFn([] {});
  Tensor loss = ops::Sum(bad);
  EXPECT_TRUE(HasKind(nn::CheckGraph(loss), "shape-mismatch"));
}

TEST(GraphCheckTest, RejectsMissingBackwardRegistration) {
  // Interior node that requires grad over a grad-requiring parent but never
  // registered a closure: Backward() would silently drop the gradient.
  Tensor w = Tensor::Full(2, 2, 1.0f, /*requires_grad=*/true);
  Tensor bad = Tensor::MakeNode(2, 2, {w}, /*requires_grad=*/true);
  Tensor loss = ops::Sum(bad);
  const nn::GraphCheckResult result = nn::CheckGraph(loss, {w});
  EXPECT_TRUE(HasKind(result, "missing-backward")) << result.Report();
}

TEST(GraphCheckTest, RejectsReusedTape) {
  Tensor w = Tensor::Full(3, 1, 0.1f, /*requires_grad=*/true);
  Tensor x = Tensor::Full(4, 3, 1.0f);
  Tensor loss = ops::Sum(ops::MatMul(x, w));
  ASSERT_TRUE(nn::CheckGraph(loss, {w}).ok());
  loss.Backward();
  // Running Backward() again on the same tape would double-accumulate into
  // w.grad; the validator flags the consumed tape instead.
  const nn::GraphCheckResult result = nn::CheckGraph(loss, {w});
  EXPECT_TRUE(HasKind(result, "stale-tape")) << result.Report();
}

TEST(GraphCheckTest, ReportListsEveryIssueOnItsOwnLine) {
  Tensor loss = Tensor::Zeros(2, 2, /*requires_grad=*/false);
  const nn::GraphCheckResult result = nn::CheckGraph(loss);
  ASSERT_GE(result.issues.size(), 2u);  // not-scalar and no-grad
  const std::string report = result.Report();
  EXPECT_NE(report.find("loss-not-scalar"), std::string::npos);
  EXPECT_NE(report.find("loss-no-grad"), std::string::npos);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(report.begin(), report.end(), '\n')),
            result.issues.size());
}

}  // namespace
}  // namespace dcmt
