// Tests for the data-parallel training step (DESIGN.md §9): a taped forward
// over B >= 512 rows runs as K = MicroBatchCount(B) row micro-batches, each
// on its own tape, joined back into full-batch columns so the loss is taken
// once over the whole batch; backward runs the micro-tapes in parallel into
// per-micro-batch gradient sinks that are reduced in ascending k.
//
// The reference for every comparison is the one-piece tape of the same
// model body (UnsplitForwardForTesting): forward values and the step-1 loss
// must be its exact bits, the parameter gradients equal up to the order of
// their sums.

#include <algorithm>
#include <cmath>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/obs.h"
#include "core/registry.h"
#include "core/thread_pool.h"
#include "data/batcher.h"
#include "data/generator.h"
#include "models/multi_task_model.h"
#include "nn/graph_check.h"
#include "serve/frozen_model.h"
#include "tensor/ops.h"

namespace dcmt {
namespace models {

/// Builds the one-piece tape that MultiTaskModel::Forward splits.
class UnsplitForwardForTesting {
 public:
  static Predictions Run(MultiTaskModel* model, const data::Batch& batch) {
    return model->ForwardRows(batch);
  }
};

}  // namespace models

namespace {

using core::ThreadPool;

/// RAII: pool width for a test, serial again afterwards.
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) {
    ThreadPool::Global().SetNumThreads(threads);
  }
  ~ScopedThreads() { ThreadPool::Global().SetNumThreads(1); }
};

/// Every Predictions field with its name, for field-by-field comparisons.
const std::vector<std::pair<const char*, Tensor models::Predictions::*>>&
Fields() {
  static const std::vector<std::pair<const char*, Tensor models::Predictions::*>>
      kFields = {{"ctr", &models::Predictions::ctr},
                 {"cvr", &models::Predictions::cvr},
                 {"ctcvr", &models::Predictions::ctcvr},
                 {"cvr_counterfactual", &models::Predictions::cvr_counterfactual},
                 {"ctr_logit", &models::Predictions::ctr_logit},
                 {"cvr_logit", &models::Predictions::cvr_logit},
                 {"cvr_cf_logit", &models::Predictions::cvr_cf_logit},
                 {"imputed_error", &models::Predictions::imputed_error}};
  return kFields;
}

data::Dataset SplitTrainSet() {
  data::DatasetProfile p;
  p.name = "micro";
  p.num_users = 60;
  p.num_items = 90;
  p.train_exposures = 1100;
  p.test_exposures = 1;
  p.target_click_rate = 0.3;
  p.target_cvr_given_click = 0.3;
  p.seed = 19;
  return data::SyntheticLogGenerator(p).GenerateTrain();
}

models::ModelConfig SmallConfig() {
  models::ModelConfig c;
  c.embedding_dim = 4;
  c.hidden_dims = {8, 4};
  c.num_experts = 2;
  c.specific_experts = 1;
  c.shared_experts = 1;
  c.seed = 23;
  return c;
}

std::vector<std::vector<float>> Gradients(models::MultiTaskModel* model) {
  std::vector<std::vector<float>> grads;
  for (const Tensor& p : model->parameters()) {
    grads.push_back(p.has_grad() ? std::vector<float>(p.grad(), p.grad() + p.size())
                                 : std::vector<float>());
  }
  return grads;
}

TEST(MicroBatchSplitRule, KIsAPureFunctionOfTheRowCount) {
  EXPECT_EQ(models::MicroBatchCount(1), 1);
  EXPECT_EQ(models::MicroBatchCount(511), 1);
  EXPECT_EQ(models::MicroBatchCount(512), 2);
  EXPECT_EQ(models::MicroBatchCount(767), 2);
  EXPECT_EQ(models::MicroBatchCount(768), 3);
  EXPECT_EQ(models::MicroBatchCount(1023), 3);
  EXPECT_EQ(models::MicroBatchCount(1024), 4);
  EXPECT_EQ(models::MicroBatchCount(1 << 20), models::kMaxMicroBatches);
}

TEST(MicroBatchSliceRows, CutsEveryColumnToTheRange) {
  const data::Dataset train = SplitTrainSet();
  const data::Batch batch = data::MakeContiguousBatch(train, 0, 40);
  const data::Batch part = data::SliceRows(batch, 10, 25);
  ASSERT_EQ(part.size, 15);
  ASSERT_EQ(part.deep_ids.size(), batch.deep_ids.size());
  ASSERT_EQ(part.wide_ids.size(), batch.wide_ids.size());
  for (int r = 0; r < 15; ++r) {
    const std::size_t i = static_cast<std::size_t>(r);
    const std::size_t j = i + 10;
    for (std::size_t f = 0; f < batch.deep_ids.size(); ++f) {
      EXPECT_EQ(part.deep_ids[f][i], batch.deep_ids[f][j]);
    }
    for (std::size_t f = 0; f < batch.wide_ids.size(); ++f) {
      EXPECT_EQ(part.wide_ids[f][i], batch.wide_ids[f][j]);
    }
    EXPECT_EQ(part.click.at(r, 0), batch.click.at(r + 10, 0));
    EXPECT_EQ(part.conversion.at(r, 0), batch.conversion.at(r + 10, 0));
    EXPECT_EQ(part.ctcvr.at(r, 0), batch.ctcvr.at(r + 10, 0));
    EXPECT_EQ(part.click_raw[i], batch.click_raw[j]);
    EXPECT_EQ(part.conversion_raw[i], batch.conversion_raw[j]);
    EXPECT_EQ(part.true_ctr[i], batch.true_ctr[j]);
    EXPECT_EQ(part.true_cvr[i], batch.true_cvr[j]);
  }
}

// --- the split against the one-piece tape, for every model ------------------

struct SplitCase {
  std::string model;
  int rows;
};

void PrintTo(const SplitCase& c, std::ostream* os) {
  *os << c.model << " at " << c.rows << " rows";
}

class MicroBatchZooTest : public ::testing::TestWithParam<SplitCase> {};

TEST_P(MicroBatchZooTest, SplitMatchesTheOnePieceTape) {
  const SplitCase& c = GetParam();
  ScopedThreads threads(4);
  const data::Dataset train = SplitTrainSet();
  const data::Batch batch = data::MakeContiguousBatch(train, 0, c.rows);
  ASSERT_GT(models::MicroBatchCount(c.rows), 1);
  auto split = core::CreateModel(c.model, train.schema(), SmallConfig());
  auto whole = core::CreateModel(c.model, train.schema(), SmallConfig());

  const models::Predictions sp = split->Forward(batch);
  const models::Predictions wp =
      models::UnsplitForwardForTesting::Run(whole.get(), batch);
  for (const auto& [name, field] : Fields()) {
    ASSERT_EQ((sp.*field).defined(), (wp.*field).defined()) << name;
    if (!(wp.*field).defined()) continue;
    EXPECT_EQ((sp.*field).ToVector(), (wp.*field).ToVector())
        << name << " differs from the one-piece forward";
  }

  // Serving never splits, and its scores are the taped forward's bits.
  serve::FrozenModel frozen =
      serve::FrozenModel::View(split.get(), train.schema());
  const serve::ScoreColumns served = frozen.ScoreBatch(batch);
  EXPECT_EQ(served.pctr, sp.ctr.ToVector());
  EXPECT_EQ(served.pcvr, sp.cvr.ToVector());
  EXPECT_EQ(served.pctcvr, sp.ctcvr.ToVector());

  Tensor split_loss = split->Loss(batch, sp);
  Tensor whole_loss = whole->Loss(batch, wp);
  EXPECT_EQ(split_loss.item(), whole_loss.item()) << "step-1 loss";

  split->ZeroGrad();
  whole->ZeroGrad();
  split_loss.Backward();
  whole_loss.Backward();
  const std::vector<std::vector<float>> sg = Gradients(split.get());
  const std::vector<std::vector<float>> wg = Gradients(whole.get());
  ASSERT_EQ(sg.size(), wg.size());
  for (std::size_t i = 0; i < wg.size(); ++i) {
    const std::string& name = whole->parameters()[i].name();
    ASSERT_EQ(sg[i].size(), wg[i].size()) << name;
    float scale = 0.0f, worst = 0.0f;
    for (std::size_t j = 0; j < wg[i].size(); ++j) {
      scale = std::max(scale, std::fabs(wg[i][j]));
      worst = std::max(worst, std::fabs(sg[i][j] - wg[i][j]));
    }
    EXPECT_LE(worst, 1e-5f * scale + 1e-12f)
        << name << ": gradient differs beyond summation order";
  }
}

TEST_P(MicroBatchZooTest, SplitGradientsAreTheSameBitsAtOneTwoAndFourThreads) {
  const SplitCase& c = GetParam();
  const data::Dataset train = SplitTrainSet();
  const data::Batch batch = data::MakeContiguousBatch(train, 0, c.rows);
  std::vector<std::vector<std::vector<float>>> runs;
  for (const int width : {1, 2, 4}) {
    ScopedThreads threads(width);
    auto model = core::CreateModel(c.model, train.schema(), SmallConfig());
    const models::Predictions preds = model->Forward(batch);
    model->Loss(batch, preds).Backward();
    runs.push_back(Gradients(model.get()));
  }
  EXPECT_EQ(runs[0], runs[1]) << "1 vs 2 threads";
  EXPECT_EQ(runs[0], runs[2]) << "1 vs 4 threads";
}

std::vector<SplitCase> AllSplitCases() {
  std::vector<SplitCase> cases;
  for (const std::string& name : core::ExtendedModelNames()) {
    for (const int rows : {1024, 640, 513}) cases.push_back({name, rows});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, MicroBatchZooTest, ::testing::ValuesIn(AllSplitCases()),
    [](const ::testing::TestParamInfo<SplitCase>& param) {
      std::string name = param.param.model + "_" + std::to_string(param.param.rows);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(MicroBatchForward, OnlyBatchesOf512RowsOrMoreAreJoined) {
  const data::Dataset train = SplitTrainSet();
  auto model = core::CreateModel("dcmt", train.schema(), SmallConfig());
  // Below 512 rows there is no join: the outputs hang off the model body.
  const data::Batch small = data::MakeContiguousBatch(train, 0, 511);
  const models::Predictions direct = model->Forward(small);
  ASSERT_NE(direct.ctr.op(), nullptr);
  EXPECT_STREQ(direct.ctr.op(), "sigmoid");
  // At 1024 rows every field is a column of the join.
  const data::Batch big = data::MakeContiguousBatch(train, 0, 1024);
  const models::Predictions joined = model->Forward(big);
  ASSERT_NE(joined.ctr.op(), nullptr);
  EXPECT_STREQ(joined.ctr.op(), "slice_cols");
  EXPECT_STREQ(joined.ctr.impl()->parents[0].op(), "micro_batch_join");
}

TEST(MicroBatchForward, GraphCheckWalksTheMicroTapes) {
  const data::Dataset train = SplitTrainSet();
  auto model = core::CreateModel("dcmt", train.schema(), SmallConfig());
  const data::Batch batch = data::MakeContiguousBatch(train, 0, 1024);
  const models::Predictions preds = model->Forward(batch);
  Tensor loss = model->Loss(batch, preds);
  const nn::GraphCheckResult fresh = nn::CheckGraph(loss, model->parameters());
  EXPECT_TRUE(fresh.ok()) << fresh.Report();
  loss.Backward();
  // A second backward would re-run the micro-tapes; the check sees their
  // consumed nodes, not only the join's.
  const nn::GraphCheckResult stale = nn::CheckGraph(loss, model->parameters());
  int stale_interior = 0;
  for (const nn::GraphIssue& issue : stale.issues) {
    if (issue.kind == "stale-tape" &&
        issue.message.find("dense") != std::string::npos) {
      ++stale_interior;
    }
  }
  EXPECT_GT(stale_interior, 0) << stale.Report();
}

// --- the join and the multi-root backward on hand-built tapes ---------------

TEST(MicroBatchJoin, StacksEachColumnInMicroBatchOrder) {
  const Tensor a0 = Tensor::ColumnVector({1, 2});
  const Tensor b0 = Tensor::ColumnVector({10, 20});
  const Tensor a1 = Tensor::ColumnVector({3, 4, 5});
  const Tensor b1 = Tensor::ColumnVector({30, 40, 50});
  const Tensor j = ops::JoinMicroBatches({{a0, b0}, {a1, b1}});
  ASSERT_EQ(j.rows(), 5);
  ASSERT_EQ(j.cols(), 2);
  EXPECT_EQ(j.ToVector(),
            (std::vector<float>{1, 10, 2, 20, 3, 30, 4, 40, 5, 50}));
  EXPECT_FALSE(j.requires_grad());
}

TEST(MicroBatchJoin, BackwardAddsEveryMicroBatchIntoTheSharedLeafInOrder) {
  ScopedThreads threads(4);
  Tensor w = Tensor::Scalar(2.0f, /*requires_grad=*/true);
  w.grad()[0] = 0.5f;  // the reduction adds onto what the leaf holds
  std::vector<std::vector<Tensor>> blocks;
  for (int k = 0; k < 4; ++k) {
    const Tensor x = Tensor::ColumnVector({1.0f + k, 2.0f + k});
    const Tensor y = ops::Mul(x, w);  // dy/dw = x
    blocks.push_back({y, y});         // one root, listed as two columns
  }
  const Tensor j = ops::JoinMicroBatches(blocks);
  Tensor loss = ops::Add(ops::Sum(ops::SliceCols(j, 0, 1)),
                         ops::Scale(ops::Sum(ops::SliceCols(j, 1, 1)), 3.0f));
  loss.Backward();
  // d/dw = (1 + 3) * Σ x = 4 * (1+2 + 2+3 + 3+4 + 4+5) = 96.
  EXPECT_EQ(w.grad()[0], 0.5f + 96.0f);
}

TEST(MicroBatchJoin, OpTimingSkipsTheJoinAndKeepsItsMicroBatchOps) {
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  Tensor w = Tensor::Scalar(2.0f, /*requires_grad=*/true);
  std::vector<std::vector<Tensor>> blocks;
  for (int k = 0; k < 2; ++k) {
    blocks.push_back({ops::Mul(Tensor::ColumnVector({1.0f, 2.0f}), w)});
  }
  ops::Sum(ops::SliceCols(ops::JoinMicroBatches(blocks), 0, 1)).Backward();
  const std::string text = obs::Registry::Global().RenderPrometheus();
  obs::SetEnabled(was_enabled);
  EXPECT_NE(text.find("dcmt_op_backward_seconds_total{op=\"mul\"}"),
            std::string::npos);
  EXPECT_EQ(text.find("op=\"micro_batch_join\""), std::string::npos);
}

TEST(MultiRootBackward, ARootFeedingAnotherRootGetsItsSeedAndItsDownstreamGradient) {
  Tensor x = Tensor::ColumnVector({1.0f, 3.0f}, /*requires_grad=*/true);
  const Tensor r1 = ops::Scale(x, 2.0f);   // r1 = 2x
  const Tensor r2 = ops::Mul(r1, r1);      // r2 = r1²
  Tensor::BackwardFrom({r2, r1}, {{1.0f, 1.0f}, {10.0f, 100.0f}});
  // dx = 2 (s1 + 2 r1 s2), with r1 seeded s1 and r2 seeded s2 = 1.
  EXPECT_EQ(x.grad()[0], 2.0f * (10.0f + 4.0f));
  EXPECT_EQ(x.grad()[1], 2.0f * (100.0f + 12.0f));
}

}  // namespace
}  // namespace dcmt
