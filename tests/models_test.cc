// Tests for the baseline model zoo: construction via the registry, forward
// shapes and ranges, loss finiteness and gradient flow, CTCVR consistency,
// and per-model structural behaviours (stitch units, gates, IPW weighting,
// DR imputation, AITM calibrator).

#include <cmath>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "core/thread_pool.h"
#include "data/batcher.h"
#include "data/generator.h"
#include "data/profiles.h"
#include "eval/checkpointer.h"
#include "models/common.h"
#include "optim/adam.h"
#include "serve/frozen_model.h"
#include "tensor/ops.h"

namespace dcmt {
namespace {

data::DatasetProfile TinyProfile(bool wide = true) {
  data::DatasetProfile p;
  p.name = "tiny";
  p.num_users = 50;
  p.num_items = 80;
  p.train_exposures = 600;
  p.test_exposures = 200;
  p.target_click_rate = 0.3;  // dense labels for loss-path coverage
  p.target_cvr_given_click = 0.3;
  p.with_wide_features = wide;
  p.seed = 11;
  return p;
}

models::ModelConfig TinyConfig() {
  models::ModelConfig c;
  c.embedding_dim = 4;
  c.hidden_dims = {8, 4};
  c.num_experts = 2;
  c.specific_experts = 1;
  c.shared_experts = 1;
  c.seed = 5;
  return c;
}

class ModelZooTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    data::SyntheticLogGenerator gen(TinyProfile());
    train_ = gen.GenerateTrain();
    batch_ = data::MakeContiguousBatch(train_, 0, 128);
    model_ = core::CreateModel(GetParam(), train_.schema(), TinyConfig());
  }

  data::Dataset train_;
  data::Batch batch_;
  std::unique_ptr<models::MultiTaskModel> model_;
};

TEST_P(ModelZooTest, NameMatchesRegistry) {
  EXPECT_EQ(model_->name(), GetParam());
}

TEST_P(ModelZooTest, ForwardShapesAndRanges) {
  const models::Predictions preds = model_->Forward(batch_);
  ASSERT_TRUE(preds.ctr.defined());
  ASSERT_TRUE(preds.cvr.defined());
  ASSERT_TRUE(preds.ctcvr.defined());
  for (const Tensor* t : {&preds.ctr, &preds.cvr, &preds.ctcvr}) {
    EXPECT_EQ(t->rows(), 128);
    EXPECT_EQ(t->cols(), 1);
    for (int i = 0; i < 128; ++i) {
      EXPECT_GT(t->at(i, 0), 0.0f);
      EXPECT_LT(t->at(i, 0), 1.0f);
    }
  }
}

TEST_P(ModelZooTest, FrozenServingScoresMatchTapedForwardBitExact) {
  // Train/serve parity (DESIGN.md §13): the tape-free serving forward must
  // reproduce the training forward bit for bit, serial and parallel.
  const models::Predictions preds = model_->Forward(batch_);
  serve::FrozenModel frozen =
      serve::FrozenModel::View(model_.get(), train_.schema());
  const serve::ScoreColumns serial = frozen.ScoreBatch(batch_);
  ASSERT_EQ(serial.pctcvr.size(), 128u);
  for (int i = 0; i < 128; ++i) {
    const std::size_t row = static_cast<std::size_t>(i);
    EXPECT_EQ(serial.pctr[row], preds.ctr.at(i, 0)) << "row " << i;
    EXPECT_EQ(serial.pcvr[row], preds.cvr.at(i, 0)) << "row " << i;
    EXPECT_EQ(serial.pctcvr[row], preds.ctcvr.at(i, 0)) << "row " << i;
  }
  // Same bits with multi-chunk parallel kernels.
  core::ThreadPool::Global().SetNumThreads(4);
  core::SetGrainCapForTesting(1);
  const serve::ScoreColumns threaded = frozen.ScoreBatch(batch_);
  core::SetGrainCapForTesting(0);
  core::ThreadPool::Global().SetNumThreads(1);
  EXPECT_EQ(threaded.pctr, serial.pctr);
  EXPECT_EQ(threaded.pcvr, serial.pcvr);
  EXPECT_EQ(threaded.pctcvr, serial.pctcvr);
}

TEST_P(ModelZooTest, CtcvrIsProductOfCtrAndCvr) {
  const models::Predictions preds = model_->Forward(batch_);
  for (int i = 0; i < 128; ++i) {
    EXPECT_NEAR(preds.ctcvr.at(i, 0), preds.ctr.at(i, 0) * preds.cvr.at(i, 0),
                1e-5f);
  }
}

TEST_P(ModelZooTest, LossIsFinitePositiveScalar) {
  const models::Predictions preds = model_->Forward(batch_);
  const Tensor loss = model_->Loss(batch_, preds);
  EXPECT_EQ(loss.rows(), 1);
  EXPECT_EQ(loss.cols(), 1);
  EXPECT_TRUE(std::isfinite(loss.item()));
  EXPECT_GT(loss.item(), 0.0f);
}

TEST_P(ModelZooTest, GradientsReachEveryParameter) {
  model_->ZeroGrad();
  const models::Predictions preds = model_->Forward(batch_);
  model_->Loss(batch_, preds).Backward();
  int with_grad = 0;
  for (const Tensor& p : model_->parameters()) {
    float norm = 0.0f;
    if (p.has_grad()) {
      for (std::int64_t i = 0; i < p.size(); ++i) norm += std::fabs(p.grad()[i]);
    }
    if (norm > 0.0f) ++with_grad;
  }
  // Every parameter tensor should receive gradient from the multi-task loss.
  EXPECT_EQ(with_grad, static_cast<int>(model_->parameters().size()));
}

TEST_P(ModelZooTest, OneAdamStepReducesLoss) {
  optim::Adam adam(model_->parameters(), 0.01f);
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 12; ++step) {
    adam.ZeroGrad();
    const models::Predictions preds = model_->Forward(batch_);
    Tensor loss = model_->Loss(batch_, preds);
    loss.Backward();
    adam.Step();
    if (step == 0) first = loss.item();
    last = loss.item();
  }
  EXPECT_LT(last, first);
}

TEST_P(ModelZooTest, DeterministicConstructionPerSeed) {
  auto again = core::CreateModel(GetParam(), train_.schema(), TinyConfig());
  ASSERT_EQ(again->parameters().size(), model_->parameters().size());
  for (std::size_t i = 0; i < again->parameters().size(); ++i) {
    EXPECT_EQ(again->parameters()[i].ToVector(),
              model_->parameters()[i].ToVector());
  }
}

TEST_P(ModelZooTest, WorksWithoutWideFeatures) {
  data::SyntheticLogGenerator gen(TinyProfile(/*wide=*/false));
  const data::Dataset train = gen.GenerateTrain();
  auto model = core::CreateModel(GetParam(), train.schema(), TinyConfig());
  const data::Batch batch = data::MakeContiguousBatch(train, 0, 64);
  const models::Predictions preds = model->Forward(batch);
  const Tensor loss = model->Loss(batch, preds);
  EXPECT_TRUE(std::isfinite(loss.item()));
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelZooTest,
                         ::testing::ValuesIn(core::ExtendedModelNames()),
                         [](const ::testing::TestParamInfo<std::string>& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(RegistryTest, AllModelNamesConstruct) {
  EXPECT_EQ(core::AllModelNames().size(), 10u);
  EXPECT_EQ(core::AllModelInfo().size(), 10u);
  EXPECT_EQ(core::ExtendedModelNames().size(), 13u);
}

TEST(RegistryTest, InfoNamesMatchRegistryNames) {
  const auto names = core::AllModelNames();
  const auto infos = core::AllModelInfo();
  ASSERT_EQ(names.size(), infos.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(names[i], infos[i].name);
  }
}

TEST(RegistryTest, ParameterInventoryIsPinned) {
  // eval::FingerprintModelVariant hashes the variant name and every
  // parameter's name and shape in registration order, so it is host
  // independent. A rename or reorder breaks existing checkpoints and the
  // Adam moment layout; these constants pin the inventory of every variant.
  struct Pin {
    const char* name;
    std::uint64_t wide;
    std::uint64_t deep_only;
  };
  const Pin pins[] = {
      {"naive", 0x1786565b5e1d7059ull, 0xa4595100bb637ff1ull},
      {"multi-ipw", 0x6f201296966f85f4ull, 0x0e7b084e494f7548ull},
      {"multi-dr", 0x006a75a09d023683ull, 0xc2fca8c92eee73dfull},
      {"esmm", 0x7168aa00e57285a7ull, 0x472dda366542b00bull},
      {"cross-stitch", 0xb882349c40aef66full, 0xb42f914ab0cdada3ull},
      {"mmoe", 0xe247a2931c5dcf87ull, 0x72eca5809a6e36e3ull},
      {"ple", 0x242306b09a2ad751ull, 0xbb0169f7085465d9ull},
      {"aitm", 0x4c7ef95444f00b6aull, 0x6eeb8bcbe46024f2ull},
      {"escm2-ipw", 0x19971497be23f549ull, 0x11be9d7a718b0711ull},
      {"escm2-dr", 0xddc3f20bf87c4582ull, 0x2e420daf64f9bf86ull},
      {"dcmt-pd", 0x99db4e4fa5d68ef9ull, 0x519c154d401bb21full},
      {"dcmt-cf", 0xde602611ac54b222ull, 0x257ad9b40368e95cull},
      {"dcmt", 0x16a8f58deebc33c5ull, 0x94b87443f944d443ull},
  };
  const std::vector<std::string> names = core::ExtendedModelNames();
  ASSERT_EQ(names.size(), std::size(pins));
  const data::FeatureSchema wide =
      data::SyntheticLogGenerator(TinyProfile(true)).Schema();
  const data::FeatureSchema deep_only =
      data::SyntheticLogGenerator(TinyProfile(false)).Schema();
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Pin& pin = pins[i];
    ASSERT_EQ(names[i], pin.name);
    const auto with_wide = core::CreateModel(names[i], wide, TinyConfig());
    const auto without_wide =
        core::CreateModel(names[i], deep_only, TinyConfig());
    EXPECT_EQ(eval::FingerprintModelVariant(*with_wide, names[i]), pin.wide)
        << names[i] << " with wide fields";
    EXPECT_EQ(eval::FingerprintModelVariant(*without_wide, names[i]),
              pin.deep_only)
        << names[i] << " without wide fields";
  }
}

// --- Doubly robust imputation travels with its batch ----------------------------

class DrImputationTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DrImputationTest, InterleavedForwardsKeepEachBatchsImputation) {
  // Forward(b1); Forward(b2); Loss(b1, preds1) must be the loss of b1 alone:
  // the imputation ê is part of b1's predictions, not model state that b2's
  // forward overwrites (and b2 has a different row count).
  data::SyntheticLogGenerator gen(TinyProfile());
  const data::Dataset train = gen.GenerateTrain();
  const data::Batch b1 = data::MakeContiguousBatch(train, 0, 96);
  const data::Batch b2 = data::MakeContiguousBatch(train, 96, 40);
  auto model = core::CreateModel(GetParam(), train.schema(), TinyConfig());
  const models::Predictions alone = model->Forward(b1);
  const float expected = model->Loss(b1, alone).item();

  const models::Predictions preds1 = model->Forward(b1);
  const models::Predictions preds2 = model->Forward(b2);
  EXPECT_EQ(model->Loss(b1, preds1).item(), expected);
  EXPECT_TRUE(std::isfinite(model->Loss(b2, preds2).item()));
  if (GetParam() == "escm2-dr" || GetParam() == "multi-dr") {
    ASSERT_TRUE(preds1.imputed_error.defined());
    EXPECT_EQ(preds1.imputed_error.rows(), 96);
    EXPECT_EQ(preds2.imputed_error.rows(), 40);
  } else {
    EXPECT_FALSE(preds1.imputed_error.defined());
  }
}

INSTANTIATE_TEST_SUITE_P(IpwAndDr, DrImputationTest,
                         ::testing::Values("escm2-ipw", "escm2-dr", "multi-ipw",
                                           "multi-dr"),
                         [](const ::testing::TestParamInfo<std::string>& param) {
                           std::string name = param.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// --- Loss helper behaviours ----------------------------------------------------

TEST(LossHelpersTest, CvrLossClickedOnlyIgnoresNonClicked) {
  data::SyntheticLogGenerator gen(TinyProfile());
  const data::Dataset train = gen.GenerateTrain();
  const data::Batch batch = data::MakeContiguousBatch(train, 0, 64);
  // Constant prediction: the loss must equal mean BCE over clicked rows only.
  models::Predictions preds;
  preds.cvr = Tensor::Full(64, 1, 0.3f, /*requires_grad=*/true);
  const Tensor loss = models::CvrLossClickedOnly(preds, batch);
  double expected = 0.0;
  int clicked = 0;
  for (int i = 0; i < 64; ++i) {
    if (!batch.click_raw[static_cast<std::size_t>(i)]) continue;
    ++clicked;
    const double y = batch.conversion_raw[static_cast<std::size_t>(i)];
    expected += -y * std::log(0.3) - (1.0 - y) * std::log(0.7);
  }
  ASSERT_GT(clicked, 0);
  expected /= clicked;
  EXPECT_NEAR(loss.item(), expected, 1e-5);
}

TEST(LossHelpersTest, CvrLossClickedOnlyZeroWhenNoClicks) {
  data::SyntheticLogGenerator gen(TinyProfile());
  const data::Dataset train = gen.GenerateTrain();
  std::vector<data::Example> rows;
  for (const data::Example& e : train.examples()) {
    if (e.click == 0) rows.push_back(e);
  }
  const data::Dataset nonclicked(train.name(), train.schema(), std::move(rows));
  const data::Batch batch = data::MakeContiguousBatch(nonclicked, 0, 32);
  models::Predictions preds;
  preds.cvr = Tensor::Full(32, 1, 0.5f, /*requires_grad=*/true);
  const Tensor loss = models::CvrLossClickedOnly(preds, batch);
  EXPECT_EQ(loss.item(), 0.0f);
  EXPECT_FALSE(loss.requires_grad());
}

TEST(LossHelpersTest, IpwUpweightsLowPropensityClicks) {
  // Two clicked samples with equal error; the low-propensity one must
  // contribute more to the loss.
  data::Batch batch;
  batch.size = 2;
  batch.click_raw = {1, 1};
  batch.conversion_raw = {1, 1};
  batch.click = Tensor::ColumnVector({1.0f, 1.0f});
  batch.conversion = Tensor::ColumnVector({1.0f, 1.0f});
  batch.ctcvr = Tensor::ColumnVector({1.0f, 1.0f});

  models::Predictions preds;
  preds.cvr = Tensor::Full(2, 1, 0.5f, /*requires_grad=*/true);
  const Tensor low_prop = Tensor::ColumnVector({0.1f, 0.9f});
  const Tensor loss = models::IpwCvrLoss(preds, low_prop, batch, 0.05f);
  // Weights: (1/0.1 + 1/0.9)/2; per-sample BCE = -log(0.5).
  const double expected = (1.0 / 0.1 + 1.0 / 0.9) / 2.0 * -std::log(0.5);
  EXPECT_NEAR(loss.item(), expected, 1e-4);
}

TEST(LossHelpersTest, IpwClipsExtremePropensities) {
  data::Batch batch;
  batch.size = 1;
  batch.click_raw = {1};
  batch.conversion_raw = {0};
  batch.click = Tensor::ColumnVector({1.0f});
  batch.conversion = Tensor::ColumnVector({0.0f});
  batch.ctcvr = Tensor::ColumnVector({0.0f});
  models::Predictions preds;
  preds.cvr = Tensor::Full(1, 1, 0.5f, /*requires_grad=*/true);
  const Tensor tiny_prop = Tensor::ColumnVector({1e-6f});
  const Tensor loss = models::IpwCvrLoss(preds, tiny_prop, batch, 0.05f);
  // Clipped at 0.05 -> weight 20, not 1e6.
  EXPECT_NEAR(loss.item(), 20.0 * -std::log(0.5), 1e-3);
}

TEST(LossHelpersTest, ColumnToVector) {
  Tensor t = Tensor::ColumnVector({1.5f, -2.0f});
  const std::vector<float> v = models::ColumnToVector(t);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 1.5f);
  EXPECT_EQ(v[1], -2.0f);
}

}  // namespace
}  // namespace dcmt
