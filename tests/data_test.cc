// Tests for the data substrate: dataset containers, the synthetic log
// generator's structural properties (calibration, NMAR coupling, fake
// negatives, determinism), batching, and CSV round-trips.

#include <cstdio>
#include <set>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "data/batcher.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "data/profiles.h"
#include "metrics/metrics.h"

namespace dcmt {
namespace {

data::DatasetProfile SmallProfile() {
  data::DatasetProfile p;
  p.name = "unit";
  p.num_users = 200;
  p.num_items = 300;
  p.train_exposures = 8000;
  p.test_exposures = 4000;
  p.target_click_rate = 0.10;
  p.target_cvr_given_click = 0.20;
  p.seed = 99;
  return p;
}

TEST(DatasetTest, StatsCountsAreConsistent) {
  data::SyntheticLogGenerator gen(SmallProfile());
  const data::Dataset train = gen.GenerateTrain();
  const data::DatasetStats s = train.Stats();
  EXPECT_EQ(s.exposures, 8000);
  EXPECT_GT(s.clicks, 0);
  EXPECT_GT(s.conversions, 0);
  EXPECT_LE(s.conversions, s.clicks);
  EXPECT_LE(s.clicks, s.exposures);
  EXPECT_GE(s.oracle_conversions, s.conversions);
  EXPECT_EQ(s.fake_negatives, s.oracle_conversions - s.conversions);
}

TEST(DatasetTest, ConversionImpliesClick) {
  data::SyntheticLogGenerator gen(SmallProfile());
  // Bind the dataset: ranging over a temporary's examples() would dangle.
  const data::Dataset train = gen.GenerateTrain();
  for (const data::Example& e : train.examples()) {
    if (e.conversion == 1) {
      EXPECT_EQ(e.click, 1);
    }
  }
}

TEST(DatasetTest, ClickedSubsetFilters) {
  data::SyntheticLogGenerator gen(SmallProfile());
  const data::Dataset train = gen.GenerateTrain();
  const data::Dataset clicked = train.ClickedSubset();
  const data::Dataset nonclicked = train.NonClickedSubset();
  EXPECT_EQ(clicked.size() + nonclicked.size(), train.size());
  for (const data::Example& e : clicked.examples()) EXPECT_EQ(e.click, 1);
  for (const data::Example& e : nonclicked.examples()) EXPECT_EQ(e.click, 0);
}

TEST(DatasetTest, SplitAtPreservesOrderAndTotal) {
  data::SyntheticLogGenerator gen(SmallProfile());
  const data::Dataset train = gen.GenerateTrain();
  const auto [head, tail] = train.SplitAt(1000);
  EXPECT_EQ(head.size(), 1000);
  EXPECT_EQ(head.size() + tail.size(), train.size());
  EXPECT_EQ(head.examples()[0].user_index, train.examples()[0].user_index);
  EXPECT_EQ(tail.examples()[0].user_index, train.examples()[1000].user_index);
}

TEST(GeneratorTest, DeterministicPerSeed) {
  data::SyntheticLogGenerator a(SmallProfile());
  data::SyntheticLogGenerator b(SmallProfile());
  const data::Dataset da = a.GenerateTrain();
  const data::Dataset db = b.GenerateTrain();
  ASSERT_EQ(da.size(), db.size());
  for (std::int64_t i = 0; i < da.size(); i += 997) {
    const auto& ea = da.examples()[static_cast<std::size_t>(i)];
    const auto& eb = db.examples()[static_cast<std::size_t>(i)];
    EXPECT_EQ(ea.deep_ids, eb.deep_ids);
    EXPECT_EQ(ea.click, eb.click);
    EXPECT_EQ(ea.conversion, eb.conversion);
    EXPECT_FLOAT_EQ(ea.true_ctr, eb.true_ctr);
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  data::DatasetProfile p1 = SmallProfile();
  data::DatasetProfile p2 = SmallProfile();
  p2.seed = 100;
  data::SyntheticLogGenerator a(p1), b(p2);
  EXPECT_NE(a.GenerateTrain().Stats().clicks, b.GenerateTrain().Stats().clicks);
}

TEST(GeneratorTest, TrainAndTestAreIndependentDraws) {
  data::SyntheticLogGenerator gen(SmallProfile());
  const data::Dataset train = gen.GenerateTrain();
  const data::Dataset test = gen.GenerateTest();
  EXPECT_NE(train.examples()[0].user_index, test.examples()[0].user_index);
}

TEST(GeneratorTest, CalibrationHitsTargetRates) {
  const data::DatasetProfile p = SmallProfile();
  data::SyntheticLogGenerator gen(p);
  const data::DatasetStats s = gen.GenerateTrain().Stats();
  EXPECT_NEAR(s.click_rate, p.target_click_rate, p.target_click_rate * 0.35);
  EXPECT_NEAR(s.cvr_given_click, p.target_cvr_given_click,
              p.target_cvr_given_click * 0.5);
}

TEST(GeneratorTest, PropensitiesMatchLabels) {
  // Mean true_ctr should match realized click rate (generator consistency).
  data::SyntheticLogGenerator gen(SmallProfile());
  const data::Dataset train = gen.GenerateTrain();
  double mean_p = 0.0, clicks = 0.0;
  for (const data::Example& e : train.examples()) {
    mean_p += e.true_ctr;
    clicks += e.click;
  }
  mean_p /= static_cast<double>(train.size());
  clicks /= static_cast<double>(train.size());
  EXPECT_NEAR(mean_p, clicks, 0.01);
}

TEST(GeneratorTest, TrueCtrIsInformative) {
  // AUC of the oracle propensity against realized clicks must be far above
  // chance — otherwise the whole benchmark is unlearnable.
  data::SyntheticLogGenerator gen(SmallProfile());
  const data::Dataset test = gen.GenerateTest();
  std::vector<float> scores;
  std::vector<std::uint8_t> labels;
  for (const data::Example& e : test.examples()) {
    scores.push_back(e.true_ctr);
    labels.push_back(e.click);
  }
  EXPECT_GT(metrics::Auc(scores, labels), 0.75);
}

TEST(GeneratorTest, SelectionBiasIsPresent) {
  // NMAR: conversion propensity must be higher among clicked exposures than
  // non-clicked ones (the α-coupling) — this is the bias DCMT attacks.
  data::SyntheticLogGenerator gen(SmallProfile());
  const data::Dataset train = gen.GenerateTrain();
  double cvr_clicked = 0.0, cvr_nonclicked = 0.0;
  std::int64_t n_clicked = 0, n_nonclicked = 0;
  for (const data::Example& e : train.examples()) {
    if (e.click) {
      cvr_clicked += e.true_cvr;
      ++n_clicked;
    } else {
      cvr_nonclicked += e.true_cvr;
      ++n_nonclicked;
    }
  }
  cvr_clicked /= static_cast<double>(n_clicked);
  cvr_nonclicked /= static_cast<double>(n_nonclicked);
  EXPECT_GT(cvr_clicked, cvr_nonclicked * 1.2);
}

TEST(GeneratorTest, NoCouplingRemovesSelectionBias) {
  // Zero both couplings: conversion propensity decouples from clicks
  // (an MCAR-ish control world).
  data::DatasetProfile p = SmallProfile();
  p.click_conv_coupling = 0.0f;
  p.hidden_coupling = 0.0f;
  data::SyntheticLogGenerator gen(p);
  const data::Dataset train = gen.GenerateTrain();
  double cvr_clicked = 0.0, cvr_nonclicked = 0.0;
  std::int64_t n_clicked = 0, n_nonclicked = 0;
  for (const data::Example& e : train.examples()) {
    if (e.click) {
      cvr_clicked += e.true_cvr;
      ++n_clicked;
    } else {
      cvr_nonclicked += e.true_cvr;
      ++n_nonclicked;
    }
  }
  cvr_clicked /= static_cast<double>(n_clicked);
  cvr_nonclicked /= static_cast<double>(n_nonclicked);
  EXPECT_LT(cvr_clicked / cvr_nonclicked, 1.25);
}

TEST(GeneratorTest, FakeNegativesExistInNonClickSpace) {
  data::SyntheticLogGenerator gen(SmallProfile());
  const data::DatasetStats s = gen.GenerateTrain().Stats();
  EXPECT_GT(s.fake_negatives, 0);
}

TEST(GeneratorTest, PositionDecayLowersClickProbability) {
  data::SyntheticLogGenerator gen(SmallProfile());
  const float p0 = gen.TrueClickProbability(5, 7, 0);
  const float p9 = gen.TrueClickProbability(5, 7, 9);
  EXPECT_GT(p0, p9);
}

TEST(GeneratorTest, FeatureIdsWithinVocab) {
  data::SyntheticLogGenerator gen(SmallProfile());
  const data::Dataset train = gen.GenerateTrain();
  const auto& schema = train.schema();
  for (const data::Example& e : train.examples()) {
    ASSERT_EQ(e.deep_ids.size(), schema.deep_fields.size());
    for (std::size_t f = 0; f < e.deep_ids.size(); ++f) {
      EXPECT_GE(e.deep_ids[f], 0);
      EXPECT_LT(e.deep_ids[f], schema.deep_fields[f].vocab_size);
    }
    ASSERT_EQ(e.wide_ids.size(), schema.wide_fields.size());
    for (std::size_t f = 0; f < e.wide_ids.size(); ++f) {
      EXPECT_GE(e.wide_ids[f], 0);
      EXPECT_LT(e.wide_ids[f], schema.wide_fields[f].vocab_size);
    }
  }
}

/// Property sweep over every shipped dataset profile (scaled-down clones so
/// the suite stays fast): calibration, NMAR structure and feature validity
/// must hold for each profile, not just the unit-test one.
class ProfilePropertyTest : public ::testing::TestWithParam<std::string> {
 protected:
  static data::DatasetProfile ScaledDown(const std::string& name) {
    data::DatasetProfile p = data::ProfileByName(name);
    p.train_exposures = 12000;
    p.test_exposures = 4000;
    return p;
  }
};

TEST_P(ProfilePropertyTest, CalibrationNearTarget) {
  const data::DatasetProfile p = ScaledDown(GetParam());
  data::SyntheticLogGenerator gen(p);
  const data::DatasetStats s = gen.GenerateTrain().Stats();
  EXPECT_NEAR(s.click_rate, p.target_click_rate, p.target_click_rate * 0.35)
      << GetParam();
  EXPECT_NEAR(s.cvr_given_click, p.target_cvr_given_click,
              p.target_cvr_given_click * 0.5)
      << GetParam();
}

TEST_P(ProfilePropertyTest, NmarBiasPresent) {
  data::SyntheticLogGenerator gen(ScaledDown(GetParam()));
  const data::Dataset train = gen.GenerateTrain();
  double cvr_clicked = 0.0, cvr_nonclicked = 0.0;
  std::int64_t n_clicked = 0, n_nonclicked = 0;
  for (const data::Example& e : train.examples()) {
    if (e.click) {
      cvr_clicked += e.true_cvr;
      ++n_clicked;
    } else {
      cvr_nonclicked += e.true_cvr;
      ++n_nonclicked;
    }
  }
  ASSERT_GT(n_clicked, 0);
  ASSERT_GT(n_nonclicked, 0);
  EXPECT_GT(cvr_clicked / n_clicked, cvr_nonclicked / n_nonclicked)
      << GetParam();
}

TEST_P(ProfilePropertyTest, OraclePropensityInformative) {
  data::SyntheticLogGenerator gen(ScaledDown(GetParam()));
  const data::Dataset test = gen.GenerateTest();
  std::vector<float> scores;
  std::vector<std::uint8_t> labels;
  for (const data::Example& e : test.examples()) {
    scores.push_back(e.true_ctr);
    labels.push_back(e.click);
  }
  EXPECT_GT(metrics::Auc(scores, labels), 0.7) << GetParam();
}

TEST_P(ProfilePropertyTest, DeterministicStats) {
  data::SyntheticLogGenerator a(ScaledDown(GetParam()));
  data::SyntheticLogGenerator b(ScaledDown(GetParam()));
  const data::DatasetStats sa = a.GenerateTrain().Stats();
  const data::DatasetStats sb = b.GenerateTrain().Stats();
  EXPECT_EQ(sa.clicks, sb.clicks) << GetParam();
  EXPECT_EQ(sa.conversions, sb.conversions) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, ProfilePropertyTest,
                         ::testing::Values("ali-ccp", "ae-es", "ae-fr", "ae-nl",
                                           "ae-us", "alipay-search"),
                         [](const ::testing::TestParamInfo<std::string>& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(ProfilesTest, AllProfilesConstructAndAreDistinct) {
  const auto profiles = data::AllOfflineProfiles();
  ASSERT_EQ(profiles.size(), 5u);
  std::set<std::string> names;
  for (const auto& p : profiles) names.insert(p.name);
  EXPECT_EQ(names.size(), 5u);
}

TEST(ProfilesTest, LookupByNameMatches) {
  EXPECT_EQ(data::ProfileByName("ae-nl").name, "ae-nl");
  EXPECT_EQ(data::ProfileByName("ali-ccp").target_cvr_given_click, 0.06);
}

TEST(ProfilesTest, AliCcpIsConversionSparsest) {
  // The paper's Table II ordering: Ali-CCP has the lowest CVR|click.
  for (const auto& p : data::AllOfflineProfiles()) {
    if (p.name != "ali-ccp") {
      EXPECT_LT(data::AliCcpProfile().target_cvr_given_click,
                p.target_cvr_given_click);
    }
  }
}

TEST(BatcherTest, CoversEveryExampleExactlyOnce) {
  data::SyntheticLogGenerator gen(SmallProfile());
  const data::Dataset train = gen.GenerateTrain();
  Rng rng(5);
  data::Batcher batcher(&train, 512, &rng);
  data::Batch batch;
  std::int64_t seen = 0;
  while (batcher.Next(&batch)) seen += batch.size;
  EXPECT_EQ(seen, train.size());
}

TEST(BatcherTest, ReshufflesBetweenEpochs) {
  data::SyntheticLogGenerator gen(SmallProfile());
  const data::Dataset train = gen.GenerateTrain();
  Rng rng(6);
  data::Batcher batcher(&train, 256, &rng);
  data::Batch batch;
  ASSERT_TRUE(batcher.Next(&batch));
  const std::vector<int> first_epoch_ids = batch.deep_ids[0];
  while (batcher.Next(&batch)) {
  }
  ASSERT_TRUE(batcher.Next(&batch));
  EXPECT_NE(batch.deep_ids[0], first_epoch_ids);
}

TEST(BatcherTest, SequentialWithoutRng) {
  data::SyntheticLogGenerator gen(SmallProfile());
  const data::Dataset train = gen.GenerateTrain();
  data::Batcher batcher(&train, 100, nullptr);
  data::Batch batch;
  ASSERT_TRUE(batcher.Next(&batch));
  for (int i = 0; i < batch.size; ++i) {
    EXPECT_EQ(batch.deep_ids[0][static_cast<std::size_t>(i)],
              train.examples()[static_cast<std::size_t>(i)].deep_ids[0]);
  }
}

TEST(BatcherTest, LabelsMatchExamples) {
  data::SyntheticLogGenerator gen(SmallProfile());
  const data::Dataset train = gen.GenerateTrain();
  const data::Batch batch = data::MakeContiguousBatch(train, 100, 50);
  for (int i = 0; i < 50; ++i) {
    const data::Example& e = train.examples()[static_cast<std::size_t>(100 + i)];
    EXPECT_EQ(batch.click.at(i, 0), static_cast<float>(e.click));
    EXPECT_EQ(batch.conversion.at(i, 0), static_cast<float>(e.conversion));
    EXPECT_EQ(batch.ctcvr.at(i, 0),
              static_cast<float>(e.click && e.conversion ? 1 : 0));
  }
}

TEST(BatcherTest, StateSavedAtConstructionIsTheTrainedOrder) {
  // Regression: the first epoch must be shuffled exactly once, at
  // construction, so SaveState() taken before any Next() call captures
  // exactly the order the first epoch then trains on.
  data::SyntheticLogGenerator gen(SmallProfile());
  const data::Dataset train = gen.GenerateTrain();
  Rng rng(17);
  data::Batcher batcher(&train, 512, &rng);
  const data::BatcherState pristine = batcher.SaveState();
  EXPECT_EQ(pristine.cursor, 0);
  EXPECT_TRUE(pristine.fresh_epoch);

  data::Batch batch;
  std::vector<std::int64_t> trained_order;
  std::int64_t cursor = 0;
  while (batcher.Next(&batch)) {
    for (int i = 0; i < batch.size; ++i) {
      trained_order.push_back(pristine.order[cursor + i]);
      EXPECT_EQ(batch.deep_ids[0][static_cast<std::size_t>(i)],
                train.examples()[static_cast<std::size_t>(
                                     pristine.order[cursor + i])]
                    .deep_ids[0]);
    }
    cursor += batch.size;
  }
  EXPECT_EQ(cursor, train.size());
  EXPECT_EQ(trained_order, pristine.order);
}

TEST(BatcherTest, RewindReplaysWithoutReshuffleEvenAfterEpochEnd) {
  // Regression: Rewind() used to leave the stale not-fresh flag in place, so
  // a rewind issued right after an epoch boundary reshuffled on the next
  // Next() instead of replaying the epoch it promised to restart.
  data::SyntheticLogGenerator gen(SmallProfile());
  const data::Dataset train = gen.GenerateTrain();
  Rng rng(18);
  data::Batcher batcher(&train, 256, &rng);
  data::Batch batch;
  while (batcher.Next(&batch)) {
  }
  const std::vector<std::int64_t> epoch_order = batcher.SaveState().order;
  batcher.Rewind();
  ASSERT_TRUE(batcher.Next(&batch));
  EXPECT_EQ(batcher.SaveState().order, epoch_order);
  for (int i = 0; i < batch.size; ++i) {
    EXPECT_EQ(batch.deep_ids[0][static_cast<std::size_t>(i)],
              train.examples()[static_cast<std::size_t>(epoch_order[
                                   static_cast<std::size_t>(i)])]
                  .deep_ids[0]);
  }
}

TEST(BatcherTest, BatchesPerEpochRoundsUp) {
  data::SyntheticLogGenerator gen(SmallProfile());
  const data::Dataset train = gen.GenerateTrain();  // 8000
  data::Batcher batcher(&train, 3000, nullptr);
  EXPECT_EQ(batcher.batches_per_epoch(), 3);
}

TEST(CsvTest, RoundTripPreservesEverything) {
  data::DatasetProfile p = SmallProfile();
  p.train_exposures = 500;
  data::SyntheticLogGenerator gen(p);
  const data::Dataset original = gen.GenerateTrain();
  const std::string path =
      ::testing::TempDir() + "/dcmt_roundtrip_" +
      std::to_string(static_cast<long long>(::getpid())) + ".csv";
  ASSERT_TRUE(data::WriteCsv(original, path));

  data::Dataset loaded;
  ASSERT_TRUE(data::ReadCsv(path, &loaded));
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.schema().deep_fields.size(),
            original.schema().deep_fields.size());
  EXPECT_EQ(loaded.schema().wide_fields.size(),
            original.schema().wide_fields.size());
  for (std::size_t f = 0; f < original.schema().deep_fields.size(); ++f) {
    EXPECT_EQ(loaded.schema().deep_fields[f].name,
              original.schema().deep_fields[f].name);
    EXPECT_EQ(loaded.schema().deep_fields[f].vocab_size,
              original.schema().deep_fields[f].vocab_size);
  }
  for (std::int64_t i = 0; i < original.size(); i += 37) {
    const auto& a = original.examples()[static_cast<std::size_t>(i)];
    const auto& b = loaded.examples()[static_cast<std::size_t>(i)];
    EXPECT_EQ(a.deep_ids, b.deep_ids);
    EXPECT_EQ(a.wide_ids, b.wide_ids);
    EXPECT_EQ(a.click, b.click);
    EXPECT_EQ(a.conversion, b.conversion);
    EXPECT_EQ(a.oracle_conversion, b.oracle_conversion);
    EXPECT_NEAR(a.true_ctr, b.true_ctr, 1e-5f);
    EXPECT_EQ(a.user_index, b.user_index);
  }
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileFails) {
  data::Dataset d;
  EXPECT_FALSE(data::ReadCsv("/nonexistent/path.csv", &d));
}

// Malformed CSV input fails closed: ReadCsv returns false and names the
// offending cell as path:line:column instead of throwing or handing the
// trainer an id outside its embedding table.
class CsvRejectTest : public ::testing::Test {
 protected:
  static constexpr const char* kHeader =
      "deep:user:10,wide:cat:3,click,conversion,oracle_conversion,true_ctr,"
      "true_cvr,user_index,item_index\n";
  static constexpr const char* kGoodRow = "4,2,1,1,1,0.5,0.25,7,9\n";

  void TearDown() override { std::remove(path_.c_str()); }

  /// Writes `text`, reads it back; returns the read's result and keeps its
  /// stderr in err_.
  bool Read(const std::string& text) {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    EXPECT_NE(f, nullptr);
    std::fputs(text.c_str(), f);
    std::fclose(f);
    ::testing::internal::CaptureStderr();
    const bool ok = data::ReadCsv(path_, &dataset_);
    err_ = ::testing::internal::GetCapturedStderr();
    return ok;
  }

  /// The read failed and blamed `line`:`column` of the file.
  void ExpectRejectedAt(const std::string& text, int line, int column) {
    EXPECT_FALSE(Read(text));
    const std::string where =
        path_ + ":" + std::to_string(line) + ":" + std::to_string(column) + ":";
    EXPECT_EQ(err_.rfind(where, 0), 0u) << err_;
    EXPECT_TRUE(dataset_.empty());
  }

  std::string path_ = ::testing::TempDir() + "/dcmt_reject_" +
                      std::to_string(static_cast<long long>(::getpid())) +
                      ".csv";
  data::Dataset dataset_;
  std::string err_;
};

TEST_F(CsvRejectTest, WellFormedFileReads) {
  ASSERT_TRUE(Read(std::string(kHeader) + kGoodRow)) << err_;
  ASSERT_EQ(dataset_.size(), 1);
  const data::Example& e = dataset_.examples()[0];
  EXPECT_EQ(e.deep_ids, std::vector<int>{4});
  EXPECT_EQ(e.wide_ids, std::vector<int>{2});
  EXPECT_EQ(e.conversion, 1);
  EXPECT_FLOAT_EQ(e.true_cvr, 0.25f);
  EXPECT_EQ(e.item_index, 9);
}

TEST_F(CsvRejectTest, RejectsNonPositiveOrNonNumericVocab) {
  ExpectRejectedAt("deep:user:0,click,conversion,oracle_conversion,true_ctr,"
                   "true_cvr,user_index,item_index\n",
                   1, 1);
  ExpectRejectedAt("deep:user:-4,click,conversion,oracle_conversion,true_ctr,"
                   "true_cvr,user_index,item_index\n",
                   1, 1);
  ExpectRejectedAt("click,deep:user:ten,conversion,oracle_conversion,"
                   "true_ctr,true_cvr,user_index,item_index\n",
                   1, 7);
}

TEST_F(CsvRejectTest, RejectsNonNumericCells) {
  ExpectRejectedAt(std::string(kHeader) + kGoodRow + "4x,2,1,1,1,0.5,0.25,7,9\n",
                   3, 1);
  ExpectRejectedAt(std::string(kHeader) + "4,2,1,1,1,abc,0.25,7,9\n", 2, 11);
  ExpectRejectedAt(std::string(kHeader) + "4,2,1,1,1,0.5,0.25,,9\n", 2, 20);
}

TEST_F(CsvRejectTest, RejectsIdsOutsideTheVocab) {
  ExpectRejectedAt(std::string(kHeader) + "10,2,1,1,1,0.5,0.25,7,9\n", 2, 1);
  ExpectRejectedAt(std::string(kHeader) + "-1,2,1,1,1,0.5,0.25,7,9\n", 2, 1);
  ExpectRejectedAt(std::string(kHeader) + "4,3,1,1,1,0.5,0.25,7,9\n", 2, 3);
}

TEST_F(CsvRejectTest, RejectsLabelsOutsideZeroOne) {
  ExpectRejectedAt(std::string(kHeader) + "4,2,2,1,1,0.5,0.25,7,9\n", 2, 5);
  ExpectRejectedAt(std::string(kHeader) + "4,2,1,-1,1,0.5,0.25,7,9\n", 2, 7);
  ExpectRejectedAt(std::string(kHeader) + "4,2,1,1,7,0.5,0.25,7,9\n", 2, 9);
}

TEST_F(CsvRejectTest, RejectsConversionWithoutClick) {
  ExpectRejectedAt(std::string(kHeader) + "4,2,0,1,1,0.5,0.25,7,9\n", 2, 7);
  // A non-click with a potential conversion is a fake negative, not an error.
  ASSERT_TRUE(Read(std::string(kHeader) + "4,2,0,0,1,0.5,0.25,7,9\n")) << err_;
}

TEST_F(CsvRejectTest, RejectsRowsOfTheWrongWidth) {
  ExpectRejectedAt(std::string(kHeader) + "4,2,1,1,1,0.5,0.25,7\n", 2, 1);
}

}  // namespace
}  // namespace dcmt
