// Tests for the metrics library: AUC (exact values, ties, degenerate
// inputs, invariance properties), log loss, summaries, and the
// Fig. 7 histogram.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "metrics/metrics.h"
#include "tensor/random.h"

namespace dcmt {
namespace {

TEST(AucTest, PerfectRankingIsOne) {
  EXPECT_DOUBLE_EQ(metrics::Auc({0.1f, 0.2f, 0.8f, 0.9f}, {0, 0, 1, 1}), 1.0);
}

TEST(AucTest, ReversedRankingIsZero) {
  EXPECT_DOUBLE_EQ(metrics::Auc({0.9f, 0.8f, 0.2f, 0.1f}, {0, 0, 1, 1}), 0.0);
}

TEST(AucTest, AllTiedIsHalf) {
  EXPECT_DOUBLE_EQ(metrics::Auc({0.5f, 0.5f, 0.5f, 0.5f}, {0, 1, 0, 1}), 0.5);
}

TEST(AucTest, KnownHandComputedValue) {
  // scores 0.1(0) 0.4(0) 0.35(1) 0.8(1): pairs (pos>neg): (.35>.1)=1,
  // (.35>.4)=0, (.8>.1)=1, (.8>.4)=1 -> 3/4.
  EXPECT_DOUBLE_EQ(metrics::Auc({0.1f, 0.4f, 0.35f, 0.8f}, {0, 0, 1, 1}), 0.75);
}

TEST(AucTest, MidrankTieHandling) {
  // One positive tied with one negative at 0.5 contributes 0.5.
  EXPECT_DOUBLE_EQ(metrics::Auc({0.5f, 0.5f}, {1, 0}), 0.5);
}

TEST(AucTest, SingleClassReturnsHalf) {
  EXPECT_DOUBLE_EQ(metrics::Auc({0.3f, 0.7f}, {0, 0}), 0.5);
  EXPECT_DOUBLE_EQ(metrics::Auc({0.3f, 0.7f}, {1, 1}), 0.5);
}

TEST(AucTest, InvariantToMonotoneTransform) {
  Rng rng(1);
  std::vector<float> scores(500);
  std::vector<std::uint8_t> labels(500);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    scores[i] = rng.Uniform(-3.0f, 3.0f);
    labels[i] = rng.Bernoulli(1.0f / (1.0f + std::exp(-scores[i]))) ? 1 : 0;
  }
  std::vector<float> transformed(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    transformed[i] = std::exp(0.5f * scores[i]);  // strictly increasing
  }
  EXPECT_NEAR(metrics::Auc(scores, labels), metrics::Auc(transformed, labels),
              1e-9);
}

TEST(AucTest, ComplementSymmetry) {
  // AUC(-s, y) == 1 - AUC(s, y) when there are no ties.
  Rng rng(2);
  std::vector<float> scores(301);
  std::vector<std::uint8_t> labels(301);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    scores[i] = static_cast<float>(i) * 0.001f + rng.Uniform() * 1e-5f;
    labels[i] = rng.Bernoulli(0.3f) ? 1 : 0;
  }
  std::vector<float> neg(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) neg[i] = -scores[i];
  EXPECT_NEAR(metrics::Auc(neg, labels), 1.0 - metrics::Auc(scores, labels),
              1e-9);
}

TEST(AucTest, MatchesNaivePairwiseImplementation) {
  // Property: the rank-based AUC equals the O(n^2) pairwise definition
  // (with half credit for ties) on random inputs.
  Rng rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<float> scores(60);
    std::vector<std::uint8_t> labels(60);
    for (std::size_t i = 0; i < scores.size(); ++i) {
      scores[i] = rng.Uniform() < 0.3f ? 0.5f : rng.Uniform();  // force ties
      labels[i] = rng.Bernoulli(0.4f) ? 1 : 0;
    }
    double wins = 0.0;
    std::int64_t pairs = 0;
    for (std::size_t i = 0; i < scores.size(); ++i) {
      if (labels[i] != 1) continue;
      for (std::size_t j = 0; j < scores.size(); ++j) {
        if (labels[j] != 0) continue;
        ++pairs;
        if (scores[i] > scores[j]) {
          wins += 1.0;
        } else if (scores[i] == scores[j]) {
          wins += 0.5;
        }
      }
    }
    if (pairs == 0) continue;
    EXPECT_NEAR(metrics::Auc(scores, labels), wins / static_cast<double>(pairs),
                1e-9)
        << "trial " << trial;
  }
}

TEST(GroupAucTest, PerfectWithinGroupsDespiteGlobalInversion) {
  // Two users whose score scales are inverted globally but ranked perfectly
  // within each user: GAUC = 1 while global AUC < 1.
  const std::vector<float> scores = {0.9f, 0.8f, 0.2f, 0.1f};
  const std::vector<std::uint8_t> labels = {1, 0, 1, 0};
  const std::vector<std::int32_t> groups = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(metrics::GroupAuc(scores, labels, groups), 1.0);
  EXPECT_LT(metrics::Auc(scores, labels), 1.0);
}

TEST(GroupAucTest, SkipsSingleClassGroups) {
  // Group 1 has only negatives; only group 0 contributes.
  const std::vector<float> scores = {0.9f, 0.1f, 0.5f, 0.6f};
  const std::vector<std::uint8_t> labels = {1, 0, 0, 0};
  const std::vector<std::int32_t> groups = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(metrics::GroupAuc(scores, labels, groups), 1.0);
}

TEST(GroupAucTest, AllSingleClassReturnsHalf) {
  const std::vector<float> scores = {0.9f, 0.1f};
  const std::vector<std::uint8_t> labels = {1, 1};
  const std::vector<std::int32_t> groups = {0, 1};
  EXPECT_DOUBLE_EQ(metrics::GroupAuc(scores, labels, groups), 0.5);
}

TEST(GroupAucTest, WeightsByGroupSize) {
  // Group 0 (4 samples, AUC 1) and group 1 (2 samples, AUC 0):
  // GAUC = (4*1 + 2*0) / 6.
  const std::vector<float> scores = {0.9f, 0.8f, 0.2f, 0.1f, 0.1f, 0.9f};
  const std::vector<std::uint8_t> labels = {1, 1, 0, 0, 1, 0};
  const std::vector<std::int32_t> groups = {0, 0, 0, 0, 1, 1};
  EXPECT_NEAR(metrics::GroupAuc(scores, labels, groups), 4.0 / 6.0, 1e-12);
}

TEST(PrAucTest, PerfectRankingIsOne) {
  EXPECT_DOUBLE_EQ(metrics::PrAuc({0.9f, 0.8f, 0.2f, 0.1f}, {1, 1, 0, 0}), 1.0);
}

TEST(PrAucTest, KnownHandComputedValue) {
  // Ranking: 0.9(+), 0.7(-), 0.5(+), 0.3(-).
  // AP = (1/1 + 2/3) / 2.
  EXPECT_NEAR(metrics::PrAuc({0.5f, 0.9f, 0.7f, 0.3f}, {1, 1, 0, 0}),
              (1.0 + 2.0 / 3.0) / 2.0, 1e-9);
}

TEST(PrAucTest, NoPositivesIsZero) {
  EXPECT_DOUBLE_EQ(metrics::PrAuc({0.5f, 0.6f}, {0, 0}), 0.0);
}

TEST(PrAucTest, AllTiedEqualsPositiveRate) {
  // Uninformative scores: precision at the single tie block = positive rate.
  EXPECT_NEAR(metrics::PrAuc({0.5f, 0.5f, 0.5f, 0.5f}, {1, 0, 0, 0}), 0.25,
              1e-9);
}

TEST(PrAucTest, MoreSensitiveThanRocUnderImbalance) {
  // 1 positive among 1000, ranked 10th: ROC AUC stays high, PR AUC collapses.
  std::vector<float> scores(1000);
  std::vector<std::uint8_t> labels(1000, 0);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    scores[i] = 1.0f - static_cast<float>(i) * 1e-3f;
  }
  labels[9] = 1;  // the positive sits at rank 10
  EXPECT_GT(metrics::Auc(scores, labels), 0.98);
  EXPECT_NEAR(metrics::PrAuc(scores, labels), 0.1, 1e-6);
}

TEST(LogLossTest, KnownValue) {
  // -log(0.8) for a positive at p=0.8, -log(0.9) for a negative at p=0.1.
  const double expected = (-std::log(0.8) - std::log(0.9)) / 2.0;
  EXPECT_NEAR(metrics::LogLoss({0.8f, 0.1f}, {1, 0}), expected, 1e-7);
}

TEST(LogLossTest, ClampsExtremes) {
  const double ll = metrics::LogLoss({0.0f, 1.0f}, {1, 0});
  EXPECT_TRUE(std::isfinite(ll));
  EXPECT_GT(ll, 10.0);  // badly wrong predictions are punished hard
}

TEST(LogLossTest, PerfectPredictionsNearZero) {
  EXPECT_LT(metrics::LogLoss({0.999f, 0.001f}, {1, 0}), 0.01);
}

TEST(SummaryTest, MeanAndStddev) {
  const metrics::Summary s = metrics::Summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-9);
  EXPECT_EQ(s.count, 4);
}

TEST(SummaryTest, EmptyAndSingle) {
  EXPECT_EQ(metrics::Summarize({}).count, 0);
  const metrics::Summary s = metrics::Summarize({7.0});
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(HistogramTest, BinsAndTotal) {
  metrics::Histogram h(10, 0.0f, 1.0f);
  h.AddAll({0.05f, 0.15f, 0.15f, 0.999f});
  EXPECT_EQ(h.total(), 4);
  EXPECT_EQ(h.count(0), 1);
  EXPECT_EQ(h.count(1), 2);
  EXPECT_EQ(h.count(9), 1);
  EXPECT_NEAR(h.Mean(), (0.05 + 0.15 + 0.15 + 0.999) / 4.0, 1e-6);
}

TEST(HistogramTest, OutOfRangeValuesClampToEdgeBins) {
  metrics::Histogram h(4, 0.0f, 1.0f);
  h.Add(-0.5f);
  h.Add(1.5f);
  EXPECT_EQ(h.count(0), 1);
  EXPECT_EQ(h.count(3), 1);
}

TEST(HistogramTest, NonFiniteValuesAreCountedSeparately) {
  // Regression: Add used to convert (value-lo)/(hi-lo)*bins to int *before*
  // clamping, so NaN/±inf (and huge finite values) hit the undefined
  // float->int conversion. They must now land in nonfinite() (or clamp, for
  // finite values) without touching the bins, total() or Mean(). The ASan/
  // UBSan tier-1 stage runs this test with -fsanitize=float-cast-overflow.
  metrics::Histogram h(8, 0.0f, 1.0f);
  h.Add(std::numeric_limits<float>::quiet_NaN());
  h.Add(std::numeric_limits<float>::infinity());
  h.Add(-std::numeric_limits<float>::infinity());
  EXPECT_EQ(h.nonfinite(), 3);
  EXPECT_EQ(h.total(), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);

  // Finite but astronomically out of range: clamps to the edge bins instead
  // of overflowing the cast.
  h.Add(1e30f);
  h.Add(-1e30f);
  EXPECT_EQ(h.nonfinite(), 3);
  EXPECT_EQ(h.total(), 2);
  EXPECT_EQ(h.count(0), 1);
  EXPECT_EQ(h.count(7), 1);

  h.Add(0.5f);
  EXPECT_EQ(h.total(), 3);
}

TEST(HistogramTest, RenderMarksValueExactlyAtUpperBound) {
  // Regression: a mark at exactly hi_ fell through every bin's half-open
  // [bin_lo, bin_hi) test and silently vanished, even though Add clamps the
  // value itself into the last bin. The last bin's mark interval is closed.
  metrics::Histogram h(5, 0.0f, 1.0f);
  h.Add(1.0f);
  const std::string render = h.Render(20, {{1.0f, "at-hi"}, {0.0f, "at-lo"}});
  EXPECT_NE(render.find("at-hi"), std::string::npos);
  EXPECT_NE(render.find("at-lo"), std::string::npos);
  // Above hi_ still renders nowhere.
  const std::string above = h.Render(20, {{1.25f, "beyond"}});
  EXPECT_EQ(above.find("beyond"), std::string::npos);
}

TEST(HistogramTest, BinCenters) {
  metrics::Histogram h(4, 0.0f, 1.0f);
  EXPECT_FLOAT_EQ(h.BinCenter(0), 0.125f);
  EXPECT_FLOAT_EQ(h.BinCenter(3), 0.875f);
}

TEST(HistogramTest, RenderContainsMarks) {
  metrics::Histogram h(5, 0.0f, 1.0f);
  h.AddAll({0.1f, 0.3f, 0.3f, 0.9f});
  const std::string render = h.Render(20, {{0.31f, "posterior CVR"}});
  EXPECT_NE(render.find("posterior CVR"), std::string::npos);
  EXPECT_NE(render.find('#'), std::string::npos);
}

TEST(MeanValueTest, Basics) {
  EXPECT_DOUBLE_EQ(metrics::MeanValue({1.0f, 3.0f}), 2.0);
  EXPECT_DOUBLE_EQ(metrics::MeanValue({}), 0.0);
}

}  // namespace
}  // namespace dcmt
