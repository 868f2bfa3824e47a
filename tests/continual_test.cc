// Tests for the continual-training loop (DESIGN.md §17):
//   * golden regression — the static A/B simulator's lag=0 numbers are
//     pinned bit-exact against values captured before the delayed-feedback
//     refactor (satellite: same-day attribution must not shift when lag is
//     disabled);
//   * static equivalence — a lag=0 never-refresh continual run serves the
//     exact same traffic/outcomes as OnlineAbSimulator with the pretrained
//     weights, and the staleness table is byte-reproducible across runs;
//   * kill + resume — a run killed mid-loop by the step budget resumes
//     through the per-refresh checkpoints to a byte-identical staleness
//     table and per-day results;
//   * drift — daily refresh beats never-refresh on CVR AUC once the
//     conversion surface drifts day-over-day;
//   * serving — republish via Router::Swap drops zero requests on daily
//     and intra-day cadences;
//   * persistence — convert_lag_days survives the shard round trip, and a
//     byte-flip fuzzer over every offset of a lag-carrying shard and its
//     manifest is always rejected.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/io.h"
#include "core/registry.h"
#include "core/thread_pool.h"
#include "data/generator.h"
#include "data/shard.h"
#include "data/stream.h"
#include "eval/continual.h"
#include "eval/online_ab.h"
#include "eval/oracle_ranker.h"
#include "nn/serialize.h"
#include "support/byte_flip.h"

namespace dcmt {
namespace {

/// Fresh work directory: wiped first, so state left by a previous execution
/// of this binary can never leak into a resume-sensitive run.
std::string TempDirFor(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  core::FileSystem::Default()->CreateDirectories(dir);
  return dir;
}

/// The tiny world every OnlineAb golden was captured in.
data::DatasetProfile TinyProfile() {
  data::DatasetProfile profile;
  profile.name = "tiny";
  profile.num_users = 80;
  profile.num_items = 120;
  profile.train_exposures = 1500;
  profile.test_exposures = 600;
  profile.target_click_rate = 0.3;
  profile.target_cvr_given_click = 0.3;
  profile.seed = 31;
  return profile;
}

models::ModelConfig TinyModelConfig() {
  models::ModelConfig config;
  config.embedding_dim = 4;
  config.hidden_dims = {8, 4};
  config.seed = 3;
  return config;
}

eval::AbConfig TinyAbConfig() {
  eval::AbConfig config;
  config.days = 2;
  config.page_views_per_day = 50;
  config.candidates_per_pv = 8;
  config.exposed_per_pv = 4;
  config.first_screen = 2;
  return config;
}

/// Base continual config over the tiny world; callers override cadence/lag.
eval::ContinualConfig TinyContinualConfig(const std::string& work_dir) {
  eval::ContinualConfig config;
  config.ab = TinyAbConfig();
  config.ab.seed = 808;
  config.variant = "dcmt";
  config.model = TinyModelConfig();
  config.train.epochs = 2;
  config.train.batch_size = 256;
  config.train.learning_rate = 0.01f;
  config.pretrain_exposures = 1500;
  config.rows_per_shard = 512;
  config.work_dir = work_dir;
  return config;
}

void ExpectSameDayMetrics(const eval::DayMetrics& a, const eval::DayMetrics& b,
                          int day) {
  EXPECT_EQ(a.clicks, b.clicks) << "day " << day;
  EXPECT_EQ(a.conversions, b.conversions) << "day " << day;
  EXPECT_EQ(a.pending_conversions, b.pending_conversions) << "day " << day;
  EXPECT_EQ(a.pv_ctr, b.pv_ctr) << "day " << day;
  EXPECT_EQ(a.pv_cvr, b.pv_cvr) << "day " << day;
  EXPECT_EQ(a.top5_pv_cvr, b.top5_pv_cvr) << "day " << day;
}

// --- Satellite: lag=0 same-day attribution pinned bit-exact -----------------
// These constants were captured from OnlineAbSimulator::Run before the
// delayed-feedback refactor (mmoe + dcmt + oracle buckets, tiny world,
// 1 thread). With lag disabled, every number must still match bit-for-bit.

TEST(OnlineAbGoldenTest, Lag0NumbersPinnedBitExact) {
  core::ThreadPool::Global().SetNumThreads(1);
  data::SyntheticLogGenerator generator(TinyProfile());

  const models::ModelConfig model_config = TinyModelConfig();
  auto mmoe = core::CreateModel("mmoe", generator.Schema(), model_config);
  auto dcmt = core::CreateModel("dcmt", generator.Schema(), model_config);
  eval::OracleRanker oracle;

  eval::OnlineAbSimulator sim(&generator, TinyAbConfig());
  const std::vector<eval::BucketResult> results =
      sim.Run({mmoe.get(), dcmt.get(), &oracle}, {"mmoe", "dcmt", "oracle"});
  ASSERT_EQ(results.size(), 3u);

  struct GoldenDay {
    std::int64_t clicks;
    std::int64_t conversions;
    double pv_ctr;
    double pv_cvr;
    double top5_pv_cvr;
  };
  struct GoldenBucket {
    const char* model;
    GoldenDay days[2];
    std::int64_t overall_clicks;
    std::int64_t overall_conversions;
  };
  const GoldenBucket golden[3] = {
      {"mmoe",
       {{80, 32, 1.6000000000000001, 0.64000000000000001, 0.29999999999999999},
        {70, 22, 1.3999999999999999, 0.44, 0.23999999999999999}},
       150,
       54},
      {"dcmt",
       {{88, 33, 1.76, 0.66000000000000003, 0.40000000000000002},
        {77, 21, 1.54, 0.41999999999999998, 0.17999999999999999}},
       165,
       54},
      {"oracle",
       {{113, 56, 2.2599999999999998, 1.1200000000000001, 0.76000000000000001},
        {97, 44, 1.9399999999999999, 0.88, 0.64000000000000001}},
       210,
       100},
  };

  for (int b = 0; b < 3; ++b) {
    SCOPED_TRACE(golden[b].model);
    const eval::BucketResult& r = results[static_cast<std::size_t>(b)];
    EXPECT_EQ(r.model, golden[b].model);
    ASSERT_EQ(r.days.size(), 2u);
    for (int d = 0; d < 2; ++d) {
      SCOPED_TRACE(d);
      const eval::DayMetrics& m = r.days[static_cast<std::size_t>(d)];
      EXPECT_EQ(m.clicks, golden[b].days[d].clicks);
      EXPECT_EQ(m.conversions, golden[b].days[d].conversions);
      EXPECT_EQ(m.pending_conversions, 0);  // lag disabled: nothing pends
      EXPECT_EQ(m.pv_ctr, golden[b].days[d].pv_ctr);
      EXPECT_EQ(m.pv_cvr, golden[b].days[d].pv_cvr);
      EXPECT_EQ(m.top5_pv_cvr, golden[b].days[d].top5_pv_cvr);
    }
    EXPECT_EQ(r.overall.clicks, golden[b].overall_clicks);
    EXPECT_EQ(r.overall.conversions, golden[b].overall_conversions);
  }

  EXPECT_EQ(sim.posterior().over_d, 0.20166666666666666);
  EXPECT_EQ(sim.posterior().over_o, 0.4306049822064057);
}

TEST(OnlineAbGoldenTest, LaggedDayCvrCountsOnlyMaturedConversions) {
  core::ThreadPool::Global().SetNumThreads(1);
  data::DatasetProfile profile = TinyProfile();
  data::SyntheticLogGenerator generator(profile);

  eval::AbConfig lag0 = TinyAbConfig();
  eval::AbConfig lagged = lag0;
  lagged.lag.max_lag_days = 2;

  eval::OracleRanker oracle;
  eval::OnlineAbSimulator sim0(&generator, lag0);
  const auto r0 = sim0.Run({&oracle}, {"oracle"});
  eval::OnlineAbSimulator sim2(&generator, lagged);
  const auto r2 = sim2.Run({&oracle}, {"oracle"});

  // Same traffic, same clicks; day conversions split into matured + pending.
  std::int64_t pending_total = 0;
  for (int d = 0; d < 2; ++d) {
    const auto& m0 = r0[0].days[static_cast<std::size_t>(d)];
    const auto& m2 = r2[0].days[static_cast<std::size_t>(d)];
    EXPECT_EQ(m0.clicks, m2.clicks) << "day " << d;
    EXPECT_EQ(m0.conversions, m2.conversions + m2.pending_conversions)
        << "day " << d;
    EXPECT_LE(m2.conversions, m0.conversions) << "day " << d;
    pending_total += m2.pending_conversions;
  }
  // The horizon is short, so some conversions must still be in flight.
  EXPECT_GT(pending_total, 0);
  // Overall keeps the split: matured + pending = eventual attribution.
  EXPECT_EQ(r0[0].overall.conversions,
            r2[0].overall.conversions + r2[0].overall.pending_conversions);
}

// --- Tentpole: lag=0 continual == static A/B --------------------------------

TEST(ContinualTest, Lag0NeverRefreshMatchesStaticAbBitExact) {
  core::ThreadPool::Global().SetNumThreads(1);
  data::SyntheticLogGenerator generator(TinyProfile());

  eval::ContinualConfig config =
      TinyContinualConfig(TempDirFor("continual_lag0"));
  config.refresh = eval::RefreshCadence::kNever;

  eval::ContinualLoop loop(&generator, config);
  const eval::ContinualResult result = loop.Run();
  ASSERT_EQ(result.days.size(), 2u);
  EXPECT_EQ(result.dropped_requests, 0);
  EXPECT_EQ(result.swaps, 0);
  EXPECT_EQ(result.retrains, 1);  // the pretrain only
  EXPECT_FALSE(result.halted);

  // Static A/B over the same traffic with the pretrained weights.
  auto model = core::CreateModel("dcmt", generator.Schema(), config.model);
  ASSERT_TRUE(nn::LoadParameters(model.get(),
                                 config.work_dir + "/model-pretrain.ckpt"));
  eval::OnlineAbSimulator sim(&generator, config.ab);
  const auto ab = sim.Run({model.get()}, {"dcmt"});
  ASSERT_EQ(ab.size(), 1u);
  for (int d = 0; d < 2; ++d) {
    ExpectSameDayMetrics(result.days[static_cast<std::size_t>(d)].metrics,
                         ab[0].days[static_cast<std::size_t>(d)], d);
    EXPECT_EQ(result.days[static_cast<std::size_t>(d)].days_since_refresh, d);
  }

  // Acceptance: two identically-configured runs render byte-identical tables.
  eval::ContinualConfig config2 = config;
  config2.work_dir = TempDirFor("continual_lag0_rerun");
  data::SyntheticLogGenerator generator2(TinyProfile());
  eval::ContinualLoop loop2(&generator2, config2);
  const eval::ContinualResult result2 = loop2.Run();
  EXPECT_EQ(result.RenderStalenessTable(), result2.RenderStalenessTable());
  EXPECT_EQ(result.RenderDayTable(), result2.RenderDayTable());
}

// --- Kill + resume ----------------------------------------------------------

TEST(ContinualTest, KillAndResumeReproducesStalenessTableByteForByte) {
  core::ThreadPool::Global().SetNumThreads(1);
  data::DatasetProfile profile = TinyProfile();
  profile.conversion_lag.max_lag_days = 2;

  eval::ContinualConfig config = TinyContinualConfig("");
  config.ab.days = 3;
  config.ab.page_views_per_day = 40;
  config.ab.candidates_per_pv = 6;
  config.ab.exposed_per_pv = 3;
  config.ab.lag.max_lag_days = 2;
  config.train.epochs = 2;
  config.train.batch_size = 128;
  config.train.checkpoint_every = 3;
  config.pretrain_exposures = 1200;
  config.refresh = eval::RefreshCadence::kDaily;
  config.warm_start = true;

  // Run A: uninterrupted reference.
  config.work_dir = TempDirFor("continual_resume_a");
  data::SyntheticLogGenerator gen_a(profile);
  const eval::ContinualResult a = eval::ContinualLoop(&gen_a, config).Run();
  ASSERT_EQ(a.days.size(), 3u);
  EXPECT_FALSE(a.halted);
  EXPECT_EQ(a.dropped_requests, 0);
  EXPECT_EQ(a.swaps, 2);     // day-1 and day-2 republishes
  EXPECT_EQ(a.retrains, 3);  // pretrain + two daily retrains

  // The lagged world actually exercises the maturation machinery.
  std::int64_t fake = 0, relabeled = 0, pending = 0;
  for (const auto& d : a.days) {
    fake += d.fake_negatives;
    relabeled += d.relabeled;
    pending += d.metrics.pending_conversions;
  }
  EXPECT_GT(fake, 0);
  EXPECT_GT(relabeled, 0);
  EXPECT_GT(pending, 0);

  // Run B: killed mid-loop by the step budget, then resumed without one.
  config.work_dir = TempDirFor("continual_resume_b");
  config.halt_after_total_steps = 30;
  data::SyntheticLogGenerator gen_b(profile);
  const eval::ContinualResult b1 = eval::ContinualLoop(&gen_b, config).Run();
  ASSERT_TRUE(b1.halted);
  EXPECT_LT(b1.days.size(), 3u);
  EXPECT_EQ(b1.total_steps, 30);

  config.halt_after_total_steps = 0;
  data::SyntheticLogGenerator gen_b2(profile);
  const eval::ContinualResult b2 = eval::ContinualLoop(&gen_b2, config).Run();
  ASSERT_EQ(b2.days.size(), 3u);
  EXPECT_FALSE(b2.halted);

  // Byte-for-byte: rendered tables and every per-day number.
  EXPECT_EQ(a.RenderStalenessTable(), b2.RenderStalenessTable());
  EXPECT_EQ(a.RenderDayTable(), b2.RenderDayTable());
  EXPECT_EQ(a.total_steps, b2.total_steps);
  for (std::size_t d = 0; d < a.days.size(); ++d) {
    EXPECT_EQ(a.days[d].cvr_auc, b2.days[d].cvr_auc) << "day " << d;
    EXPECT_EQ(a.days[d].pv_cvr_auc, b2.days[d].pv_cvr_auc) << "day " << d;
    EXPECT_EQ(a.days[d].fake_negatives, b2.days[d].fake_negatives);
    EXPECT_EQ(a.days[d].relabeled, b2.days[d].relabeled);
    ExpectSameDayMetrics(a.days[d].metrics, b2.days[d].metrics,
                         static_cast<int>(d));
  }
}

// --- Drift: refreshing must help --------------------------------------------

TEST(ContinualTest, DailyRefreshBeatsNeverRefreshUnderDrift) {
  core::ThreadPool::Global().SetNumThreads(1);
  const data::DatasetProfile profile = TinyProfile();

  eval::ContinualConfig config = TinyContinualConfig("");
  config.ab.days = 4;
  config.ab.page_views_per_day = 120;
  config.ab.conversion_drift_scale = 1.5f;
  config.train.epochs = 3;
  config.train.batch_size = 128;
  config.pretrain_exposures = 2000;
  config.rows_per_shard = 1024;

  config.refresh = eval::RefreshCadence::kDaily;
  config.work_dir = TempDirFor("continual_drift_daily");
  data::SyntheticLogGenerator gen_daily(profile);
  const eval::ContinualResult daily =
      eval::ContinualLoop(&gen_daily, config).Run();

  config.refresh = eval::RefreshCadence::kNever;
  config.work_dir = TempDirFor("continual_drift_never");
  data::SyntheticLogGenerator gen_never(profile);
  const eval::ContinualResult never =
      eval::ContinualLoop(&gen_never, config).Run();

  ASSERT_EQ(daily.days.size(), 4u);
  ASSERT_EQ(never.days.size(), 4u);
  double daily_sum = 0.0, never_sum = 0.0;
  for (std::size_t d = 1; d < 4; ++d) {
    EXPECT_GT(daily.days[d].cvr_auc, never.days[d].cvr_auc) << "day " << d;
    daily_sum += daily.days[d].cvr_auc;
    never_sum += never.days[d].cvr_auc;
  }
  // Comfortable margin (measured ~+0.058 mean on this seed).
  EXPECT_GT((daily_sum - never_sum) / 3.0, 0.02);

  // The never arm's staleness table shows one bucket per age; the daily
  // arm's serving model is never older than a day.
  EXPECT_EQ(never.staleness.size(), 4u);
  for (const auto& row : daily.staleness) {
    EXPECT_LE(row.days_since_refresh, 1);
  }
}

// --- Serving: republish is drop-free ----------------------------------------

TEST(ContinualTest, IntraDayRepublishDropsZeroRequests) {
  core::ThreadPool::Global().SetNumThreads(1);
  data::SyntheticLogGenerator generator(TinyProfile());

  eval::ContinualConfig config =
      TinyContinualConfig(TempDirFor("continual_intra"));
  config.refresh = eval::RefreshCadence::kIntraDay;
  config.intra_day_segments = 2;
  config.router_engines = 2;

  const eval::ContinualResult result =
      eval::ContinualLoop(&generator, config).Run();
  ASSERT_EQ(result.days.size(), 2u);
  // 2 days x 2 segments: refreshes at day-0 mid-day, day-1 boundary and
  // day-1 mid-day — every one a live Swap under traffic, none dropped.
  EXPECT_EQ(result.swaps, 3);
  EXPECT_EQ(result.retrains, 4);  // pretrain + 3 refreshes
  EXPECT_EQ(result.dropped_requests, 0);
  // Every serving segment saw a model no older than the current day.
  for (const auto& day : result.days) {
    EXPECT_LE(day.days_since_refresh, 1);
  }
}

// --- Persistence: lag column round trip + fuzzer ----------------------------

data::DatasetProfile LaggedStreamProfile() {
  data::DatasetProfile profile;
  profile.name = "lagstream";
  profile.num_users = 40;
  profile.num_items = 60;
  profile.train_exposures = 1000;
  profile.test_exposures = 100;
  profile.target_click_rate = 0.25;
  profile.target_cvr_given_click = 0.3;
  profile.seed = 91;
  profile.conversion_lag.max_lag_days = 3;
  return profile;
}

TEST(ContinualShardTest, GenerateToShardsPreservesConvertLagDays) {
  data::SyntheticLogGenerator generator(LaggedStreamProfile());
  const std::string dir = TempDirFor("lag_roundtrip");

  data::ShardWriterConfig writer_config;
  writer_config.rows_per_shard = 128;
  std::string error;
  ASSERT_TRUE(generator.GenerateToShards(dir, 600, /*stream=*/5, writer_config,
                                         &error))
      << error;
  data::Dataset expected = generator.Generate(600, /*stream=*/5);

  data::StreamingDataset dataset;
  ASSERT_TRUE(data::StreamingDataset::Open(dir, data::StreamingConfig{},
                                           &dataset, &error))
      << error;
  data::Dataset materialized;
  ASSERT_TRUE(dataset.Materialize(&materialized, &error)) << error;

  ASSERT_EQ(materialized.size(), expected.size());
  std::int64_t lagged_rows = 0;
  for (std::int64_t i = 0; i < expected.size(); ++i) {
    const data::Example& want = expected.examples()[static_cast<std::size_t>(i)];
    const data::Example& got =
        materialized.examples()[static_cast<std::size_t>(i)];
    ASSERT_EQ(got.convert_lag_days, want.convert_lag_days) << "row " << i;
    ASSERT_EQ(got.click, want.click) << "row " << i;
    ASSERT_EQ(got.conversion, want.conversion) << "row " << i;
    ASSERT_EQ(got.oracle_conversion, want.oracle_conversion) << "row " << i;
    if (want.convert_lag_days > 0) ++lagged_rows;
    EXPECT_GE(want.convert_lag_days, 0);
    EXPECT_LE(want.convert_lag_days, 3);
    // The lag is a property of the (potential) conversion event itself, so
    // it is drawn for every oracle converter — including fake negatives.
    if (want.oracle_conversion == 0) {
      EXPECT_EQ(want.convert_lag_days, 0);
    }
  }
  // The lag distribution actually fired — the round trip is not vacuous.
  EXPECT_GT(lagged_rows, 0);
}

TEST(ContinualShardTest, LagDisabledRowsMatchPreLagCorpusExactly) {
  // With max_lag_days = 0 the generator must emit the exact pre-§17 rows:
  // the lag draw is keyed off-stream, so enabling it must not perturb any
  // other column either.
  data::DatasetProfile lag0 = LaggedStreamProfile();
  lag0.conversion_lag.max_lag_days = 0;
  data::DatasetProfile lag3 = LaggedStreamProfile();

  data::SyntheticLogGenerator gen0(lag0);
  data::SyntheticLogGenerator gen3(lag3);
  const data::Dataset d0 = gen0.Generate(400, /*stream=*/7);
  const data::Dataset d3 = gen3.Generate(400, /*stream=*/7);
  ASSERT_EQ(d0.size(), d3.size());
  for (std::int64_t i = 0; i < d0.size(); ++i) {
    const data::Example& a = d0.examples()[static_cast<std::size_t>(i)];
    const data::Example& b = d3.examples()[static_cast<std::size_t>(i)];
    ASSERT_EQ(a.convert_lag_days, 0);
    ASSERT_EQ(a.deep_ids, b.deep_ids) << "row " << i;
    ASSERT_EQ(a.wide_ids, b.wide_ids) << "row " << i;
    ASSERT_EQ(a.click, b.click) << "row " << i;
    ASSERT_EQ(a.conversion, b.conversion) << "row " << i;
    ASSERT_EQ(a.oracle_conversion, b.oracle_conversion) << "row " << i;
    ASSERT_EQ(a.true_ctr, b.true_ctr) << "row " << i;
    ASSERT_EQ(a.true_cvr, b.true_cvr) << "row " << i;
  }
}

TEST(ContinualShardTest, DrawConversionLagDaysIsDeterministicAndBounded) {
  data::ConversionLagConfig config;
  config.max_lag_days = 5;
  bool saw_zero = false, saw_positive = false;
  for (std::uint64_t key = 0; key < 2000; ++key) {
    const int lag = data::DrawConversionLagDays(config, key);
    EXPECT_GE(lag, 0);
    EXPECT_LE(lag, 5);
    EXPECT_EQ(lag, data::DrawConversionLagDays(config, key));
    saw_zero = saw_zero || lag == 0;
    saw_positive = saw_positive || lag > 0;
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_positive);

  data::ConversionLagConfig disabled;
  disabled.max_lag_days = 0;
  for (std::uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(data::DrawConversionLagDays(disabled, key), 0);
  }
}

TEST(ContinualShardTest, ByteFlipFuzzerEveryOffsetRejectedWithLagColumn) {
  // Small lag-carrying dataset so the fuzz loop stays fast.
  data::SyntheticLogGenerator generator(LaggedStreamProfile());
  const std::string dir = TempDirFor("lag_fuzz");
  data::ShardWriterConfig writer_config;
  writer_config.rows_per_shard = 32;
  std::string error;
  ASSERT_TRUE(
      generator.GenerateToShards(dir, 64, /*stream=*/5, writer_config, &error))
      << error;

  data::StreamingDataset dataset;
  ASSERT_TRUE(data::StreamingDataset::Open(dir, data::StreamingConfig{},
                                           &dataset, &error))
      << error;
  ExpectEveryShardAndManifestFlipRejected(dataset, dir);
}

}  // namespace
}  // namespace dcmt
