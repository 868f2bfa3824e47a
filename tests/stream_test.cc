// Tests for the out-of-core streaming data path (DESIGN.md §15):
//   * golden equivalence — a shard directory materializes to exactly the
//     rows Generate() would produce, and a StreamingBatcher emits the same
//     batch sequence bit-for-bit as an in-RAM Batcher built with the shard
//     plan, across epochs, prefetch depths, ragged final shards, ragged
//     final batches and batches that straddle shards; decoded shard columns
//     round-trip every encoded column;
//   * state interop — BatcherState saved mid-epoch on either path restores
//     into the other (also while the prefetch worker is batches ahead of
//     the consumer), and a training run killed mid-shard resumes
//     bit-exactly (including crash-on-stream / resume-in-RAM);
//   * fail-closed reading — torn shard writes, in-flight byte flips,
//     truncation, and a byte-flip fuzzer over every offset of a shard and
//     its manifest: corruption is always rejected, never decoded; and
//     shards with valid CRCs whose ids or labels are out of contract are
//     rejected with "<path>: <column>: <what>".
//
// FaultInjectingFileSystem is not thread-safe, so every test that injects
// faults runs with prefetch_depth = 0 (no prefetch thread at all).

#include <algorithm>
// dcmt-lint: allow(concurrency) — cross-thread assertion counters.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
// dcmt-lint: allow(concurrency) — a real producer thread for the channel.
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dcmt.h"
#include "core/io.h"
#include "core/prefetch.h"
#include "core/thread_pool.h"
#include "data/batcher.h"
#include "data/generator.h"
#include "data/shard.h"
#include "data/stream.h"
#include "eval/trainer.h"
#include "support/byte_flip.h"
#include "support/fault_fs.h"
#include "tensor/random.h"

namespace dcmt {
namespace {

std::string TempDirFor(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  core::FileSystem::Default()->CreateDirectories(dir);
  return dir;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileOrDie(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  ASSERT_TRUE(out.good());
}

data::DatasetProfile StreamProfile() {
  data::DatasetProfile profile;
  profile.name = "stream";
  profile.num_users = 40;
  profile.num_items = 60;
  profile.train_exposures = 1000;
  profile.test_exposures = 100;
  profile.target_click_rate = 0.25;
  profile.target_cvr_given_click = 0.3;
  profile.seed = 91;
  return profile;
}

/// Writes `count` exposures of stream 1 into a fresh temp dir with the given
/// shard size; returns the directory.
std::string GenShardsOrDie(const std::string& name, std::int64_t count,
                           std::int64_t rows_per_shard,
                           core::FileSystem* fs = nullptr) {
  const std::string dir = TempDirFor(name);
  data::SyntheticLogGenerator generator(StreamProfile());
  data::ShardWriterConfig config;
  config.rows_per_shard = rows_per_shard;
  config.fs = fs;
  std::string error;
  EXPECT_TRUE(generator.GenerateToShards(dir, count, /*stream=*/1, config,
                                         &error))
      << error;
  return dir;
}

data::StreamingDataset OpenOrDie(const std::string& dir,
                                 core::FileSystem* fs = nullptr) {
  data::StreamingConfig config;
  config.fs = fs;
  data::StreamingDataset dataset;
  std::string error;
  EXPECT_TRUE(data::StreamingDataset::Open(dir, config, &dataset, &error))
      << error;
  return dataset;
}

/// Shard `shard` of `dataset`, decoded.
data::ShardColumns ReadColumnsOrDie(const data::StreamingDataset& dataset,
                                    int shard) {
  data::ShardColumns columns;
  std::string error;
  EXPECT_TRUE(dataset.ReadShard(shard, &columns, &error)) << error;
  return columns;
}

void ExpectExamplesEqual(const data::Example& a, const data::Example& b) {
  EXPECT_EQ(a.deep_ids, b.deep_ids);
  EXPECT_EQ(a.wide_ids, b.wide_ids);
  EXPECT_EQ(a.click, b.click);
  EXPECT_EQ(a.conversion, b.conversion);
  EXPECT_EQ(a.oracle_conversion, b.oracle_conversion);
  // Bit-exact float round-trip is the container's contract, so exact
  // equality (via EXPECT_EQ, no literals involved) is deliberate here.
  EXPECT_EQ(a.true_ctr, b.true_ctr);
  EXPECT_EQ(a.true_cvr, b.true_cvr);
  EXPECT_EQ(a.user_index, b.user_index);
  EXPECT_EQ(a.item_index, b.item_index);
  EXPECT_EQ(a.convert_lag_days, b.convert_lag_days);
}

void ExpectBatchesEqual(const data::Batch& a, const data::Batch& b) {
  ASSERT_EQ(a.size, b.size);
  EXPECT_EQ(a.deep_ids, b.deep_ids);
  EXPECT_EQ(a.wide_ids, b.wide_ids);
  EXPECT_EQ(a.click.ToVector(), b.click.ToVector());
  EXPECT_EQ(a.conversion.ToVector(), b.conversion.ToVector());
  EXPECT_EQ(a.ctcvr.ToVector(), b.ctcvr.ToVector());
  EXPECT_EQ(a.click_raw, b.click_raw);
  EXPECT_EQ(a.conversion_raw, b.conversion_raw);
  EXPECT_EQ(a.true_ctr, b.true_ctr);
  EXPECT_EQ(a.true_cvr, b.true_cvr);
}

/// Drains `epochs` full epochs from a source (Next() returning false marks
/// each boundary); the flat batch list is the equivalence artifact.
std::vector<data::Batch> CollectEpochs(data::BatchSource* source, int epochs) {
  std::vector<data::Batch> batches;
  for (int e = 0; e < epochs; ++e) {
    data::Batch batch;
    while (source->Next(&batch)) batches.push_back(std::move(batch));
    EXPECT_TRUE(source->ok()) << source->error();
  }
  return batches;
}

// ---------------------------------------------------------------------------
// Golden equivalence
// ---------------------------------------------------------------------------

TEST(StreamTest, GenShardsMatchesMaterializedGenerate) {
  // 1000 rows at 192/shard: five full shards plus a ragged 40-row tail.
  const std::string dir = GenShardsOrDie("golden_rows", 1000, 192);
  data::SyntheticLogGenerator generator(StreamProfile());
  const data::Dataset expected = generator.Generate(1000, /*stream=*/1);

  const data::StreamingDataset streaming = OpenOrDie(dir);
  EXPECT_EQ(streaming.size(), 1000);
  EXPECT_EQ(streaming.num_shards(), 6);
  data::Dataset materialized;
  std::string error;
  ASSERT_TRUE(streaming.Materialize(&materialized, &error)) << error;

  ASSERT_EQ(materialized.size(), expected.size());
  for (std::int64_t i = 0; i < expected.size(); ++i) {
    ExpectExamplesEqual(materialized.examples()[i], expected.examples()[i]);
  }
}

TEST(StreamTest, ManifestLabelSumsMatchDatasetStats) {
  const std::string dir = GenShardsOrDie("golden_sums", 1000, 192);
  const data::StreamingDataset streaming = OpenOrDie(dir);
  data::Dataset materialized;
  std::string error;
  ASSERT_TRUE(streaming.Materialize(&materialized, &error)) << error;
  const data::DatasetStats stats = materialized.Stats();

  std::int64_t clicks = 0, conversions = 0, oracle = 0;
  for (const data::ShardInfo& shard : streaming.manifest().shards) {
    clicks += shard.clicks;
    conversions += shard.conversions;
    oracle += shard.oracle_conversions;
  }
  EXPECT_EQ(clicks, stats.clicks);
  EXPECT_EQ(conversions, stats.conversions);
  EXPECT_EQ(oracle, stats.oracle_conversions);
  EXPECT_EQ(streaming.size(), stats.exposures);
}

TEST(StreamTest, StreamingMatchesInRamBatcherAcrossEpochsAndDepths) {
  const std::string dir = GenShardsOrDie("golden_batches", 1000, 192);
  const data::StreamingDataset streaming = OpenOrDie(dir);
  data::Dataset materialized;
  std::string error;
  ASSERT_TRUE(streaming.Materialize(&materialized, &error)) << error;

  // Batch 96 over 1000 rows: ten full batches plus a ragged 40-row one.
  Rng ram_rng(17);
  data::Batcher ram(&materialized, 96, &ram_rng, streaming.ShardRowCounts());
  const std::vector<data::Batch> golden = CollectEpochs(&ram, 3);
  ASSERT_EQ(static_cast<std::int64_t>(golden.size()),
            3 * ram.batches_per_epoch());

  for (const int depth : {0, 1, 2, 8}) {
    Rng stream_rng(17);
    data::StreamingBatcher batcher(&streaming, 96, &stream_rng, depth);
    EXPECT_EQ(batcher.batches_per_epoch(), ram.batches_per_epoch());
    const std::vector<data::Batch> got = CollectEpochs(&batcher, 3);
    ASSERT_EQ(got.size(), golden.size()) << "prefetch depth " << depth;
    for (std::size_t i = 0; i < golden.size(); ++i) {
      ExpectBatchesEqual(got[i], golden[i]);
    }
  }
}

TEST(StreamTest, BatchesStraddlingShardsMatchInRamBatcher) {
  // 100-row shards: a 64-row batch straddles two shards every few batches,
  // and a 256-row batch spans three. The worker gathers each such batch in
  // pieces from consecutive resident shards.
  const std::string dir = GenShardsOrDie("golden_straddle", 1000, 100);
  const data::StreamingDataset streaming = OpenOrDie(dir);
  data::Dataset materialized;
  std::string error;
  ASSERT_TRUE(streaming.Materialize(&materialized, &error)) << error;
  const std::vector<std::int64_t>& offsets = streaming.ShardRowOffsets();
  const auto shard_of = [&](std::int64_t global) {
    return std::upper_bound(offsets.begin(), offsets.end(), global) -
           offsets.begin();
  };

  for (const int batch_rows : {64, 256}) {
    SCOPED_TRACE(batch_rows);
    Rng ram_rng(29);
    data::Batcher ram(&materialized, batch_rows, &ram_rng,
                      streaming.ShardRowCounts());
    const data::BatcherState first_epoch = ram.SaveState();
    const std::vector<data::Batch> golden = CollectEpochs(&ram, 2);

    int straddles = 0;
    for (std::size_t b = 0; b < first_epoch.order.size();
         b += static_cast<std::size_t>(batch_rows)) {
      const std::size_t last =
          std::min(first_epoch.order.size(), b + batch_rows) - 1;
      if (shard_of(first_epoch.order[b]) != shard_of(first_epoch.order[last])) {
        ++straddles;
      }
    }
    EXPECT_GT(straddles, 0);

    for (const int depth : {0, 1, 2, 8}) {
      Rng stream_rng(29);
      data::StreamingBatcher batcher(&streaming, batch_rows, &stream_rng, depth);
      const std::vector<data::Batch> got = CollectEpochs(&batcher, 2);
      ASSERT_EQ(got.size(), golden.size()) << "prefetch depth " << depth;
      for (std::size_t i = 0; i < golden.size(); ++i) {
        ExpectBatchesEqual(got[i], golden[i]);
      }
      EXPECT_EQ(batcher.shards_decoded(), 2 * streaming.num_shards())
          << "prefetch depth " << depth;
    }
  }
}

TEST(StreamTest, ShardColumnsRoundTripEveryEncodedColumn) {
  data::SyntheticLogGenerator generator(StreamProfile());
  const data::Dataset drawn = generator.Generate(300, /*stream=*/3);
  // Distinct user, item and lag values on every row, so a column decoded
  // into the wrong place (or not at all) cannot go unnoticed.
  std::vector<data::Example> rows = drawn.examples();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    rows[r].user_index = static_cast<std::int32_t>(1000 + r);
    rows[r].item_index = static_cast<std::int32_t>(5000 + 3 * r);
    rows[r].convert_lag_days = static_cast<std::int32_t>(r % 7);
  }
  const data::FeatureSchema& schema = drawn.schema();
  const std::string dir = TempDirFor("columns_roundtrip");
  const std::string path = dir + "/" + data::ShardFileName(0);
  WriteFileOrDie(path, data::EncodeShardImage(
                           schema, 0, data::ShardColumns::FromRows(schema, rows)));

  data::ShardManifest manifest;
  manifest.schema = schema;
  manifest.schema_fingerprint = data::FingerprintSchema(schema);
  data::ShardInfo info;
  info.file = data::ShardFileName(0);
  info.rows = static_cast<std::int64_t>(rows.size());
  for (const data::Example& e : rows) {
    info.clicks += e.click;
    info.conversions += e.conversion;
    info.oracle_conversions += e.oracle_conversion;
  }
  manifest.shards.push_back(info);

  data::ShardColumns columns;
  std::string error;
  ASSERT_TRUE(data::ReadShardFile(nullptr, path, manifest, 0, &columns, &error))
      << error;
  ASSERT_EQ(columns.size(), static_cast<std::int64_t>(rows.size()));
  ASSERT_EQ(columns.deep_ids.size(), schema.deep_fields.size());
  ASSERT_EQ(columns.wide_ids.size(), schema.wide_fields.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const data::Example& e = rows[r];
    for (std::size_t f = 0; f < columns.deep_ids.size(); ++f) {
      EXPECT_EQ(columns.deep_ids[f][r], e.deep_ids[f]);
    }
    for (std::size_t f = 0; f < columns.wide_ids.size(); ++f) {
      EXPECT_EQ(columns.wide_ids[f][r], e.wide_ids[f]);
    }
    EXPECT_EQ(columns.click[r], e.click);
    EXPECT_EQ(columns.conversion[r], e.conversion);
    EXPECT_EQ(columns.oracle_conversion[r], e.oracle_conversion);
    EXPECT_EQ(columns.true_ctr[r], e.true_ctr);
    EXPECT_EQ(columns.true_cvr[r], e.true_cvr);
    EXPECT_EQ(columns.user_index[r], e.user_index);
    EXPECT_EQ(columns.item_index[r], e.item_index);
    EXPECT_EQ(columns.convert_lag_days[r], e.convert_lag_days);
    ExpectExamplesEqual(columns.Row(static_cast<std::int64_t>(r)), e);
  }
}

TEST(StreamTest, EachShardDecodedOncePerEpoch) {
  const std::string dir = GenShardsOrDie("golden_decodes", 1000, 192);
  const data::StreamingDataset streaming = OpenOrDie(dir);
  for (const int depth : {0, 2}) {
    Rng rng(5);
    data::StreamingBatcher batcher(&streaming, 64, &rng, depth);
    CollectEpochs(&batcher, 2);
    // Shard-sequential epoch orders mean exactly num_shards decodes/epoch —
    // streaming, not per-batch re-reads.
    EXPECT_EQ(batcher.shards_decoded(), 2 * streaming.num_shards())
        << "prefetch depth " << depth;
  }
}

TEST(StreamTest, RewindReplaysIdenticalEpoch) {
  const std::string dir = GenShardsOrDie("golden_rewind", 600, 192);
  const data::StreamingDataset streaming = OpenOrDie(dir);
  Rng rng(23);
  data::StreamingBatcher batcher(&streaming, 128, &rng, 2);
  const std::vector<data::Batch> first = CollectEpochs(&batcher, 1);
  batcher.Rewind();
  const std::vector<data::Batch> replay = CollectEpochs(&batcher, 1);
  ASSERT_EQ(first.size(), replay.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ExpectBatchesEqual(first[i], replay[i]);
  }
}

// ---------------------------------------------------------------------------
// State interop (SaveState / RestoreState across paths, kill + resume)
// ---------------------------------------------------------------------------

TEST(StreamTest, MidEpochStateRestoresAcrossStreamingInstances) {
  const std::string dir = GenShardsOrDie("state_stream", 1000, 192);
  const data::StreamingDataset streaming = OpenOrDie(dir);

  Rng rng_a(31);
  data::StreamingBatcher a(&streaming, 96, &rng_a, 2);
  data::Batch batch;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(a.Next(&batch));
  const data::BatcherState saved = a.SaveState();

  // b is deliberately advanced a different distance before the restore.
  Rng rng_b(31);
  data::StreamingBatcher b(&streaming, 96, &rng_b, 0);
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(b.Next(&batch));
  ASSERT_TRUE(b.RestoreState(saved));

  // Identical from here through the next epoch (both rngs hold the same
  // post-construction state, so the epoch-2 reshuffle also agrees).
  const std::vector<data::Batch> rest_a = CollectEpochs(&a, 2);
  const std::vector<data::Batch> rest_b = CollectEpochs(&b, 2);
  ASSERT_EQ(rest_a.size(), rest_b.size());
  for (std::size_t i = 0; i < rest_a.size(); ++i) {
    ExpectBatchesEqual(rest_a[i], rest_b[i]);
  }
}

TEST(StreamTest, StateSavedWhileWorkerIsAheadRestoresIntoBothPaths) {
  // Deep prefetch over small shards: by the time the consumer saves, the
  // worker has gathered batches past the cursor. The saved state must name
  // the consumer's position, not the worker's.
  const std::string dir = GenShardsOrDie("state_ahead", 1000, 100);
  const data::StreamingDataset streaming = OpenOrDie(dir);
  data::Dataset materialized;
  std::string error;
  ASSERT_TRUE(streaming.Materialize(&materialized, &error)) << error;

  Rng rng_a(37);
  data::StreamingBatcher a(&streaming, 64, &rng_a, /*prefetch_depth=*/8);
  data::Batch batch;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(a.Next(&batch));
  // Let the worker run ahead to its bound before the save.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const data::BatcherState saved = a.SaveState();
  ASSERT_EQ(saved.cursor, 5 * 64);

  Rng rng_b(37);
  data::StreamingBatcher b(&streaming, 64, &rng_b, /*prefetch_depth=*/2);
  ASSERT_TRUE(b.RestoreState(saved));
  Rng rng_c(37);
  data::Batcher c(&materialized, 64, &rng_c, streaming.ShardRowCounts());
  ASSERT_TRUE(c.RestoreState(saved));

  const std::vector<data::Batch> rest_a = CollectEpochs(&a, 2);
  const std::vector<data::Batch> rest_b = CollectEpochs(&b, 2);
  const std::vector<data::Batch> rest_c = CollectEpochs(&c, 2);
  ASSERT_EQ(rest_a.size(), rest_b.size());
  ASSERT_EQ(rest_a.size(), rest_c.size());
  for (std::size_t i = 0; i < rest_a.size(); ++i) {
    ExpectBatchesEqual(rest_b[i], rest_a[i]);
    ExpectBatchesEqual(rest_c[i], rest_a[i]);
  }
}

TEST(StreamTest, InRamStateSavedMidShortFinalShardRestoresIntoStreaming) {
  // Regression for the row-count-known-up-front assumption: the save lands
  // inside the ragged 40-row final shard, and the restored streaming batcher
  // must resume exactly there.
  const std::string dir = GenShardsOrDie("state_cross", 1000, 192);
  const data::StreamingDataset streaming = OpenOrDie(dir);
  data::Dataset materialized;
  std::string error;
  ASSERT_TRUE(streaming.Materialize(&materialized, &error)) << error;

  Rng ram_rng(47);
  data::Batcher ram(&materialized, 96, &ram_rng, streaming.ShardRowCounts());
  data::Batch batch;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(ram.Next(&batch));  // cursor 960
  const data::BatcherState saved = ram.SaveState();
  ASSERT_EQ(saved.cursor, 960);

  Rng stream_rng(47);
  data::StreamingBatcher resumed(&streaming, 96, &stream_rng, 2);
  ASSERT_TRUE(resumed.RestoreState(saved));
  const std::vector<data::Batch> tail_ram = CollectEpochs(&ram, 2);
  const std::vector<data::Batch> tail_stream = CollectEpochs(&resumed, 2);
  ASSERT_EQ(tail_ram.size(), tail_stream.size());
  ASSERT_EQ(tail_ram.front().size, 40);  // the ragged final batch
  for (std::size_t i = 0; i < tail_ram.size(); ++i) {
    ExpectBatchesEqual(tail_ram[i], tail_stream[i]);
  }
}

TEST(StreamTest, InRamBatcherWithShardPlanSaveRestoreShortFinalShard) {
  // Satellite for the Batcher itself: save/restore with a shard plan whose
  // final shard is short, no streaming involved.
  const std::string dir = GenShardsOrDie("state_plan", 1000, 192);
  const data::StreamingDataset streaming = OpenOrDie(dir);
  data::Dataset materialized;
  std::string error;
  ASSERT_TRUE(streaming.Materialize(&materialized, &error)) << error;

  Rng rng_a(53);
  data::Batcher a(&materialized, 96, &rng_a, streaming.ShardRowCounts());
  data::Batch batch;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(a.Next(&batch));
  const data::BatcherState saved = a.SaveState();

  Rng rng_b(53);
  data::Batcher b(&materialized, 96, &rng_b, streaming.ShardRowCounts());
  ASSERT_TRUE(b.RestoreState(saved));
  const std::vector<data::Batch> rest_a = CollectEpochs(&a, 2);
  const std::vector<data::Batch> rest_b = CollectEpochs(&b, 2);
  ASSERT_EQ(rest_a.size(), rest_b.size());
  for (std::size_t i = 0; i < rest_a.size(); ++i) {
    ExpectBatchesEqual(rest_a[i], rest_b[i]);
  }
}

TEST(StreamTest, StreamingRejectsNonShardSequentialOrder) {
  const std::string dir = GenShardsOrDie("state_reject", 1000, 192);
  const data::StreamingDataset streaming = OpenOrDie(dir);
  Rng rng(3);
  data::StreamingBatcher batcher(&streaming, 96, &rng, 0);

  data::BatcherState bogus = batcher.SaveState();
  // Swap a row of shard 0 with a row of shard 5: still a permutation, no
  // longer shard-sequential — a streaming reader cannot serve it.
  auto lo = std::find_if(bogus.order.begin(), bogus.order.end(),
                         [](std::int64_t g) { return g < 192; });
  auto hi = std::find_if(bogus.order.begin(), bogus.order.end(),
                         [](std::int64_t g) { return g >= 960; });
  ASSERT_TRUE(lo != bogus.order.end() && hi != bogus.order.end());
  std::iter_swap(lo, hi);
  EXPECT_FALSE(batcher.RestoreState(bogus));

  // The failed restore must not have corrupted the live state.
  EXPECT_TRUE(batcher.ok());
  const std::vector<data::Batch> epoch = CollectEpochs(&batcher, 1);
  EXPECT_EQ(static_cast<std::int64_t>(epoch.size()),
            batcher.batches_per_epoch());
}

models::ModelConfig SmallModelConfig() {
  models::ModelConfig config;
  config.embedding_dim = 4;
  config.hidden_dims = {8, 4};
  config.seed = 11;
  return config;
}

eval::TrainConfig StreamTrainConfig() {
  eval::TrainConfig config;
  config.epochs = 2;
  config.batch_size = 96;
  config.seed = 5;
  config.record_step_loss = true;
  return config;
}

std::vector<std::vector<float>> SnapshotParams(const core::Dcmt& model) {
  std::vector<std::vector<float>> params;
  for (const Tensor& p : model.parameters()) params.push_back(p.ToVector());
  return params;
}

TEST(StreamTest, TrainFromStreamMatchesInRamTrainingBitExact) {
  const std::string dir = GenShardsOrDie("train_equiv", 1000, 192);
  const data::StreamingDataset streaming = OpenOrDie(dir);
  data::Dataset materialized;
  std::string error;
  ASSERT_TRUE(streaming.Materialize(&materialized, &error)) << error;

  for (const int threads : {1, 4}) {
    core::ThreadPool::Global().SetNumThreads(threads);

    core::Dcmt ram_model(streaming.schema(), SmallModelConfig());
    Rng ram_rng(StreamTrainConfig().seed);
    data::Batcher ram(&materialized, 96, &ram_rng, streaming.ShardRowCounts());
    const eval::TrainHistory ram_history =
        eval::TrainFromSource(&ram_model, &ram, &ram_rng, StreamTrainConfig());

    core::Dcmt stream_model(streaming.schema(), SmallModelConfig());
    Rng stream_rng(StreamTrainConfig().seed);
    data::StreamingBatcher batcher(&streaming, 96, &stream_rng, 2);
    const eval::TrainHistory stream_history = eval::TrainFromSource(
        &stream_model, &batcher, &stream_rng, StreamTrainConfig());

    EXPECT_EQ(ram_history.step_loss, stream_history.step_loss)
        << threads << " threads";
    EXPECT_EQ(ram_history.epoch_loss, stream_history.epoch_loss);
    EXPECT_EQ(SnapshotParams(ram_model), SnapshotParams(stream_model))
        << threads << " threads";
  }
  core::ThreadPool::Global().SetNumThreads(1);
}

TEST(StreamTest, KillAndResumeMidShardIsBitExact) {
  core::ThreadPool::Global().SetNumThreads(1);
  const std::string dir = GenShardsOrDie("train_resume", 1000, 192);
  const data::StreamingDataset streaming = OpenOrDie(dir);

  auto run = [&](eval::TrainConfig config, core::Dcmt* model) {
    Rng rng(config.seed);
    data::StreamingBatcher batcher(&streaming, 96, &rng, 2);
    return eval::TrainFromSource(model, &batcher, &rng, config);
  };

  core::Dcmt baseline(streaming.schema(), SmallModelConfig());
  run(StreamTrainConfig(), &baseline);

  // Crash at step 3: batch 96 against 192-row shards puts the cursor
  // mid-shard, and checkpoint_every=1 guarantees a mid-shard save.
  const std::string ckpt_dir = TempDirFor("train_resume_ckpt");
  eval::TrainConfig crashed = StreamTrainConfig();
  crashed.checkpoint_dir = ckpt_dir;
  crashed.checkpoint_every = 1;
  crashed.halt_after_steps = 3;
  core::Dcmt resumed(streaming.schema(), SmallModelConfig());
  run(crashed, &resumed);

  eval::TrainConfig resume = StreamTrainConfig();
  resume.checkpoint_dir = ckpt_dir;
  resume.checkpoint_every = 1;
  resume.resume = true;
  run(resume, &resumed);

  EXPECT_EQ(SnapshotParams(baseline), SnapshotParams(resumed));
}

TEST(StreamTest, CrashOnStreamResumesInRamBitExact) {
  // The setup fingerprint is computed from source->size(), so a checkpoint
  // written by a streaming run restores into an in-RAM run over the same
  // shards — the strongest form of the two paths being the same pipeline.
  core::ThreadPool::Global().SetNumThreads(1);
  const std::string dir = GenShardsOrDie("train_cross_resume", 1000, 192);
  const data::StreamingDataset streaming = OpenOrDie(dir);
  data::Dataset materialized;
  std::string error;
  ASSERT_TRUE(streaming.Materialize(&materialized, &error)) << error;

  core::Dcmt baseline(streaming.schema(), SmallModelConfig());
  {
    Rng rng(StreamTrainConfig().seed);
    data::StreamingBatcher batcher(&streaming, 96, &rng, 2);
    eval::TrainFromSource(&baseline, &batcher, &rng, StreamTrainConfig());
  }

  const std::string ckpt_dir = TempDirFor("train_cross_resume_ckpt");
  eval::TrainConfig crashed = StreamTrainConfig();
  crashed.checkpoint_dir = ckpt_dir;
  crashed.checkpoint_every = 1;
  crashed.halt_after_steps = 5;
  core::Dcmt model(streaming.schema(), SmallModelConfig());
  {
    Rng rng(crashed.seed);
    data::StreamingBatcher batcher(&streaming, 96, &rng, 2);
    eval::TrainFromSource(&model, &batcher, &rng, crashed);
  }

  eval::TrainConfig resume = StreamTrainConfig();
  resume.checkpoint_dir = ckpt_dir;
  resume.checkpoint_every = 1;
  resume.resume = true;
  {
    Rng rng(resume.seed);
    data::Batcher batcher(&materialized, 96, &rng, streaming.ShardRowCounts());
    eval::TrainFromSource(&model, &batcher, &rng, resume);
  }

  EXPECT_EQ(SnapshotParams(baseline), SnapshotParams(model));
}

// ---------------------------------------------------------------------------
// Fault injection (always prefetch_depth = 0: FaultInjectingFileSystem is
// not thread-safe)
// ---------------------------------------------------------------------------

TEST(StreamTest, TornShardWriteFailsClosedAndLeavesNoPartialFile) {
  const std::string dir = TempDirFor("fault_torn");
  core::FaultSpec spec;
  spec.fail_write_at = 100;  // inside the first shard's image
  core::FaultInjectingFileSystem fs(spec);

  data::SyntheticLogGenerator generator(StreamProfile());
  data::ShardWriterConfig config;
  config.rows_per_shard = 192;
  config.fs = &fs;
  std::string error;
  EXPECT_FALSE(generator.GenerateToShards(dir, 1000, 1, config, &error));
  EXPECT_FALSE(error.empty());
  // AtomicWriteFile cleans up its tmp file, and neither the shard nor the
  // manifest may exist: the directory is simply not a dataset.
  EXPECT_FALSE(fs.Exists(dir + "/" + data::ShardFileName(0)));
  EXPECT_FALSE(fs.Exists(dir + "/" + data::kManifestFileName));
  data::StreamingDataset dataset;
  EXPECT_FALSE(data::StreamingDataset::Open(dir, {}, &dataset, &error));
}

TEST(StreamTest, TornManifestWriteLeavesDirectoryUnreadable) {
  const std::string dir = TempDirFor("fault_torn_manifest");
  data::SyntheticLogGenerator generator(StreamProfile());
  // 600 rows at 192/shard = 4 shard files; the 5th write is the manifest.
  core::FaultSpec spec;
  spec.fail_write_at = 10;
  spec.first_faulty_open = 4;
  core::FaultInjectingFileSystem fs(spec);
  data::ShardWriterConfig config;
  config.rows_per_shard = 192;
  config.fs = &fs;
  std::string error;
  EXPECT_FALSE(generator.GenerateToShards(dir, 600, 1, config, &error));
  EXPECT_TRUE(fs.Exists(dir + "/" + data::ShardFileName(3)));
  EXPECT_FALSE(fs.Exists(dir + "/" + data::kManifestFileName));
  data::StreamingDataset dataset;
  EXPECT_FALSE(data::StreamingDataset::Open(dir, {}, &dataset, &error));
}

TEST(StreamTest, InFlightByteFlipIsRejectedOnRead) {
  const std::string dir = TempDirFor("fault_flip");
  // Corrupt one byte of shard 0's payload as it is written; the manifest
  // (written later, fault applies per-file offset 512 which it never
  // reaches... so guard with first_faulty_open=0 but a large offset for
  // small manifest) — simplest: flip at an offset only shard files reach.
  core::FaultSpec spec;
  spec.flip_write_at = 512;
  spec.flip_mask = 0x20;
  core::FaultInjectingFileSystem fs(spec);
  data::SyntheticLogGenerator generator(StreamProfile());
  data::ShardWriterConfig config;
  config.rows_per_shard = 192;
  config.fs = &fs;
  std::string error;
  // The writer itself cannot see the corruption (it happens "on the wire").
  ASSERT_TRUE(generator.GenerateToShards(dir, 600, 1, config, &error)) << error;

  data::StreamingDataset dataset;
  // Open validates the manifest; whether it fails here or on first shard
  // read, the corruption must never decode. (The manifest is small enough
  // that offset 512 only ever lands in shard files.)
  if (data::StreamingDataset::Open(dir, {}, &dataset, &error)) {
    data::ShardColumns rows;
    EXPECT_FALSE(dataset.ReadShard(0, &rows, &error));
    EXPECT_FALSE(error.empty());

    Rng rng(9);
    data::StreamingBatcher batcher(&dataset, 96, &rng, 0);
    data::Batch batch;
    while (batcher.Next(&batch)) {
    }
    EXPECT_FALSE(batcher.ok());
    EXPECT_FALSE(batcher.error().empty());
  }
}

TEST(StreamTest, TruncatedFinalShardIsRejected) {
  const std::string dir = GenShardsOrDie("fault_truncate", 1000, 192);
  const std::string last = dir + "/" + data::ShardFileName(5);
  const std::string image = ReadFileOrDie(last);
  WriteFileOrDie(last, image.substr(0, image.size() - 7));

  const data::StreamingDataset dataset = OpenOrDie(dir);
  data::ShardColumns rows;
  std::string error;
  EXPECT_FALSE(dataset.ReadShard(5, &rows, &error));
  EXPECT_NE(error.find("malformed"), std::string::npos) << error;

  data::Dataset materialized;
  EXPECT_FALSE(dataset.Materialize(&materialized, &error));
}

TEST(StreamTest, MissingMiddleShardFailsAtOpen) {
  const std::string dir = GenShardsOrDie("fault_missing", 1000, 192);
  ASSERT_TRUE(
      core::FileSystem::Default()->Remove(dir + "/" + data::ShardFileName(2)));
  data::StreamingDataset dataset;
  std::string error;
  EXPECT_FALSE(data::StreamingDataset::Open(dir, {}, &dataset, &error));
  EXPECT_NE(error.find(data::ShardFileName(2)), std::string::npos) << error;
}

TEST(StreamTest, ShardSwapAcrossIndicesIsRejected) {
  // Both files are individually valid; serving shard 1's bytes for shard 2
  // must still fail (the header pins the shard index).
  const std::string dir = GenShardsOrDie("fault_swap", 1000, 192);
  const std::string a = ReadFileOrDie(dir + "/" + data::ShardFileName(1));
  WriteFileOrDie(dir + "/" + data::ShardFileName(2), a);
  const data::StreamingDataset dataset = OpenOrDie(dir);
  data::ShardColumns rows;
  std::string error;
  EXPECT_FALSE(dataset.ReadShard(2, &rows, &error));
  // Shard 1 itself still reads fine.
  error.clear();
  EXPECT_TRUE(dataset.ReadShard(1, &rows, &error)) << error;
}

TEST(StreamTest, ByteFlipFuzzerEveryOffsetRejectedShardAndManifest) {
  // Small dataset so the fuzz loop stays fast: 64 rows, 32/shard.
  const std::string dir = GenShardsOrDie("fault_fuzz", 64, 32);
  ExpectEveryShardAndManifestFlipRejected(OpenOrDie(dir), dir);
}

// ---------------------------------------------------------------------------
// Value checks: shards whose CRCs, header and footer sums are all valid but
// whose values could not have come from a well-formed log
// ---------------------------------------------------------------------------

/// One out-of-contract edit of a decoded shard; `column` and `what` are the
/// parts of "<path>: <column>: <what>" the rejection must carry. Label edits
/// move a 1 from one row to another so every label sum, and so the footer and
/// the manifest, still agree.
struct BadValueCase {
  const char* name;
  std::string column;
  const char* what;
  std::function<void(data::ShardColumns*)> mutate;
};

/// Index of the first row at or after `from` matching `pred`.
std::size_t FindRow(const data::ShardColumns& rows, std::size_t from,
                    const std::function<bool(std::size_t)>& pred) {
  for (std::size_t r = from; r < rows.click.size(); ++r) {
    if (pred(r)) return r;
  }
  ADD_FAILURE() << "no row matches";
  return 0;
}

std::vector<BadValueCase> BadValueCases(const data::FeatureSchema& schema) {
  const data::FieldSpec& deep = schema.deep_fields.back();
  const data::FieldSpec& wide = schema.wide_fields.front();
  return {
      {"deep id past vocab", "deep:" + deep.name, "id 1048576 is outside",
       [](data::ShardColumns* rows) { rows->deep_ids.back()[3] = 1 << 20; }},
      {"negative wide id", "wide:" + wide.name, "id -1 is outside",
       [](data::ShardColumns* rows) { rows->wide_ids.front()[5] = -1; }},
      {"click byte 2", "click", "label 2 is not 0 or 1",
       [](data::ShardColumns* rows) {
         const auto click_no_conversion = [rows](std::size_t r) {
           return rows->click[r] == 1 && rows->conversion[r] == 0;
         };
         const std::size_t a = FindRow(*rows, 0, click_no_conversion);
         const std::size_t b = FindRow(*rows, a + 1, click_no_conversion);
         rows->click[a] = 2;
         rows->click[b] = 0;
       }},
      {"conversion without click", "conversion", "conversion without a click",
       [](data::ShardColumns* rows) {
         const std::size_t a = FindRow(
             *rows, 0, [rows](std::size_t r) { return rows->click[r] == 0; });
         const std::size_t b = FindRow(*rows, 0, [rows](std::size_t r) {
           return rows->conversion[r] == 1;
         });
         rows->conversion[a] = 1;
         rows->conversion[b] = 0;
       }},
      {"oracle byte 2", "oracle_conversion", "label 2 is not 0 or 1",
       [](data::ShardColumns* rows) {
         const auto oracle = [rows](std::size_t r) {
           return rows->oracle_conversion[r] == 1;
         };
         const std::size_t a = FindRow(*rows, 0, oracle);
         const std::size_t b = FindRow(*rows, a + 1, oracle);
         rows->oracle_conversion[a] = 2;
         rows->oracle_conversion[b] = 0;
       }},
  };
}

TEST(StreamTest, ValidCrcShardWithBadValueIsRejected) {
  const std::string dir = GenShardsOrDie("bad_value", 1000, 192);
  const std::string victim = dir + "/" + data::ShardFileName(1);
  const std::string original = ReadFileOrDie(victim);
  const data::StreamingDataset dataset = OpenOrDie(dir);
  const data::ShardColumns clean = ReadColumnsOrDie(dataset, 1);
  std::string error;

  for (const BadValueCase& c : BadValueCases(dataset.schema())) {
    SCOPED_TRACE(c.name);
    data::ShardColumns rows = clean;
    c.mutate(&rows);
    WriteFileOrDie(victim, data::EncodeShardImage(dataset.schema(), 1, rows));
    const std::string want = victim + ": " + c.column + ": " + c.what;

    data::ShardColumns decoded;
    EXPECT_FALSE(data::ReadShardFile(nullptr, victim, dataset.manifest(), 1,
                                     &decoded, &error));
    EXPECT_EQ(error.rfind(want, 0), 0u) << error;
    EXPECT_EQ(decoded.size(), 0);
    EXPECT_TRUE(decoded.deep_ids.empty());

    for (const int depth : {0, 2}) {
      Rng rng(13);
      data::StreamingBatcher batcher(&dataset, 64, &rng, depth);
      data::Batch batch;
      while (batcher.Next(&batch)) {
      }
      EXPECT_FALSE(batcher.ok()) << "prefetch depth " << depth;
      EXPECT_EQ(batcher.error().rfind(want, 0), 0u) << batcher.error();
    }

    data::Dataset materialized;
    EXPECT_FALSE(dataset.Materialize(&materialized, &error));
    EXPECT_EQ(error.rfind(want, 0), 0u) << error;
  }
  WriteFileOrDie(victim, original);
  data::ShardColumns restored;
  EXPECT_TRUE(dataset.ReadShard(1, &restored, &error)) << error;
}

TEST(StreamTest, TrainerAbortNamesTheBadShard) {
  const std::string dir = GenShardsOrDie("bad_value_train", 600, 192);
  const std::string victim = dir + "/" + data::ShardFileName(1);
  const data::StreamingDataset dataset = OpenOrDie(dir);
  data::ShardColumns rows = ReadColumnsOrDie(dataset, 1);
  rows.deep_ids.back()[3] = 1 << 20;
  WriteFileOrDie(victim, data::EncodeShardImage(dataset.schema(), 1, rows));

  // Fails closed in the trainer's batch-source check, naming the shard,
  // before the bad id reaches an embedding lookup.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::ThreadPool::Global().SetNumThreads(1);
  EXPECT_DEATH(
      {
        core::Dcmt model(dataset.schema(), SmallModelConfig());
        Rng rng(StreamTrainConfig().seed);
        data::StreamingBatcher batcher(&dataset, 96, &rng, 0);
        eval::TrainFromSource(&model, &batcher, &rng, StreamTrainConfig());
      },
      "batch source failed: .*" + data::ShardFileName(1) + ": deep:");
}

TEST(StreamTest, ManifestWithNonPositiveVocabIsRejected) {
  const std::string dir = GenShardsOrDie("bad_vocab", 400, 192);
  data::ShardManifest manifest;
  std::string error;
  ASSERT_TRUE(data::ReadManifest(nullptr, dir, &manifest, &error)) << error;
  for (const int vocab : {0, -3}) {
    data::ShardManifest bad = manifest;
    bad.schema.wide_fields.back().vocab_size = vocab;
    bad.schema_fingerprint = data::FingerprintSchema(bad.schema);
    ASSERT_TRUE(data::WriteManifest(nullptr, dir, bad, &error)) << error;

    data::ShardManifest read;
    EXPECT_FALSE(data::ReadManifest(nullptr, dir, &read, &error));
    const std::string want = "wide:" + bad.schema.wide_fields.back().name +
                             ": vocab size " + std::to_string(vocab) +
                             " is not positive";
    EXPECT_NE(error.find(": " + want), std::string::npos) << error;
    data::StreamingDataset dataset;
    EXPECT_FALSE(data::StreamingDataset::Open(dir, {}, &dataset, &error));
  }
}

TEST(StreamTest, TrainerAbortsArePreemptedByFailClosedReads) {
  // A corrupted shard surfaces as !ok() on the batcher; the trainer turns
  // that into a loud abort (separately death-tested is overkill — here we
  // just confirm the batcher latches and stays latched).
  const std::string dir = GenShardsOrDie("fault_latch", 600, 192);
  const std::string victim = dir + "/" + data::ShardFileName(1);
  const std::string image = ReadFileOrDie(victim);
  std::string mutated = image;
  mutated[image.size() / 2] = static_cast<char>(mutated[image.size() / 2] ^ 0x10);
  WriteFileOrDie(victim, mutated);

  const data::StreamingDataset dataset = OpenOrDie(dir);
  Rng rng(13);
  data::StreamingBatcher batcher(&dataset, 64, &rng, 0);
  data::Batch batch;
  while (batcher.Next(&batch)) {
  }
  EXPECT_FALSE(batcher.ok());
  EXPECT_FALSE(batcher.error().empty());
  // Latched: even a Rewind-and-retry does not quietly resurrect it.
  batcher.Rewind();
  EXPECT_FALSE(batcher.Next(&batch));
  EXPECT_FALSE(batcher.ok());
}

// ---------------------------------------------------------------------------
// Prefetch shutdown wakeup (bugfix-sweep audit, core/prefetch.h)
// ---------------------------------------------------------------------------

TEST(PrefetchTest, CancelWakesProducerBlockedOnFullChannel) {
  // A producer stuck in Push against a full channel must be woken by
  // Cancel and observe the cancellation (Push returns false) — this is the
  // contract StreamingBatcher's destructor relies on to join its worker.
  core::BoundedChannel<int> channel(2);
  // dcmt-lint: allow(concurrency) — cross-thread assertion counter.
  std::atomic<int> pushed{0};
  // dcmt-lint: allow(concurrency) — cross-thread assertion flag.
  std::atomic<bool> last_push_result{true};
  // dcmt-lint: allow(concurrency) — the blocked-producer wakeup is the test.
  std::thread producer([&] {
    for (int i = 0; i < 3; ++i) {
      const bool ok = channel.Push(i);
      last_push_result.store(ok);
      if (!ok) return;
      pushed.fetch_add(1);
    }
  });
  // Wait until the first two pushes landed; the third is now blocked on the
  // full channel (or about to be — Cancel wakes it either way).
  while (pushed.load() < 2) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  channel.Cancel();
  producer.join();  // would hang forever if Cancel failed to wake Push
  EXPECT_EQ(pushed.load(), 2);
  EXPECT_FALSE(last_push_result.load());
  // Cancelled channels also refuse Pop, so no consumer can strand either.
  int value = 0;
  EXPECT_FALSE(channel.Pop(&value));
}

TEST(StreamTest, DestroyMidEpochJoinsBlockedPrefetchWorker) {
  // Many tiny shards + depth-1 prefetch: after one Next() the worker has
  // decoded ahead and is blocked pushing into the full channel. Destroying
  // the batcher at that point must cancel, wake, and join the worker — not
  // hang and not race shard decode against teardown.
  const std::string dir = GenShardsOrDie("destroy_mid_epoch", 600, 25);
  for (int round = 0; round < 5; ++round) {
    data::StreamingDataset streaming = OpenOrDie(dir);
    Rng rng(7);
    data::StreamingBatcher batcher(&streaming, 32, &rng, /*prefetch_depth=*/1);
    data::Batch batch;
    ASSERT_TRUE(batcher.Next(&batch));
    // Give the worker time to fill the channel and block on the next push.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    // Batcher destroyed here with the pipeline mid-flight.
  }
}

}  // namespace
}  // namespace dcmt
