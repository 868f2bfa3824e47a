// Streaming data path performance (DESIGN.md §15).
//
// The numbers behind the out-of-core design:
//   * ShardWrite / ShardDecode — MB/s through the columnar shard codec
//     (encode includes the CRC framing; decode includes the full fail-closed
//     validation chain, which is the honest cost of every production read);
//   * StreamingEpoch at prefetch 0 vs 2 — one full epoch drained through
//     StreamingBatcher::Next. At prefetch 0 the consumer thread decodes
//     shards and gathers batches itself; at prefetch 2 the worker does both
//     and Next pops finished batches, so the epoch time is the worker's
//     throughput (nothing else runs between calls);
//   * StreamingNextAtTrainGeometry — what a training step sees: the
//     consumer-thread time of each Next at e2ebench's geometry (65,536-row
//     shards, 1024-row batches, prefetch 2), with a 32 MB cache sweep
//     between calls standing in for the step's forward and backward.
//
// All entries fold into BENCH_engine.json via tools/bench_to_json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/io.h"
#include "core/thread_pool.h"
#include "data/batcher.h"
#include "data/generator.h"
#include "data/profiles.h"
#include "data/shard.h"
#include "data/stream.h"
#include "tensor/random.h"

namespace dcmt {
namespace {

constexpr std::int64_t kRows = 65536;
constexpr std::int64_t kRowsPerShard = 8192;

data::SyntheticLogGenerator& Generator() {
  static data::SyntheticLogGenerator generator([] {
    data::DatasetProfile profile = data::AeEsProfile();
    profile.train_exposures = kRows;
    return profile;
  }());
  return generator;
}

/// A shard directory with kRows rows, generated once per process.
const std::string& ShardDir() {
  static const std::string dir = [] {
    const std::string path = "/tmp/dcmt_bench_stream_shards";
    data::ShardWriterConfig config;
    config.rows_per_shard = kRowsPerShard;
    std::string error;
    if (!Generator().GenerateToShards(path, kRows, /*stream=*/1, config,
                                      &error)) {
      std::fprintf(stderr, "bench_stream: %s\n", error.c_str());
      std::abort();
    }
    return path;
  }();
  return dir;
}

void BM_ShardEncode(benchmark::State& state) {
  const data::FeatureSchema schema = Generator().Schema();
  data::StreamingDataset dataset;
  data::ShardColumns columns;
  std::string error;
  if (!data::StreamingDataset::Open(ShardDir(), {}, &dataset, &error) ||
      !dataset.ReadShard(0, &columns, &error)) {
    std::fprintf(stderr, "bench_stream: %s\n", error.c_str());
    std::abort();
  }
  std::string image;
  for (auto _ : state) {
    image = data::EncodeShardImage(schema, /*shard_index=*/0, columns);
    benchmark::DoNotOptimize(image.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(image.size()));
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kRowsPerShard),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShardEncode)->Unit(benchmark::kMillisecond);

void BM_ShardDecode(benchmark::State& state) {
  const std::string& dir = ShardDir();
  data::ShardManifest manifest;
  std::string error;
  if (!data::ReadManifest(nullptr, dir, &manifest, &error)) std::abort();
  const std::string path = dir + "/" + data::ShardFileName(0);
  data::ShardColumns columns;
  std::int64_t bytes = 0;
  for (auto _ : state) {
    if (!data::ReadShardFile(nullptr, path, manifest, /*shard_index=*/0,
                             &columns, &error)) {
      std::fprintf(stderr, "bench_stream: %s\n", error.c_str());
      std::abort();
    }
    benchmark::DoNotOptimize(columns.click.data());
  }
  {
    // Size the throughput by the on-disk image (decode reads every byte).
    std::string image;
    std::unique_ptr<core::FileReader> reader =
        core::FileSystem::Default()->OpenForRead(path);
    if (reader != nullptr && reader->ReadAll(&image)) {
      bytes = static_cast<std::int64_t>(image.size());
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * bytes);
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * columns.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShardDecode)->Unit(benchmark::kMillisecond);

/// One full epoch of batch assembly through the StreamingBatcher at the
/// given prefetch depth. depth 0 = serial decode (the baseline the overlap
/// ratio is measured against).
void StreamingEpoch(benchmark::State& state, int prefetch_depth) {
  core::ThreadPool::Global().SetNumThreads(1);
  data::StreamingDataset dataset;
  std::string error;
  if (!data::StreamingDataset::Open(ShardDir(), {}, &dataset, &error)) {
    std::fprintf(stderr, "bench_stream: %s\n", error.c_str());
    std::abort();
  }
  for (auto _ : state) {
    Rng rng(7);
    data::StreamingBatcher batcher(&dataset, 1024, &rng, prefetch_depth);
    data::Batch batch;
    std::int64_t rows = 0;
    while (batcher.Next(&batch)) rows += batch.size;
    if (rows != dataset.size() || !batcher.ok()) std::abort();
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          dataset.size());
}

void BM_StreamingEpochNoPrefetch(benchmark::State& state) {
  StreamingEpoch(state, /*prefetch_depth=*/0);
}
BENCHMARK(BM_StreamingEpochNoPrefetch)->Unit(benchmark::kMillisecond);

void BM_StreamingEpochPrefetch2(benchmark::State& state) {
  StreamingEpoch(state, /*prefetch_depth=*/2);
}
BENCHMARK(BM_StreamingEpochPrefetch2)->Unit(benchmark::kMillisecond);

constexpr std::int64_t kTrainShardRows = 65536;
constexpr int kTrainBatchRows = 1024;

/// Three shards at e2ebench's shard size, generated once per process.
const std::string& TrainGeometryDir() {
  static const std::string dir = [] {
    const std::string path = "/tmp/dcmt_bench_stream_train_shards";
    data::ShardWriterConfig config;
    config.rows_per_shard = kTrainShardRows;
    std::string error;
    if (!Generator().GenerateToShards(path, 3 * kTrainShardRows, /*stream=*/2,
                                      config, &error)) {
      std::fprintf(stderr, "bench_stream: %s\n", error.c_str());
      std::abort();
    }
    return path;
  }();
  return dir;
}

/// One epoch at e2ebench's geometry. Only the Next calls are timed (manual
/// time); between them a 32 MB sweep evicts the caches the way a train
/// step does and gives the prefetch worker a step's worth of time.
void BM_StreamingNextAtTrainGeometry(benchmark::State& state) {
  data::StreamingDataset dataset;
  std::string error;
  if (!data::StreamingDataset::Open(TrainGeometryDir(), {}, &dataset,
                                    &error)) {
    std::fprintf(stderr, "bench_stream: %s\n", error.c_str());
    std::abort();
  }
  std::vector<char> sweep(32u << 20, 1);
  std::vector<double> next_s_all;
  for (auto _ : state) {
    Rng rng(7);
    data::StreamingBatcher batcher(&dataset, kTrainBatchRows, &rng,
                                   /*prefetch_depth=*/2);
    data::Batch batch;
    double epoch_s = 0.0;
    for (;;) {
      const auto t0 = std::chrono::steady_clock::now();
      const bool more = batcher.Next(&batch);
      const double next_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
      if (!more) break;
      epoch_s += next_s;
      next_s_all.push_back(next_s);
      for (std::size_t i = 0; i < sweep.size(); i += 64) ++sweep[i];
      benchmark::DoNotOptimize(sweep.data());
    }
    if (!batcher.ok()) std::abort();
    state.SetIterationTime(epoch_s);
  }
  // The mean carries each epoch's wait for its first shard; the median is
  // the steady-state hand-over.
  double total_s = 0.0;
  for (const double s : next_s_all) total_s += s;
  std::sort(next_s_all.begin(), next_s_all.end());
  state.counters["next_us_mean"] =
      total_s / static_cast<double>(next_s_all.size()) * 1e6;
  state.counters["next_us_p50"] = next_s_all[next_s_all.size() / 2] * 1e6;
  state.counters["next_us_max"] = next_s_all.back() * 1e6;
}
BENCHMARK(BM_StreamingNextAtTrainGeometry)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dcmt

BENCHMARK_MAIN();
