// Serving-path performance (DESIGN.md §13).
//
// Compares the tape-free serving forward (serve::FrozenModel::ScoreBatch,
// which runs under an InferenceGuard and builds no tape) with the
// taped training Forward on per-row latency for the same rows;
// tools/run_tier1.sh records the comparison and gates nothing on it. Tape
// overhead is per *op*, not per row, so the comparison is run at two batch
// sizes: 32 rows (partial-batch scale, where the per-op saving is a
// measurable fraction of the batch) and 256 rows (the engine's default
// max_batch, where kernel time dominates and the two paths converge).
// BM_ScoreRowsFrozen times the frozen forward alone at the 1-8 rows a
// served batch actually holds. The engine benchmark adds the
// micro-batcher's queue + future overhead on top so the full
// Submit→Score→fulfill path has a tracked number too. All entries fold into
// BENCH_engine.json via tools/bench_to_json.

#include <benchmark/benchmark.h>

#include "core/dcmt.h"
#include "core/thread_pool.h"
#include "data/batcher.h"
#include "data/generator.h"
#include "data/profiles.h"
#include "serve/engine.h"
#include "serve/frozen_model.h"

namespace dcmt {
namespace {

constexpr int kMicroRows = 32;   // partial-batch scale micro-batch
constexpr int kFullRows = 256;   // EngineConfig::max_batch default

data::SyntheticLogGenerator& Generator() {
  static data::SyntheticLogGenerator generator([] {
    data::DatasetProfile profile = data::AeEsProfile();
    profile.train_exposures = 4096;
    return profile;
  }());
  return generator;
}

const data::Dataset& TestRows() {
  static const data::Dataset dataset = Generator().GenerateTrain();
  return dataset;
}

/// Taped baseline: the training-path Forward, autograd bookkeeping and all.
void ScoreTaped(benchmark::State& state, int rows) {
  core::ThreadPool::Global().SetNumThreads(1);
  core::Dcmt model(TestRows().schema(), models::ModelConfig{});
  const data::Batch batch = data::MakeContiguousBatch(TestRows(), 0, rows);
  for (auto _ : state) {
    const models::Predictions preds = model.Forward(batch);
    benchmark::DoNotOptimize(preds.ctcvr.at(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * rows);
}

/// Tape-free serving forward: same model, same rows, no graph.
void ScoreFrozen(benchmark::State& state, int rows) {
  core::ThreadPool::Global().SetNumThreads(1);
  auto model = std::make_unique<core::Dcmt>(TestRows().schema(),
                                            models::ModelConfig{});
  const serve::FrozenModel frozen(std::move(model), TestRows().schema());
  const data::Batch batch = data::MakeContiguousBatch(TestRows(), 0, rows);
  for (auto _ : state) {
    const serve::ScoreColumns scores = frozen.ScoreBatch(batch);
    benchmark::DoNotOptimize(scores.pctcvr[0]);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}

void BM_ScoreMicroBatchTaped(benchmark::State& state) {
  ScoreTaped(state, kMicroRows);
}
BENCHMARK(BM_ScoreMicroBatchTaped)->UseRealTime();

void BM_ScoreMicroBatchFrozen(benchmark::State& state) {
  ScoreFrozen(state, kMicroRows);
}
BENCHMARK(BM_ScoreMicroBatchFrozen)->UseRealTime();

void BM_ScoreBatchTaped(benchmark::State& state) {
  ScoreTaped(state, kFullRows);
}
BENCHMARK(BM_ScoreBatchTaped)->UseRealTime();

void BM_ScoreBatchFrozen(benchmark::State& state) {
  ScoreFrozen(state, kFullRows);
}
BENCHMARK(BM_ScoreBatchFrozen)->UseRealTime();

/// The batch sizes the serving engine actually sees: a work-conserving
/// dispatcher flushes whatever is queued, 1-2 rows on average under
/// e2ebench's serve_open load. At this size the forward's fixed per-layer
/// costs, not its multiply-adds, set the latency.
void BM_ScoreRowsFrozen(benchmark::State& state) {
  ScoreFrozen(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_ScoreRowsFrozen)
    ->ArgName("rows")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

/// Full engine path: per-row Submit into the micro-batcher, bulk-waited.
/// Measures queue/future overhead on top of the frozen forward.
void BM_EngineScoreAll(benchmark::State& state) {
  core::ThreadPool::Global().SetNumThreads(1);
  auto model = std::make_unique<core::Dcmt>(TestRows().schema(),
                                            models::ModelConfig{});
  const serve::FrozenModel frozen(std::move(model), TestRows().schema());
  std::vector<data::Example> rows;
  rows.reserve(kFullRows);
  for (int i = 0; i < kFullRows; ++i) {
    rows.push_back(TestRows().examples()[static_cast<std::size_t>(i)]);
  }
  serve::EngineConfig config;
  config.max_batch = kFullRows;
  serve::Engine engine(&frozen, config);
  for (auto _ : state) {
    const std::vector<serve::Score> scores = engine.ScoreAll(rows);
    benchmark::DoNotOptimize(scores[0].pctcvr);
  }
  state.SetItemsProcessed(state.iterations() * kFullRows);
}
BENCHMARK(BM_EngineScoreAll)->UseRealTime();

}  // namespace
}  // namespace dcmt

BENCHMARK_MAIN();
