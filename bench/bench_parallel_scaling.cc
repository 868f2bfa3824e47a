// Thread-scaling benchmarks of the parallel runtime: the cost of one pool
// dispatch, matmul forward and forward+backward (a 512x128x128 GEMM and the
// two AE-ES tower layers), the full DCMT train step, its optimizer tail
// (gradient clip + Adam), and concurrent
// experiment repeats, each at 1/2/4/N threads (N = hardware_concurrency
// when > 4). Real (wall-clock) time is the measured quantity — that is what
// kernel parallelism buys.
//
// tools/run_tier1.sh pipes this binary's JSON output through
// tools/bench_to_json to produce the machine-readable BENCH_engine.json at
// the repo root; future PRs extend that trajectory rather than replace it.

#include <benchmark/benchmark.h>

#include <functional>
#include <thread>

#include "core/dcmt.h"
#include "core/thread_pool.h"
#include "data/batcher.h"
#include "data/profiles.h"
#include "eval/experiment.h"
#include "optim/adam.h"
#include "tensor/ops.h"

namespace {

using namespace dcmt;

/// 1, 2, 4 and (if larger) every hardware thread.
void ThreadArgs(benchmark::internal::Benchmark* b) {
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  for (int t : {1, 2, 4}) b->Arg(t);
  if (hw > 4) b->Arg(hw);
}

/// One no-op RunShards over every thread: the pure hand-off cost that a
/// kernel chunk must outweigh (DESIGN.md §9). Back-to-back dispatches find
/// the workers spinning; time per iteration is microseconds per dispatch.
void BM_PoolDispatch(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  core::ThreadPool::Global().SetNumThreads(threads);
  const std::function<void(int)> noop = [](int shard) {
    benchmark::DoNotOptimize(shard);
  };
  for (auto _ : state) core::ThreadPool::Global().RunShards(threads, noop);
  core::ThreadPool::Global().SetNumThreads(1);
}
BENCHMARK(BM_PoolDispatch)->Apply(ThreadArgs)->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// Tower-shaped GEMMs of a 1024-row training batch: layer 1 (AE-ES tower
// input, 7 deep fields x 16 = 112 wide, to 64) and layer 2 (64 to 32). At
// the matmul grain each splits four ways forward and in both backward
// products. Items are forward multiply-adds.

void TowerMatMulForward(benchmark::State& state, int k, int n) {
  const int threads = static_cast<int>(state.range(0));
  core::ThreadPool::Global().SetNumThreads(threads);
  Rng rng(3);
  const Tensor a = Tensor::Randn(1024, k, 1.0f, &rng);
  const Tensor b = Tensor::Randn(k, n, 0.1f, &rng);
  for (auto _ : state) {
    Tensor c = ops::MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 1024LL * k * n);
  core::ThreadPool::Global().SetNumThreads(1);
}

void TowerMatMulForwardBackward(benchmark::State& state, int k, int n) {
  const int threads = static_cast<int>(state.range(0));
  core::ThreadPool::Global().SetNumThreads(threads);
  Rng rng(4);
  Tensor a = Tensor::Randn(1024, k, 1.0f, &rng, /*requires_grad=*/true);
  Tensor b = Tensor::Randn(k, n, 0.1f, &rng, /*requires_grad=*/true);
  const Tensor upstream = Tensor::Randn(1024, n, 1.0f, &rng);
  for (auto _ : state) {
    a.ZeroGrad();
    b.ZeroGrad();
    ops::WeightedSum(ops::MatMul(a, b), upstream).Backward();
    benchmark::DoNotOptimize(b.grad());
  }
  state.SetItemsProcessed(state.iterations() * 1024LL * k * n);
  core::ThreadPool::Global().SetNumThreads(1);
}

void BM_MatMulTowerLayer1Forward(benchmark::State& state) {
  TowerMatMulForward(state, 112, 64);
}
BENCHMARK(BM_MatMulTowerLayer1Forward)->Apply(ThreadArgs)->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_MatMulTowerLayer1ForwardBackward(benchmark::State& state) {
  TowerMatMulForwardBackward(state, 112, 64);
}
BENCHMARK(BM_MatMulTowerLayer1ForwardBackward)->Apply(ThreadArgs)
    ->UseRealTime()->Unit(benchmark::kMicrosecond);

void BM_MatMulTowerLayer2Forward(benchmark::State& state) {
  TowerMatMulForward(state, 64, 32);
}
BENCHMARK(BM_MatMulTowerLayer2Forward)->Apply(ThreadArgs)->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_MatMulTowerLayer2ForwardBackward(benchmark::State& state) {
  TowerMatMulForwardBackward(state, 64, 32);
}
BENCHMARK(BM_MatMulTowerLayer2ForwardBackward)->Apply(ThreadArgs)
    ->UseRealTime()->Unit(benchmark::kMicrosecond);

void BM_MatMulForward(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  core::ThreadPool::Global().SetNumThreads(threads);
  Rng rng(1);
  Tensor a = Tensor::Randn(512, 128, 1.0f, &rng);
  Tensor b = Tensor::Randn(128, 128, 1.0f, &rng);
  for (auto _ : state) {
    Tensor c = ops::MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 512LL * 128 * 128);
  core::ThreadPool::Global().SetNumThreads(1);
}
BENCHMARK(BM_MatMulForward)->Apply(ThreadArgs)->UseRealTime();

void BM_MatMulForwardBackward(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  core::ThreadPool::Global().SetNumThreads(threads);
  Rng rng(2);
  Tensor x = Tensor::Randn(512, 128, 1.0f, &rng);
  Tensor w = Tensor::Randn(128, 128, 0.1f, &rng, /*requires_grad=*/true);
  for (auto _ : state) {
    w.ZeroGrad();
    Tensor loss = ops::Mean(ops::Square(ops::MatMul(x, w)));
    loss.Backward();
    benchmark::DoNotOptimize(w.grad());
  }
  core::ThreadPool::Global().SetNumThreads(1);
}
BENCHMARK(BM_MatMulForwardBackward)->Apply(ThreadArgs)->UseRealTime();

void BM_DcmtTrainStep(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  core::ThreadPool::Global().SetNumThreads(threads);
  data::DatasetProfile profile = data::AeEsProfile();
  profile.train_exposures = 4096;
  data::SyntheticLogGenerator generator(profile);
  const data::Dataset train = generator.GenerateTrain();

  models::ModelConfig config;
  core::Dcmt model(train.schema(), config);
  optim::Adam adam(model.parameters(), 1e-3f);
  const data::Batch batch = data::MakeContiguousBatch(train, 0, 1024);

  for (auto _ : state) {
    adam.ZeroGrad();
    models::Predictions preds = model.Forward(batch);
    Tensor loss = model.Loss(batch, preds);
    loss.Backward();
    adam.Step();
    benchmark::DoNotOptimize(loss.item());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
  core::ThreadPool::Global().SetNumThreads(1);
}
BENCHMARK(BM_DcmtTrainStep)->Apply(ThreadArgs)->UseRealTime();

/// The optimizer tail of a train step: ClipGradNorm(10) + Adam::Step over
/// the AE-ES DCMT parameter set, on the gradients of one 1024-row backward.
/// At these gradients the norm stays under 10, so the clip is the norm pass
/// alone, as in training. Items are parameter elements updated.
void BM_OptimizerTail(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  core::ThreadPool::Global().SetNumThreads(threads);
  data::DatasetProfile profile = data::AeEsProfile();
  profile.train_exposures = 4096;
  data::SyntheticLogGenerator generator(profile);
  const data::Dataset train = generator.GenerateTrain();

  models::ModelConfig config;
  core::Dcmt model(train.schema(), config);
  optim::Adam adam(model.parameters(), 1e-3f);
  const data::Batch batch = data::MakeContiguousBatch(train, 0, 1024);
  adam.ZeroGrad();
  model.Loss(batch, model.Forward(batch)).Backward();
  std::int64_t elements = 0;
  for (const Tensor& p : adam.params()) {
    if (p.has_grad()) elements += p.size();
  }

  for (auto _ : state) {
    benchmark::DoNotOptimize(adam.ClipGradNorm(10.0f));
    adam.Step();
  }
  state.SetItemsProcessed(state.iterations() * elements);
  core::ThreadPool::Global().SetNumThreads(1);
}
BENCHMARK(BM_OptimizerTail)->Apply(ThreadArgs)->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_ExperimentRepeats(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  core::ThreadPool::Global().SetNumThreads(threads);
  data::DatasetProfile profile = data::AeEsProfile();
  profile.train_exposures = 4096;
  profile.test_exposures = 2048;
  data::SyntheticLogGenerator generator(profile);
  const data::Dataset train = generator.GenerateTrain();
  const data::Dataset test = generator.GenerateTest();
  models::ModelConfig mc;
  eval::TrainConfig tc;
  tc.epochs = 1;
  for (auto _ : state) {
    const eval::ExperimentResult r = eval::RunOfflineExperiment(
        "dcmt", train, test, mc, tc, /*repeats=*/4);
    benchmark::DoNotOptimize(r.cvr_auc);
  }
  core::ThreadPool::Global().SetNumThreads(1);
}
BENCHMARK(BM_ExperimentRepeats)->Apply(ThreadArgs)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
