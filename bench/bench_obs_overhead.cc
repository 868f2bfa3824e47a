// Overhead of the observability layer on a training step (DESIGN.md §12).
//
// With obs disabled (the default for every training/serving process that
// does not pass --metrics-out/--trace-out) each recording site is one relaxed
// atomic load and a branch; with it enabled the wired step should stay
// within 2% of the disabled one. BM_DcmtTrainStepObs below measures the same
// training step (the BM_DcmtTrainStep workload from bench_parallel_scaling)
// with recording off and on, alternating step by step, and reports the gap
// as its on_vs_off_pct counter; tools/bench_to_json folds that into the
// obs_overhead entry of BENCH_engine.json. The figure is reported, not gated.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "core/dcmt.h"
#include "core/obs.h"
#include "core/thread_pool.h"
#include "data/batcher.h"
#include "data/generator.h"
#include "data/profiles.h"
#include "optim/adam.h"

namespace dcmt {
namespace {

double Median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// One full optimizer step on a fixed 1024-row batch per mode and iteration,
/// single-threaded so the measurement isolates per-call recording cost rather
/// than pool dispatch. Off and on steps alternate, so host drift hits both
/// modes alike: two back-to-back runs of one mode each spread by more than
/// the ~1% being measured. Manual time is the on step; counters carry the
/// median off and on step times and their gap.
void BM_DcmtTrainStepObs(benchmark::State& state) {
  core::ThreadPool::Global().SetNumThreads(1);
  data::DatasetProfile profile = data::AeEsProfile();
  profile.train_exposures = 4096;
  data::SyntheticLogGenerator generator(profile);
  const data::Dataset train = generator.GenerateTrain();

  models::ModelConfig config;
  core::Dcmt model(train.schema(), config);
  optim::Adam adam(model.parameters(), 1e-3f);
  const data::Batch batch = data::MakeContiguousBatch(train, 0, 1024);

  std::vector<double> step_us[2];  // [0] obs off, [1] obs on
  for (auto _ : state) {
    for (int on = 0; on < 2; ++on) {
      obs::SetEnabled(on == 1);
      const auto start = std::chrono::steady_clock::now();
      adam.ZeroGrad();
      models::Predictions preds = model.Forward(batch);
      Tensor loss = model.Loss(batch, preds);
      loss.Backward();
      adam.Step();
      benchmark::DoNotOptimize(loss.item());
      step_us[on].push_back(std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - start)
                                .count());
    }
    state.SetIterationTime(step_us[1].back() * 1e-6);
  }
  obs::SetEnabled(false);
  obs::Registry::Global().ResetForTesting();

  const double off_us = Median(step_us[0]);
  const double on_us = Median(step_us[1]);
  state.counters["off_us"] = off_us;
  state.counters["on_us"] = on_us;
  state.counters["on_vs_off_pct"] = (on_us - off_us) / off_us * 100.0;
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_DcmtTrainStepObs)->UseManualTime()->MinTime(2.0);

}  // namespace
}  // namespace dcmt

BENCHMARK_MAIN();
