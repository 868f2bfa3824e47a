// Per-kernel microbenchmarks of the SIMD tensor layer (DESIGN.md §14):
// the GEMM and both of its backward products at the exact shapes the
// default towers run (ModelConfig hidden_dims {64, 32} on the AE-ES schema
// at batch 1024), the vectorized elementwise family, and each fused op (the
// Dense tower layer included) next to the unfused composite it replaces —
// so BENCH_engine.json reports the fusion win per kernel.
//
// tools/run_tier1.sh folds this binary's JSON output into BENCH_engine.json
// via tools/bench_to_json alongside the scaling/obs/serve benches.

#include <benchmark/benchmark.h>

#include "data/profiles.h"
#include "data/schema.h"
#include "models/multi_task_model.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace {

using namespace dcmt;

constexpr int kBatch = 1024;

/// Deep-tower input width on the default AE-ES schema: #deep fields times
/// the default embedding dim.
int TowerInputWidth() {
  static const int width = [] {
    const data::FeatureSchema schema =
        data::SyntheticLogGenerator(data::AeEsProfile()).Schema();
    return static_cast<int>(schema.deep_fields.size()) *
           models::ModelConfig().embedding_dim;
  }();
  return width;
}

// --- GEMM at the actual tower shapes -----------------------------------------

void TowerMatMul(benchmark::State& state, int m, int k, int n) {
  Rng rng(1);
  Tensor a = Tensor::Randn(m, k, 1.0f, &rng);
  Tensor b = Tensor::Randn(k, n, 1.0f, &rng);
  for (auto _ : state) {
    Tensor c = ops::MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m) *
                          k * n);
}

void BM_MatMulTowerLayer1(benchmark::State& state) {
  TowerMatMul(state, kBatch, TowerInputWidth(), 64);
}
BENCHMARK(BM_MatMulTowerLayer1);

void BM_MatMulTowerLayer2(benchmark::State& state) {
  TowerMatMul(state, kBatch, 64, 32);
}
BENCHMARK(BM_MatMulTowerLayer2);

void BM_MatMulTowerHead(benchmark::State& state) {
  TowerMatMul(state, kBatch, 32, 1);
}
BENCHMARK(BM_MatMulTowerHead);

// --- Backward GEMMs at the tower shapes --------------------------------------
// Each row runs MatMul's backward closure for one gradient only (the other
// operand does not require grad): dA += dC·Bᵀ or dB += Aᵀ·dC. The graph is
// built once and Backward() re-run per iteration (gradients keep
// accumulating, which the kernels do anyway); the WeightedSum node above the
// matmul hands it a fixed upstream gradient at O(m·n) extra cost. Items are
// multiply-adds, so items_per_second reads as MACs/s.

void TowerMatMulGrad(benchmark::State& state, int m, int k, int n,
                     bool grad_a) {
  Rng rng(7);
  Tensor a = Tensor::Randn(m, k, 1.0f, &rng, /*requires_grad=*/grad_a);
  Tensor b = Tensor::Randn(k, n, 1.0f, &rng, /*requires_grad=*/!grad_a);
  const Tensor dc = Tensor::Randn(m, n, 1.0f, &rng);
  Tensor loss = ops::WeightedSum(ops::MatMul(a, b), dc);
  for (auto _ : state) {
    loss.Backward();
    benchmark::DoNotOptimize(grad_a ? a.grad() : b.grad());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m) *
                          k * n);
}

void BM_MatMulGradATowerLayer1(benchmark::State& state) {
  TowerMatMulGrad(state, kBatch, TowerInputWidth(), 64, /*grad_a=*/true);
}
BENCHMARK(BM_MatMulGradATowerLayer1);

void BM_MatMulGradBTowerLayer1(benchmark::State& state) {
  TowerMatMulGrad(state, kBatch, TowerInputWidth(), 64, /*grad_a=*/false);
}
BENCHMARK(BM_MatMulGradBTowerLayer1);

void BM_MatMulGradATowerLayer2(benchmark::State& state) {
  TowerMatMulGrad(state, kBatch, 64, 32, /*grad_a=*/true);
}
BENCHMARK(BM_MatMulGradATowerLayer2);

void BM_MatMulGradBTowerLayer2(benchmark::State& state) {
  TowerMatMulGrad(state, kBatch, 64, 32, /*grad_a=*/false);
}
BENCHMARK(BM_MatMulGradBTowerLayer2);

void BM_MatMulGradATowerHead(benchmark::State& state) {
  TowerMatMulGrad(state, kBatch, 32, 1, /*grad_a=*/true);
}
BENCHMARK(BM_MatMulGradATowerHead);

void BM_MatMulGradBTowerHead(benchmark::State& state) {
  TowerMatMulGrad(state, kBatch, 32, 1, /*grad_a=*/false);
}
BENCHMARK(BM_MatMulGradBTowerHead);

// --- Vectorized elementwise family -------------------------------------------

void Elementwise(benchmark::State& state, Tensor (*op)(const Tensor&)) {
  Rng rng(2);
  Tensor x = Tensor::Uniform(512, 128, -4.0f, 4.0f, &rng);
  for (auto _ : state) {
    Tensor y = op(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * x.size());
}

void BM_Sigmoid(benchmark::State& state) { Elementwise(state, ops::Sigmoid); }
BENCHMARK(BM_Sigmoid);
void BM_Tanh(benchmark::State& state) { Elementwise(state, ops::Tanh); }
BENCHMARK(BM_Tanh);
void BM_Exp(benchmark::State& state) { Elementwise(state, ops::Exp); }
BENCHMARK(BM_Exp);
void BM_Softplus(benchmark::State& state) { Elementwise(state, ops::Softplus); }
BENCHMARK(BM_Softplus);
void BM_Relu(benchmark::State& state) { Elementwise(state, ops::Relu); }
BENCHMARK(BM_Relu);

// --- Fused vs unfused pairs --------------------------------------------------
// Each pair runs the identical computation; the *_Unfused variant builds the
// intermediate tensors the fused kernel eliminates.

void BM_SigmoidBceFused(benchmark::State& state) {
  Rng rng(3);
  Tensor z = Tensor::Uniform(kBatch, 1, -4.0f, 4.0f, &rng);
  Tensor y = Tensor::Uniform(kBatch, 1, 0.0f, 1.0f, &rng);
  for (auto _ : state) {
    Tensor loss = ops::SigmoidBce(z, y);
    benchmark::DoNotOptimize(loss.data());
  }
}
BENCHMARK(BM_SigmoidBceFused);

void BM_SigmoidBceUnfused(benchmark::State& state) {
  Rng rng(3);
  Tensor z = Tensor::Uniform(kBatch, 1, -4.0f, 4.0f, &rng);
  Tensor y = Tensor::Uniform(kBatch, 1, 0.0f, 1.0f, &rng);
  for (auto _ : state) {
    Tensor loss = ops::BceLoss(ops::Sigmoid(z), y);
    benchmark::DoNotOptimize(loss.data());
  }
}
BENCHMARK(BM_SigmoidBceUnfused);

/// One tower layer relu(x W + b), forward and backward with x, W and b all
/// requiring grad (x stands for the embedding activations, which do): the
/// fused ops::Dense node against the MatMul + Add + Relu composite it
/// replaces, bit-identical in values and gradients. Items are forward
/// multiply-adds.
void DenseLayer(benchmark::State& state, int k, int n, bool fused) {
  Rng rng(5);
  Tensor x = Tensor::Randn(kBatch, k, 1.0f, &rng, /*requires_grad=*/true);
  Tensor w = Tensor::Randn(k, n, 0.1f, &rng, /*requires_grad=*/true);
  Tensor b = Tensor::Randn(1, n, 0.1f, &rng, /*requires_grad=*/true);
  const Tensor dy = Tensor::Randn(kBatch, n, 1.0f, &rng);
  for (auto _ : state) {
    const Tensor y = fused ? ops::Dense(x, w, b, /*relu=*/true)
                           : ops::Relu(ops::Add(ops::MatMul(x, w), b));
    ops::WeightedSum(y, dy).Backward();
    benchmark::DoNotOptimize(w.grad());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kBatch *
                          static_cast<std::int64_t>(k) * n);
}

void BM_DenseTowerLayer1ForwardBackward(benchmark::State& state) {
  DenseLayer(state, TowerInputWidth(), 64, /*fused=*/true);
}
BENCHMARK(BM_DenseTowerLayer1ForwardBackward);

void BM_DenseTowerLayer1ForwardBackwardUnfused(benchmark::State& state) {
  DenseLayer(state, TowerInputWidth(), 64, /*fused=*/false);
}
BENCHMARK(BM_DenseTowerLayer1ForwardBackwardUnfused);

void BM_DenseTowerLayer2ForwardBackward(benchmark::State& state) {
  DenseLayer(state, 64, 32, /*fused=*/true);
}
BENCHMARK(BM_DenseTowerLayer2ForwardBackward);

void BM_DenseTowerLayer2ForwardBackwardUnfused(benchmark::State& state) {
  DenseLayer(state, 64, 32, /*fused=*/false);
}
BENCHMARK(BM_DenseTowerLayer2ForwardBackwardUnfused);

/// The 1-unit head's forward, x W + b at n = 1; compare BM_MatMulTowerHead,
/// the bare GEMM the unfused head ran before its bias add.
void BM_DenseTowerHead(benchmark::State& state) {
  Rng rng(1);
  Tensor x = Tensor::Randn(kBatch, 32, 1.0f, &rng);
  Tensor w = Tensor::Randn(32, 1, 1.0f, &rng);
  Tensor b = Tensor::Randn(1, 1, 1.0f, &rng);
  for (auto _ : state) {
    Tensor y = ops::Dense(x, w, b, /*relu=*/false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatch * 32);
}
BENCHMARK(BM_DenseTowerHead);

/// AE-ES-like embedding workload: 8 fields, dim-16 tables, batch 1024.
struct EmbedFixture {
  std::vector<Tensor> tables;
  std::vector<std::vector<int>> ids;
  EmbedFixture() {
    Rng rng(4);
    const int fields = 8, vocab = 2000, dim = 16;
    for (int f = 0; f < fields; ++f) {
      tables.push_back(Tensor::Randn(vocab, dim, 0.1f, &rng));
      std::vector<int> field;
      for (int i = 0; i < kBatch; ++i) {
        field.push_back((i * 37 + f * 13) % vocab);
      }
      ids.push_back(std::move(field));
    }
  }
};

void BM_EmbeddingConcatFused(benchmark::State& state) {
  EmbedFixture fx;
  for (auto _ : state) {
    Tensor out = ops::EmbeddingConcat(fx.tables, fx.ids);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatch * 8 * 16);
}
BENCHMARK(BM_EmbeddingConcatFused);

void BM_EmbeddingConcatUnfused(benchmark::State& state) {
  EmbedFixture fx;
  for (auto _ : state) {
    Tensor out = ops::reference::EmbeddingConcat(fx.tables, fx.ids);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatch * 8 * 16);
}
BENCHMARK(BM_EmbeddingConcatUnfused);

void ReductionPair(benchmark::State& state, bool fused,
                   Tensor (*f)(const Tensor&), Tensor (*ref)(const Tensor&)) {
  Rng rng(5);
  Tensor a = Tensor::Uniform(512, 128, -1.0f, 1.0f, &rng);
  for (auto _ : state) {
    Tensor out = fused ? f(a) : ref(a);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * a.size());
}

void BM_MeanFused(benchmark::State& state) {
  ReductionPair(state, true, ops::Mean, ops::reference::Mean);
}
BENCHMARK(BM_MeanFused);
void BM_MeanUnfused(benchmark::State& state) {
  ReductionPair(state, false, ops::Mean, ops::reference::Mean);
}
BENCHMARK(BM_MeanUnfused);

void BM_SquaredNormFused(benchmark::State& state) {
  ReductionPair(state, true, ops::SquaredNorm, ops::reference::SquaredNorm);
}
BENCHMARK(BM_SquaredNormFused);
void BM_SquaredNormUnfused(benchmark::State& state) {
  ReductionPair(state, false, ops::SquaredNorm, ops::reference::SquaredNorm);
}
BENCHMARK(BM_SquaredNormUnfused);

void BM_WeightedSumFused(benchmark::State& state) {
  Rng rng(6);
  Tensor a = Tensor::Uniform(512, 128, -1.0f, 1.0f, &rng);
  Tensor w = Tensor::Uniform(512, 128, -1.0f, 1.0f, &rng);
  for (auto _ : state) {
    Tensor out = ops::WeightedSum(a, w);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * a.size());
}
BENCHMARK(BM_WeightedSumFused);

void BM_WeightedSumUnfused(benchmark::State& state) {
  Rng rng(6);
  Tensor a = Tensor::Uniform(512, 128, -1.0f, 1.0f, &rng);
  Tensor w = Tensor::Uniform(512, 128, -1.0f, 1.0f, &rng);
  for (auto _ : state) {
    Tensor out = ops::reference::WeightedSum(a, w);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * a.size());
}
BENCHMARK(BM_WeightedSumUnfused);

}  // namespace

BENCHMARK_MAIN();
