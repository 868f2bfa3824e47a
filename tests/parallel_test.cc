// Determinism and correctness suite for the parallel runtime
// (core::ThreadPool + threaded tensor kernels + concurrent experiment
// repeats). The contract under test (DESIGN.md "Parallel runtime"):
//
//   1. With 1 thread every kernel executes the exact serial loops of the
//      original scalar engine (verified against hand-rolled references).
//   2. A fixed thread count is bit-reproducible (self-reproducibility).
//   3. Every op is bit-identical at *any* thread count: the GEMMs split
//      rows whose values do not depend on the split, and the elementwise,
//      row-wise and scatter ops and the full reductions (Sum, Mean,
//      WeightedSum) are serial loops over the whole range.
//
// SetGrainCapForTesting(1) forces multi-chunk partitions on the small
// tensors used here, so the threaded GEMM and optimizer paths genuinely
// execute; every thread-count and gradient check of an elementwise,
// row-wise or scatter op runs it beside a GEMM and asserts that the
// 4-thread arm dispatched to the pool.

// This suite stress-tests the ThreadPool itself; std::atomic provides the
// independent race-free hit counters.
// dcmt-lint: allow(concurrency) — pool test needs its own atomics.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/io.h"
#include "core/obs.h"
#include "core/thread_pool.h"
#include "data/profiles.h"
#include "eval/checkpointer.h"
#include "eval/experiment.h"
#include "eval/trainer.h"
#include "core/dcmt.h"
#include "data/batcher.h"
#include "optim/adam.h"
#include "support/gradcheck.h"
#include "tensor/ops.h"

namespace dcmt {
namespace {

using core::ParallelChunks;
using core::ParallelFor;
using core::SetGrainCapForTesting;
using core::ThreadPool;

/// RAII: configure (threads, grain cap) for a test, restore serial after.
class ScopedParallelConfig {
 public:
  ScopedParallelConfig(int threads, std::int64_t grain_cap) {
    ThreadPool::Global().SetNumThreads(threads);
    SetGrainCapForTesting(grain_cap);
  }
  ~ScopedParallelConfig() {
    SetGrainCapForTesting(0);
    ThreadPool::Global().SetNumThreads(1);
  }
};

TEST(ThreadPool, DefaultNumThreadsHonorsEnv) {
  setenv("DCMT_THREADS", "3", /*overwrite=*/1);
  EXPECT_EQ(core::DefaultNumThreads(), 3);
  // Empty and 0 mean the hardware default, like an unset variable.
  unsetenv("DCMT_THREADS");
  const int hardware = core::DefaultNumThreads();
  EXPECT_GE(hardware, 1);
  setenv("DCMT_THREADS", "", 1);
  EXPECT_EQ(core::DefaultNumThreads(), hardware);
  setenv("DCMT_THREADS", "0", 1);
  EXPECT_EQ(core::DefaultNumThreads(), hardware);
  unsetenv("DCMT_THREADS");
}

// A malformed DCMT_THREADS aborts instead of picking a width. Each
// statement only parses the variable, so the child starts no thread.
TEST(ThreadPoolDeathTest, DefaultNumThreadsRejectsMalformedEnv) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* bad : {"not-a-number", "4x", "abc", "-2", " 4", "+4",
                          "99999999999"}) {
    EXPECT_DEATH(
        {
          setenv("DCMT_THREADS", bad, 1);
          core::DefaultNumThreads();
        },
        "DCMT_THREADS must be a non-negative integer, got '.*'")
        << bad;
  }
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ScopedParallelConfig config(/*threads=*/4, /*grain_cap=*/1);
  constexpr int kRange = 1000;
  // dcmt-lint: allow(concurrency) — independent counters for the pool test.
  std::vector<std::atomic<int>> hits(kRange);
  for (auto& h : hits) h = 0;
  ParallelFor(0, kRange, /*grain=*/64, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (int i = 0; i < kRange; ++i) EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPool, ChunkLayoutIsDeterministic) {
  ScopedParallelConfig config(4, 1);
  EXPECT_EQ(ParallelChunks(1000, 64), 4);
  EXPECT_EQ(ParallelChunks(1000, 64), 4);  // pure function, stable
  EXPECT_EQ(ParallelChunks(2, 1), 2);
  EXPECT_EQ(ParallelChunks(0, 1), 0);
  ThreadPool::Global().SetNumThreads(1);
  EXPECT_EQ(ParallelChunks(1000, 1), 1);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ScopedParallelConfig config(4, 1);
  ParallelFor(0, 4, 1, [&](std::int64_t, std::int64_t) {
    EXPECT_TRUE(ThreadPool::InParallelRegion());
    // A nested call must collapse to one inline chunk, not deadlock.
    EXPECT_EQ(ParallelChunks(1000, 1), 1);
    int calls = 0;
    ParallelFor(0, 100, 1, [&](std::int64_t lo, std::int64_t hi) {
      ++calls;
      EXPECT_EQ(lo, 0);
      EXPECT_EQ(hi, 100);
    });
    EXPECT_EQ(calls, 1);
  });
  EXPECT_FALSE(ThreadPool::InParallelRegion());
}

// --- 1-thread path == the reference computation ---------------------------

TEST(ParallelKernels, SingleThreadMatMulMatchesSerialReference) {
  ThreadPool::Global().SetNumThreads(1);
  const int m = 7, k = 5, n = 6;
  Rng rng(11);
  Tensor a = Tensor::Randn(m, k, 1.0f, &rng);
  Tensor b = Tensor::Randn(k, n, 1.0f, &rng);
  Tensor out = ops::MatMul(a, b);
  // Double-precision reference. The SIMD GEMM may contract multiply-adds
  // into FMAs, so the comparison is tolerance-based (DESIGN.md §14); the
  // bit-level guarantee the engine still makes is thread-count invariance,
  // covered below.
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p) {
        acc += static_cast<double>(a.data()[i * k + p]) *
               static_cast<double>(b.data()[p * n + j]);
      }
      EXPECT_NEAR(out.data()[i * n + j], acc, 1e-5) << "element " << i << "," << j;
    }
  }
}

TEST(ParallelKernels, SingleThreadSumMatchesSerialReference) {
  ThreadPool::Global().SetNumThreads(1);
  Rng rng(12);
  Tensor a = Tensor::Randn(31, 17, 1.0f, &rng);
  double acc = 0.0;
  for (std::int64_t i = 0; i < a.size(); ++i) acc += a.data()[i];
  EXPECT_EQ(ops::Sum(a).item(), static_cast<float>(acc));
}

// --- disjoint-write kernels: bit-identical across thread counts -----------

/// Runs fn and returns how many ParallelFor calls fanned out to the pool
/// meanwhile (the dcmt_pool_dispatch_total counter, recorded while obs is on).
std::int64_t CountPoolDispatches(const std::function<void()>& fn) {
  const obs::Counter dispatches =
      obs::Registry::Global().counter("dcmt_pool_dispatch_total");
  const bool obs_was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  const std::int64_t before = dispatches.value();
  fn();
  const std::int64_t count = dispatches.value() - before;
  obs::SetEnabled(obs_was_enabled);
  return count;
}

/// Runs fn at 1 thread and at 4 threads (grain cap 1) and asserts the
/// returned float vectors are bit-identical. Only the GEMMs fan out, so fn
/// must run one; the 4-thread arm must reach the pool.
void ExpectThreadCountInvariant(
    const std::function<std::vector<float>()>& fn) {
  ThreadPool::Global().SetNumThreads(1);
  const std::vector<float> serial = fn();
  std::vector<float> threaded;
  {
    ScopedParallelConfig config(4, 1);
    EXPECT_GT(CountPoolDispatches([&] { threaded = fn(); }), 0)
        << "the 4-thread arm ran serial code only";
  }
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i]) << "element " << i;
  }
}

TEST(ParallelKernels, MatMulForwardAndBackwardThreadCountInvariant) {
  ExpectThreadCountInvariant([] {
    Rng rng(21);
    Tensor a = Tensor::Randn(13, 9, 1.0f, &rng, /*requires_grad=*/true);
    Tensor b = Tensor::Randn(9, 11, 1.0f, &rng, /*requires_grad=*/true);
    Tensor loss = ops::Sum(ops::Square(ops::MatMul(a, b)));
    loss.Backward();
    std::vector<float> all;
    const Tensor out = ops::MatMul(a, b);
    all.insert(all.end(), out.data(), out.data() + out.size());
    all.insert(all.end(), a.grad(), a.grad() + a.size());
    all.insert(all.end(), b.grad(), b.grad() + b.size());
    return all;
  });
}

// Each graph below feeds its op from, or into, a GEMM that the grain-cap-1
// arm splits by rows, so the op reads inputs and gradients that threads wrote.

TEST(ParallelKernels, ElementwiseThreadCountInvariant) {
  ExpectThreadCountInvariant([] {
    Rng rng(22);
    Tensor x = Tensor::Randn(17, 5, 1.0f, &rng, /*requires_grad=*/true);
    Tensor w = Tensor::Randn(5, 7, 0.5f, &rng, /*requires_grad=*/true);
    Tensor b = Tensor::Randn(17, 7, 1.0f, &rng, /*requires_grad=*/true);
    Tensor row = Tensor::Randn(1, 7, 1.0f, &rng, /*requires_grad=*/true);
    Tensor col = Tensor::Randn(17, 1, 1.0f, &rng, /*requires_grad=*/true);
    Tensor a = ops::MatMul(x, w);
    Tensor y = ops::Mul(ops::Add(ops::Tanh(a), b), ops::Sigmoid(a));
    y = ops::Add(y, row);  // row broadcast
    y = ops::Mul(y, col);  // column broadcast
    Tensor loss = ops::Sum(y);
    loss.Backward();
    std::vector<float> all(y.data(), y.data() + y.size());
    all.insert(all.end(), x.grad(), x.grad() + x.size());
    all.insert(all.end(), w.grad(), w.grad() + w.size());
    all.insert(all.end(), b.grad(), b.grad() + b.size());
    all.insert(all.end(), row.grad(), row.grad() + row.size());
    all.insert(all.end(), col.grad(), col.grad() + col.size());
    return all;
  });
}

TEST(ParallelKernels, SoftmaxRowsThreadCountInvariant) {
  ExpectThreadCountInvariant([] {
    Rng rng(23);
    Tensor x = Tensor::Randn(19, 6, 1.0f, &rng, /*requires_grad=*/true);
    Tensor w = Tensor::Randn(6, 8, 1.0f, &rng, /*requires_grad=*/true);
    Tensor y = ops::SoftmaxRows(ops::MatMul(x, w));
    Tensor loss = ops::Sum(ops::Mul(y, y));
    loss.Backward();
    std::vector<float> all(y.data(), y.data() + y.size());
    all.insert(all.end(), x.grad(), x.grad() + x.size());
    all.insert(all.end(), w.grad(), w.grad() + w.size());
    return all;
  });
}

TEST(ParallelKernels, EmbeddingScatterWithDuplicateIdsThreadCountInvariant) {
  ExpectThreadCountInvariant([] {
    Rng rng(24);
    Tensor table = Tensor::Randn(11, 5, 1.0f, &rng, /*requires_grad=*/true);
    Tensor w = Tensor::Randn(5, 4, 1.0f, &rng, /*requires_grad=*/true);
    // Heavy duplication: the scatter-merge order is what is under test.
    const std::vector<int> ids = {3, 3, 3, 0, 10, 3, 7, 0, 10, 10, 3, 5};
    Tensor loss = ops::Sum(
        ops::Square(ops::MatMul(ops::EmbeddingLookup(table, ids), w)));
    loss.Backward();
    std::vector<float> all(table.grad(), table.grad() + table.size());
    all.insert(all.end(), w.grad(), w.grad() + w.size());
    return all;
  });
}

TEST(ParallelKernels, BceLossThreadCountInvariant) {
  ExpectThreadCountInvariant([] {
    Rng rng(25);
    Tensor x = Tensor::Randn(37, 4, 1.0f, &rng, /*requires_grad=*/true);
    Tensor w = Tensor::Randn(4, 3, 0.5f, &rng, /*requires_grad=*/true);
    Tensor bias = Tensor::Randn(1, 3, 0.5f, &rng, /*requires_grad=*/true);
    Tensor labels = Tensor::Zeros(37, 3);
    for (int i = 0; i < 37 * 3; i += 2) labels.data()[i] = 1.0f;
    Tensor logits = ops::Dense(x, w, bias, /*relu=*/false);
    Tensor loss = ops::Sum(ops::BceLoss(ops::Sigmoid(logits), labels));
    loss.Backward();
    std::vector<float> all(logits.data(), logits.data() + logits.size());
    all.insert(all.end(), x.grad(), x.grad() + x.size());
    all.insert(all.end(), w.grad(), w.grad() + w.size());
    all.insert(all.end(), bias.grad(), bias.grad() + bias.size());
    return all;
  });
}

// --- full reductions: the serial bits at any thread count ----------------

TEST(ParallelKernels, SumSelfReproducibleAtFourThreads) {
  Rng rng(26);
  Tensor a = Tensor::Randn(41, 13, 1.0f, &rng);
  ThreadPool::Global().SetNumThreads(1);
  const float serial = ops::Sum(a).item();
  ScopedParallelConfig config(4, 1);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(ops::Sum(a).item(), serial);
}

/// Sum, Mean, WeightedSum and a sum of squares over 577 x 256 = 147712 elements
/// (more than one 131072-element chunk) whose float result depends on the
/// order of accumulation. The two leading terms add up to 2^24 + 1, the
/// midpoint between two floats. In a serial double sum each tiny term
/// after them is lost to rounding, so the total stays on the midpoint and
/// its float cast rounds to even, 2^24. Summed apart from the leading
/// terms, as a second chunk would, the tail survives and tips the total to
/// 2^24 + 2.
std::vector<float> FullReductions() {
  constexpr int kRows = 577, kCols = 256;
  Tensor a = Tensor::Full(kRows, kCols, 0x1p-40f);
  a.data()[0] = 0x1p24f;
  a.data()[1] = 1.0f;
  Tensor root = Tensor::Full(kRows, kCols, 0x1p-20f);  // squares to a's terms
  root.data()[0] = 0x1p12f;
  root.data()[1] = 1.0f;
  const Tensor ones = Tensor::Full(kRows, kCols, 1.0f);
  return {ops::Sum(a).item(), ops::Mean(a).item(),
          ops::WeightedSum(a, ones).item(), ops::Sum(ops::Square(root)).item()};
}

TEST(ParallelKernels, FullReductionsMatchSerialBitsAtFourThreads) {
  ThreadPool::Global().SetNumThreads(1);
  const std::vector<float> serial = FullReductions();
  ASSERT_EQ(serial[0], 0x1p24f);
  ASSERT_EQ(serial[3], 0x1p24f);
  for (const std::int64_t grain_cap : {0, 1}) {
    ScopedParallelConfig config(4, grain_cap);
    EXPECT_EQ(FullReductions(), serial) << "grain cap " << grain_cap;
  }
}

// --- gradcheck through the threaded kernel paths --------------------------

/// Gradient-checks `loss` against `inputs` at 4 threads with grain cap 1 and
/// asserts the check reached the pool (each loss runs a GEMM).
void ExpectThreadedGradCheck(const std::function<Tensor()>& loss,
                             const std::vector<Tensor>& inputs) {
  ScopedParallelConfig config(4, 1);
  GradCheckResult r;
  EXPECT_GT(CountPoolDispatches([&] { r = CheckGradients(loss, inputs); }), 0)
      << "the gradient check ran serial code only";
  EXPECT_TRUE(r.ok) << r.worst;
}

TEST(ParallelGradCheck, MatMul) {
  Rng rng(31);
  Tensor a = Tensor::Randn(6, 4, 0.5f, &rng, /*requires_grad=*/true);
  Tensor b = Tensor::Randn(4, 5, 0.5f, &rng, /*requires_grad=*/true);
  ExpectThreadedGradCheck(
      [&]() { return ops::Sum(ops::Square(ops::MatMul(a, b))); }, {a, b});
}

TEST(ParallelGradCheck, SoftmaxRows) {
  Rng rng(32);
  Tensor x = Tensor::Randn(5, 4, 0.5f, &rng, /*requires_grad=*/true);
  Tensor w = Tensor::Randn(4, 6, 0.5f, &rng, /*requires_grad=*/true);
  ExpectThreadedGradCheck(
      [&]() {
        Tensor y = ops::SoftmaxRows(ops::MatMul(x, w));
        return ops::Sum(ops::Mul(y, y));
      },
      {x, w});
}

TEST(ParallelGradCheck, EmbeddingLookupWithDuplicateIds) {
  Rng rng(33);
  Tensor table = Tensor::Randn(7, 3, 0.5f, &rng, /*requires_grad=*/true);
  Tensor w = Tensor::Randn(3, 4, 0.5f, &rng, /*requires_grad=*/true);
  const std::vector<int> ids = {1, 4, 1, 6, 1, 0, 4};
  ExpectThreadedGradCheck(
      [&]() {
        return ops::Sum(
            ops::Square(ops::MatMul(ops::EmbeddingLookup(table, ids), w)));
      },
      {table, w});
}

TEST(ParallelGradCheck, BceLossDifferentiableTarget) {
  Rng rng(34);
  // Both pred and target require grad — the satellite fix under test.
  Tensor x = Tensor::Randn(6, 3, 0.5f, &rng, /*requires_grad=*/true);
  Tensor w = Tensor::Randn(3, 2, 0.5f, &rng, /*requires_grad=*/true);
  Tensor bias = Tensor::Randn(1, 2, 0.5f, &rng, /*requires_grad=*/true);
  Tensor tlogit = Tensor::Randn(6, 2, 0.5f, &rng, /*requires_grad=*/true);
  ExpectThreadedGradCheck(
      [&]() {
        Tensor plogit = ops::Dense(x, w, bias, /*relu=*/false);
        return ops::Sum(
            ops::BceLoss(ops::Sigmoid(plogit), ops::Sigmoid(tlogit), 1e-4f));
      },
      {x, w, bias, tlogit});
}

TEST(BceLossContract, TargetOnlyGradFlows) {
  ThreadPool::Global().SetNumThreads(1);
  Tensor pred = Tensor::FromData(2, 1, {0.3f, 0.8f});  // no grad
  Tensor target = Tensor::FromData(2, 1, {0.4f, 0.6f}, /*requires_grad=*/true);
  Tensor loss = ops::Sum(ops::BceLoss(pred, target));
  ASSERT_TRUE(loss.requires_grad());
  loss.Backward();
  // dL/dy = log((1-p)/p).
  EXPECT_NEAR(target.grad()[0], std::log(0.7f / 0.3f), 1e-5f);
  EXPECT_NEAR(target.grad()[1], std::log(0.2f / 0.8f), 1e-5f);
  EXPECT_FALSE(pred.has_grad());
}

TEST(BceLossContractDeathTest, NonPositiveEpsIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Tensor pred = Tensor::FromData(1, 1, {0.5f}, /*requires_grad=*/true);
  Tensor target = Tensor::FromData(1, 1, {1.0f});
  EXPECT_DEATH(ops::BceLoss(pred, target, 0.0f), "eps must be positive");
}

// --- full DCMT training: reproducibility across and within thread counts --

std::vector<float> TrainTinyDcmtAndDumpParams() {
  data::DatasetProfile profile = data::AeEsProfile();
  profile.train_exposures = 1500;
  profile.test_exposures = 500;
  data::SyntheticLogGenerator generator(profile);
  const data::Dataset train = generator.GenerateTrain();
  models::ModelConfig mc;
  core::Dcmt model(train.schema(), mc);
  eval::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 256;
  eval::Train(&model, train, tc);
  std::vector<float> params;
  for (const Tensor& p : model.parameters()) {
    params.insert(params.end(), p.data(), p.data() + p.size());
  }
  return params;
}

TEST(ParallelTraining, FourThreadTrainEpochSelfReproducible) {
  std::vector<float> first, second;
  {
    ScopedParallelConfig config(4, 0);  // production grains, real pool
    first = TrainTinyDcmtAndDumpParams();
    second = TrainTinyDcmtAndDumpParams();
  }
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i], second[i]) << "param element " << i;
  }
}

TEST(ParallelTraining, SingleThreadTrainEpochSelfReproducible) {
  ThreadPool::Global().SetNumThreads(1);
  const std::vector<float> first = TrainTinyDcmtAndDumpParams();
  const std::vector<float> second = TrainTinyDcmtAndDumpParams();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i], second[i]) << "param element " << i;
  }
}

/// One AE-ES DCMT epoch at production batch size (1024) and production
/// grains: the tower GEMMs, both backward products and Adam's embedding
/// updates all fan out at 4 threads.
struct EpochRun {
  std::vector<float> params;
  std::vector<double> step_loss;
  std::string checkpoint;  // params + Adam moments/step/lr + RNG + batcher
  std::int64_t pool_dispatches = 0;
};

EpochRun TrainDcmtEpochAtThreads(int threads) {
  data::DatasetProfile profile = data::AeEsProfile();
  profile.train_exposures = 4096;
  profile.test_exposures = 1;
  data::SyntheticLogGenerator generator(profile);
  const data::Dataset train = generator.GenerateTrain();
  models::ModelConfig mc;
  core::Dcmt model(train.schema(), mc);
  eval::TrainConfig tc;
  tc.epochs = 1;
  tc.record_step_loss = true;
  tc.checkpoint_dir = ::testing::TempDir() + "/parallel_xthread_" +
                      std::to_string(static_cast<long long>(::getpid())) +
                      "_" + std::to_string(threads);

  EpochRun run;
  run.pool_dispatches = CountPoolDispatches([&] {
    ScopedParallelConfig config(threads, /*grain_cap=*/0);
    run.step_loss = eval::Train(&model, train, tc).step_loss;
  });
  for (const Tensor& p : model.parameters()) {
    run.params.insert(run.params.end(), p.data(), p.data() + p.size());
  }
  const eval::Checkpointer checkpointer(tc.checkpoint_dir);
  std::unique_ptr<core::FileReader> reader =
      core::FileSystem::Default()->OpenForRead(checkpointer.path());
  EXPECT_TRUE(reader != nullptr && reader->ReadAll(&run.checkpoint));
  core::FileSystem::Default()->Remove(checkpointer.path());
  return run;
}

TEST(ParallelTraining, OneAndFourThreadEpochsAreBitIdentical) {
  // Batch 1024 splits into four micro-batches (DESIGN.md §9). At 2 threads
  // each shard runs two of them in turn, at 4 each runs one; the gradient
  // sinks are reduced in micro-batch order either way.
  const EpochRun serial = TrainDcmtEpochAtThreads(1);
  EXPECT_EQ(serial.pool_dispatches, 0);
  ASSERT_EQ(serial.step_loss.size(), 4u);
  ASSERT_FALSE(serial.checkpoint.empty());
  for (const int threads : {2, 4}) {
    const EpochRun threaded = TrainDcmtEpochAtThreads(threads);
    EXPECT_GT(threaded.pool_dispatches, 0)
        << "nothing fanned out at " << threads << " threads";
    EXPECT_EQ(serial.step_loss, threaded.step_loss) << threads << " threads";
    ASSERT_EQ(serial.params.size(), threaded.params.size());
    for (std::size_t i = 0; i < serial.params.size(); ++i) {
      ASSERT_EQ(serial.params[i], threaded.params[i])
          << "param element " << i << " at " << threads << " threads";
    }
    EXPECT_TRUE(serial.checkpoint == threaded.checkpoint)
        << "checkpoints (parameters, Adam state) differ at " << threads
        << " threads";
  }
}

// --- concurrent experiment repeats ----------------------------------------

TEST(ParallelExperiment, ConcurrentRepeatsMatchSerialRepeats) {
  data::DatasetProfile profile = data::AeEsProfile();
  profile.train_exposures = 1200;
  profile.test_exposures = 600;
  data::SyntheticLogGenerator generator(profile);
  const data::Dataset train = generator.GenerateTrain();
  const data::Dataset test = generator.GenerateTest();
  models::ModelConfig mc;
  eval::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 256;

  ThreadPool::Global().SetNumThreads(1);
  const eval::ExperimentResult serial =
      eval::RunOfflineExperiment("dcmt", train, test, mc, tc, /*repeats=*/3);
  eval::ExperimentResult threaded;
  {
    ScopedParallelConfig config(4, 0);
    threaded =
        eval::RunOfflineExperiment("dcmt", train, test, mc, tc, /*repeats=*/3);
  }
  // Repeat workers run kernels inline (nested guard), so per-run arithmetic
  // is identical to the serial path — results must agree exactly.
  ASSERT_EQ(serial.runs.size(), threaded.runs.size());
  EXPECT_EQ(serial.cvr_auc, threaded.cvr_auc);
  EXPECT_EQ(serial.ctcvr_auc, threaded.ctcvr_auc);
  EXPECT_EQ(serial.ctr_auc, threaded.ctr_auc);
  EXPECT_EQ(serial.cvr_auc_oracle, threaded.cvr_auc_oracle);
  EXPECT_EQ(serial.mean_cvr_pred, threaded.mean_cvr_pred);
  for (std::size_t i = 0; i < serial.runs.size(); ++i) {
    EXPECT_EQ(serial.runs[i].cvr_auc_clicked, threaded.runs[i].cvr_auc_clicked);
  }
}

}  // namespace
}  // namespace dcmt
