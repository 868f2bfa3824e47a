// Concurrency stress suite, built to run under ThreadSanitizer
// (-DDCMT_SANITIZE=thread; see tools/run_tier1.sh). The tests are ordinary
// correctness checks in a plain build, but their real job is to generate
// enough genuinely concurrent pool traffic that TSan can observe every
// synchronization edge the runtime claims to have: pool startup/teardown,
// RunShards hand-off and join, the nested-parallelism guard, pool resizing
// between bursts, and concurrent experiment repeats sharing tensor kernels.

// This suite stress-tests the ThreadPool itself; std::atomic provides the
// independent race-free accumulators the assertions need. The serve::Engine
// scenarios additionally drive real OS submitter threads and hold the
// engine's future tokens directly — that is the scenario under test, not a
// convenience.
// dcmt-lint: allow(concurrency) — pool stress test needs its own atomics.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
// dcmt-lint: allow(concurrency) — futures carry engine scores cross-thread.
#include <future>
#include <memory>
#include <string>
// dcmt-lint: allow(concurrency) — real submitter threads for the engine.
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/dcmt.h"
#include "core/io.h"
#include "core/obs.h"
#include "core/prefetch.h"
#include "core/thread_pool.h"
#include "data/generator.h"
#include "data/profiles.h"
#include "data/shard.h"
#include "data/stream.h"
#include "eval/continual.h"
#include "eval/experiment.h"
#include "eval/trainer.h"
#include "gated_model_source.h"
#include "optim/adam.h"
#include "serve/engine.h"
#include "serve/frozen_model.h"
#include "serve/router.h"
#include "tensor/ops.h"

namespace dcmt {
namespace {

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

TEST(TsanStress, RepeatedParallelForBursts) {
  ScopedParallelConfig config(/*threads=*/4, /*grain_cap=*/1);
  constexpr int kRange = 512;
  constexpr int kBursts = 50;
  std::vector<float> sink(kRange, 0.0f);
  for (int burst = 0; burst < kBursts; ++burst) {
    // Disjoint writes to a shared buffer: any missing happens-before edge
    // between the dispatch and the join shows up as a TSan data race.
    ParallelFor(0, kRange, /*grain=*/8, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        sink[static_cast<std::size_t>(i)] += 1.0f;
      }
    });
  }
  for (int i = 0; i < kRange; ++i) {
    ASSERT_EQ(sink[i], static_cast<float>(kBursts)) << "index " << i;
  }
}

TEST(TsanStress, RunShardsHandsEachShardToExactlyOneThread) {
  ScopedParallelConfig config(4, 1);
  constexpr int kIters = 100;
  // dcmt-lint: allow(concurrency) — cross-thread assertion counter.
  std::atomic<int> total{0};
  for (int it = 0; it < kIters; ++it) {
    ThreadPool::Global().RunShards(4, [&](int shard) {
      total.fetch_add(shard + 1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), kIters * (1 + 2 + 3 + 4));
}

TEST(TsanStress, NestedParallelismStaysInlineOnEveryWorker) {
  ScopedParallelConfig config(4, 1);
  // Every shard issues nested ParallelFors; the guard must keep them inline
  // on the issuing worker (no re-entry into the pool, no deadlock, no race
  // on the shared dispatch state).
  for (int round = 0; round < 20; ++round) {
    // dcmt-lint: allow(concurrency) — cross-thread assertion counter.
    std::atomic<int> nested_calls{0};
    ThreadPool::Global().RunShards(4, [&](int) {
      EXPECT_TRUE(ThreadPool::InParallelRegion());
      ParallelFor(0, 64, 1, [&](std::int64_t lo, std::int64_t hi) {
        EXPECT_EQ(lo, 0);
        EXPECT_EQ(hi, 64);
        nested_calls.fetch_add(1, std::memory_order_relaxed);
      });
    });
    EXPECT_EQ(nested_calls.load(), 4);
  }
  EXPECT_FALSE(ThreadPool::InParallelRegion());
}

TEST(TsanStress, PoolResizeBetweenBursts) {
  // Start/stop churn: every resize tears down workers and spins up new ones;
  // TSan verifies the join edges on both sides of each transition. In the
  // first pass each resize lands while the workers still spin after their
  // burst; in the second, a gap past the spin window has parked them.
  const int sizes[] = {1, 4, 2, 3, 1, 4};
  for (int pass = 0; pass < 2; ++pass) {
    for (int n : sizes) {
      ThreadPool::Global().SetNumThreads(n);
      SetGrainCapForTesting(1);
      // dcmt-lint: allow(concurrency) — cross-thread assertion counter.
      std::atomic<std::int64_t> sum{0};
      ParallelFor(0, 256, 4, [&](std::int64_t lo, std::int64_t hi) {
        std::int64_t local = 0;
        for (std::int64_t i = lo; i < hi; ++i) local += i;
        sum.fetch_add(local, std::memory_order_relaxed);
      });
      EXPECT_EQ(sum.load(), 255 * 256 / 2);
      if (pass == 1) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  SetGrainCapForTesting(0);
  ThreadPool::Global().SetNumThreads(1);
}

TEST(TsanStress, TensorKernelsUnderLoad) {
  ScopedParallelConfig config(4, 1);
  // Forward+backward through a small graph, repeatedly, so TSan sees the
  // GEMM's real dispatch pattern (row tiling of the forward and of both
  // backward products) next to the serial elementwise, scatter and
  // reduction ops that read and write the same buffers between dispatches.
  Rng rng(41);
  Tensor table = Tensor::Randn(13, 6, 1.0f, &rng, /*requires_grad=*/true);
  const std::vector<int> ids = {3, 7, 3, 0, 12, 3, 7, 0, 1, 5, 9, 3};
  for (int round = 0; round < 10; ++round) {
    Tensor a = Tensor::Randn(12, 9, 1.0f, &rng, /*requires_grad=*/true);
    Tensor b = Tensor::Randn(9, 6, 1.0f, &rng, /*requires_grad=*/true);
    Tensor x = ops::EmbeddingLookup(table, ids);
    Tensor h = ops::Sigmoid(ops::Add(ops::MatMul(ops::Tanh(a), b), x));
    Tensor loss = ops::Sum(ops::Square(ops::SoftmaxRows(h)));
    loss.Backward();
    ASSERT_TRUE(table.has_grad());
    table.ZeroGrad();
  }
}

TEST(TsanStress, ConcurrentExperimentRepeats) {
  // Concurrent repeats share the pool with the tensor kernels they launch;
  // the nested guard must keep each repeat's math inline on its worker.
  data::DatasetProfile profile = data::AeEsProfile();
  profile.train_exposures = 800;
  profile.test_exposures = 400;
  data::SyntheticLogGenerator generator(profile);
  const data::Dataset train = generator.GenerateTrain();
  const data::Dataset test = generator.GenerateTest();
  models::ModelConfig mc;
  eval::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 256;
  ScopedParallelConfig config(4, 0);
  const eval::ExperimentResult result =
      eval::RunOfflineExperiment("dcmt", train, test, mc, tc, /*repeats=*/4);
  EXPECT_EQ(result.runs.size(), 4u);
}

// --- Spin-then-park dispatch (DESIGN.md §9). --------------------------------

/// Tower-shaped GEMM (1024x112 -> 64, the first AE-ES tower layer) forward
/// and backward at production grains, so all three products fan out at 4
/// threads. Returns out, dA and dB back to back.
std::vector<float> TowerMatMulBits() {
  Rng rng(29);
  Tensor a = Tensor::Randn(1024, 112, 1.0f, &rng, /*requires_grad=*/true);
  Tensor b = Tensor::Randn(112, 64, 0.1f, &rng, /*requires_grad=*/true);
  const Tensor upstream = Tensor::Randn(1024, 64, 1.0f, &rng);
  Tensor out = ops::MatMul(a, b);
  ops::Sum(ops::Mul(out, upstream)).Backward();
  std::vector<float> bits(out.data(), out.data() + out.size());
  bits.insert(bits.end(), a.grad(), a.grad() + a.size());
  bits.insert(bits.end(), b.grad(), b.grad() + b.size());
  return bits;
}

/// A ParallelFor over 2^18 elements at a grain that splits four ways.
std::vector<float> ParallelForBits() {
  std::vector<float> out(1 << 18);
  ParallelFor(0, static_cast<std::int64_t>(out.size()), 4096,
              [&](std::int64_t lo, std::int64_t hi) {
                for (std::int64_t i = lo; i < hi; ++i) {
                  out[static_cast<std::size_t>(i)] =
                      std::sqrt(static_cast<float>(i)) * 0.5f + 1.0f;
                }
              });
  return out;
}

TEST(TsanStress, ConcurrentCallersGetSerialBits) {
  ThreadPool::Global().SetNumThreads(1);
  const std::vector<float> serial_matmul = TowerMatMulBits();
  const std::vector<float> serial_loop = ParallelForBits();
  ScopedParallelConfig config(4, 0);
  // Two external threads dispatch at once: whichever loses the pool runs
  // its shards inline. Neither may hang, and both must get the serial bits.
  constexpr int kRounds = 3;
  std::vector<float> matmul[2], loop[2];
  // dcmt-lint: allow(concurrency) — two real external callers of the pool.
  std::vector<std::thread> callers;
  for (int t = 0; t < 2; ++t) {
    callers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        matmul[t] = TowerMatMulBits();
        loop[t] = ParallelForBits();
      }
    });
  }
  for (auto& caller : callers) caller.join();
  for (int t = 0; t < 2; ++t) {
    EXPECT_TRUE(matmul[t] == serial_matmul) << "caller " << t;
    EXPECT_TRUE(loop[t] == serial_loop) << "caller " << t;
  }
}

TEST(TsanStress, ContendedCallerRunsItsShardsInlineInOrder) {
  ScopedParallelConfig config(4, 0);
  const bool obs_was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  const obs::Counter inline_runs =
      obs::Registry::Global().counter("dcmt_pool_inline_runs_total");
  const std::int64_t inline_before = inline_runs.value();
  std::vector<int> order;
  // dcmt-lint: allow(concurrency) — which thread ran the contender's shards.
  std::thread::id contender_id;
  // dcmt-lint: allow(concurrency) — which thread ran the contender's shards.
  std::vector<std::thread::id> shard_threads;
  ThreadPool::Global().RunShards(4, [&](int shard) {
    if (shard != 0) return;
    // This job holds the pool until shard 0 returns, so a caller started
    // here can only finish by running its own shards: if it waited for the
    // pool instead, the join below would never return.
    // dcmt-lint: allow(concurrency) — an external caller during a job.
    std::thread contender([&] {
      ThreadPool::Global().RunShards(4, [&](int s) {
        order.push_back(s);
        shard_threads.push_back(std::this_thread::get_id());
      });
    });
    contender_id = contender.get_id();
    contender.join();
  });
  obs::SetEnabled(obs_was_enabled);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  for (const auto& id : shard_threads) EXPECT_EQ(id, contender_id);
  EXPECT_EQ(inline_runs.value() - inline_before, 1);
}

TEST(TsanStress, DispatchAfterIdleGapWakesParkedWorkers) {
  ScopedParallelConfig config(4, 0);
  // Gaps below the spin window find the workers spinning; gaps well past it
  // find them parked on the condvar. Either way every worker must run its
  // own shard (the caller runs only shard 0).
  const int gaps_us[] = {0, 20, 5000, 0, 20000, 50, 5000};
  for (int gap_us : gaps_us) {
    std::this_thread::sleep_for(std::chrono::microseconds(gap_us));
    // dcmt-lint: allow(concurrency) — which thread ran each shard.
    std::vector<std::thread::id> ran_on(4);
    ThreadPool::Global().RunShards(4, [&](int shard) {
      ran_on[static_cast<std::size_t>(shard)] = std::this_thread::get_id();
    });
    EXPECT_EQ(ran_on[0], std::this_thread::get_id()) << "gap " << gap_us;
    for (int s = 1; s < 4; ++s) {
      EXPECT_NE(ran_on[static_cast<std::size_t>(s)], std::this_thread::get_id())
          << "gap " << gap_us << " shard " << s;
      for (int t = 1; t < s; ++t) {
        EXPECT_NE(ran_on[static_cast<std::size_t>(s)],
                  ran_on[static_cast<std::size_t>(t)])
            << "gap " << gap_us << " shards " << t << "," << s;
      }
    }
  }
}

// --- Streaming prefetch thread (DESIGN.md §15). -----------------------------

/// Shard directory shared by the streaming stress tests (written once; all
/// reads through it are const and thread-safe by contract — TSan verifies).
struct StreamStressFixture {
  StreamStressFixture() {
    data::DatasetProfile profile = data::AeEsProfile();
    profile.train_exposures = 64;
    profile.test_exposures = 1;
    profile.seed = 83;
    // Per-process directory: parallel ctest invocations of this suite's
    // cases each regenerate the fixture and must not race on shared files.
    dir = ::testing::TempDir() + "/tsan_stream_shards_" +
          std::to_string(static_cast<long long>(::getpid()));
    core::FileSystem::Default()->CreateDirectories(dir);
    data::SyntheticLogGenerator generator(profile);
    data::ShardWriterConfig config;
    config.rows_per_shard = 96;  // 640 rows -> 7 shards, last one ragged
    std::string error;
    ok = generator.GenerateToShards(dir, 640, /*stream=*/1, config, &error);
    if (ok) ok = data::StreamingDataset::Open(dir, {}, &dataset, &error);
  }
  std::string dir;
  data::StreamingDataset dataset;
  bool ok = false;
};

StreamStressFixture& StreamFixture() {
  static StreamStressFixture fixture;
  return fixture;
}

TEST(TsanStress, StreamPrefetchQueueChurn) {
  // Tiny shards and a deep pipeline: the bounded channel fills, blocks the
  // producer, drains, and refills many times per epoch — every Push/Pop
  // edge and the epoch-end Close/restart transition get exercised.
  StreamStressFixture& fixture = StreamFixture();
  ASSERT_TRUE(fixture.ok);
  for (int round = 0; round < 6; ++round) {
    Rng rng(static_cast<std::uint64_t>(round) + 1);
    data::StreamingBatcher batcher(&fixture.dataset, 32, &rng,
                                   /*prefetch_depth=*/3);
    std::int64_t rows = 0;
    data::Batch batch;
    for (int epoch = 0; epoch < 2; ++epoch) {
      while (batcher.Next(&batch)) rows += batch.size;
    }
    ASSERT_TRUE(batcher.ok()) << batcher.error();
    EXPECT_EQ(rows, 2 * fixture.dataset.size());
  }
}

TEST(TsanStress, StreamEarlyShutdownMidPrefetch) {
  // Destroy the batcher while the worker is still decoding ahead: the
  // Cancel + join teardown must leave no thread touching a dead channel.
  StreamStressFixture& fixture = StreamFixture();
  ASSERT_TRUE(fixture.ok);
  for (int round = 0; round < 12; ++round) {
    Rng rng(static_cast<std::uint64_t>(round) + 100);
    data::StreamingBatcher batcher(&fixture.dataset, 32, &rng,
                                   /*prefetch_depth=*/4);
    data::Batch batch;
    // Consume 0..3 batches, then drop it mid-flight.
    for (int i = 0; i < round % 4; ++i) {
      if (!batcher.Next(&batch)) break;
    }
    ASSERT_TRUE(batcher.ok()) << batcher.error();
  }
}

TEST(TsanStress, StreamPrefetchRacesCheckpointSave) {
  // SaveState() reads only consumer-owned fields, so calling it while the
  // prefetch thread is decoding ahead is benign — TSan proves the claim.
  StreamStressFixture& fixture = StreamFixture();
  ASSERT_TRUE(fixture.ok);
  Rng rng(7);
  data::StreamingBatcher batcher(&fixture.dataset, 32, &rng,
                                 /*prefetch_depth=*/4);
  data::Batch batch;
  std::int64_t saves = 0;
  for (int epoch = 0; epoch < 3; ++epoch) {
    while (batcher.Next(&batch)) {
      const data::BatcherState state = batcher.SaveState();
      ASSERT_EQ(static_cast<std::int64_t>(state.order.size()),
                fixture.dataset.size());
      ++saves;
    }
  }
  ASSERT_TRUE(batcher.ok()) << batcher.error();
  EXPECT_EQ(saves, 3 * batcher.batches_per_epoch());
}

// --- serve::Engine under genuine concurrency (DESIGN.md §13). --------------

/// Tiny frozen dcmt model plus pre-built request rows, shared by the engine
/// stress tests (built once; scoring through it is read-only).
struct ServeStressFixture {
  ServeStressFixture() {
    data::DatasetProfile profile = data::AeEsProfile();
    profile.train_exposures = 64;
    profile.test_exposures = 1;
    generator = std::make_unique<data::SyntheticLogGenerator>(profile);
    models::ModelConfig config;
    config.embedding_dim = 4;
    config.hidden_dims = {8, 4};
    frozen = std::make_unique<serve::FrozenModel>(
        std::make_unique<core::Dcmt>(generator->Schema(), config),
        generator->Schema());
    rows.reserve(128);
    for (int i = 0; i < 128; ++i) {
      rows.push_back(generator->MakeExample(i % 40, (i * 7) % 50, 0));
    }
  }
  std::unique_ptr<data::SyntheticLogGenerator> generator;
  std::unique_ptr<serve::FrozenModel> frozen;
  std::vector<data::Example> rows;
};

ServeStressFixture& ServeFixture() {
  static ServeStressFixture fixture;
  return fixture;
}

TEST(TsanStress, ServeEngineConcurrentSubmitters) {
  // Several OS threads hammer Submit() while the dispatcher coalesces and
  // scores: TSan checks the queue's mutex/cv protocol end to end.
  ScopedParallelConfig config(2, 1);
  ServeStressFixture& fixture = ServeFixture();
  serve::EngineConfig engine_config;
  engine_config.max_batch = 16;
  engine_config.queue_capacity = 32;  // small: exercises backpressure too
  serve::Engine engine(fixture.frozen.get(), engine_config);
  constexpr int kThreads = 4;
  constexpr int kRowsPerThread = 32;
  // dcmt-lint: allow(concurrency) — cross-thread assertion counter.
  std::atomic<int> in_range{0};
  {
    // dcmt-lint: allow(concurrency) — real submitter threads are the test.
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&engine, &fixture, &in_range, t] {
        for (int i = 0; i < kRowsPerThread; ++i) {
          const std::size_t row =
              static_cast<std::size_t>((t * kRowsPerThread + i) % 128);
          const serve::Score score = engine.ScoreSync(fixture.rows[row]);
          if (score.pctcvr > 0.0f && score.pctcvr < 1.0f) {
            in_range.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& submitter : submitters) submitter.join();
  }
  engine.Shutdown();
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, kThreads * kRowsPerThread);
  EXPECT_EQ(stats.scored, kThreads * kRowsPerThread);
  EXPECT_EQ(in_range.load(), kThreads * kRowsPerThread);
}

TEST(TsanStress, ServeEngineRowsLandWhileSpinningAndAfterParking) {
  // The dispatcher spins for core::kSpinNanos after each batch, then parks.
  // Submitters pause 0, ~50 us (inside the window) and ~300 us (past it)
  // between rows, so rows land on a spinning dispatcher, on one that just
  // parked, and on one that is mid-batch. Every row must resolve kOk with
  // its own bits; a lost wake-up shows as a future still pending after the
  // bounded wait, not as a hung test.
  ScopedParallelConfig config(1, 0);
  ServeStressFixture& fixture = ServeFixture();
  const serve::ScoreColumns want = fixture.frozen->ScoreExamples(fixture.rows);
  serve::EngineConfig engine_config;
  engine_config.max_batch = 8;
  serve::Engine engine(fixture.frozen.get(), engine_config);
  constexpr int kThreads = 3;
  constexpr int kRounds = 12;
  const int gaps_us[] = {0, 50, 300};
  // dcmt-lint: allow(concurrency) — cross-thread assertion counters.
  std::atomic<int> exact{0};
  // dcmt-lint: allow(concurrency) — cross-thread assertion counters.
  std::atomic<int> timed_out{0};
  {
    // dcmt-lint: allow(concurrency) — real submitter threads are the test.
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        for (int r = 0; r < kRounds; ++r) {
          for (int g = 0; g < 3; ++g) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(gaps_us[(g + t) % 3]));
            const std::size_t row =
                static_cast<std::size_t>((t * 41 + r * 3 + g) % 128);
            // dcmt-lint: allow(concurrency) — the future is the subject.
            std::future<serve::Score> future =
                engine.Submit(fixture.rows[row]);
            if (future.wait_for(std::chrono::seconds(30)) !=
                std::future_status::ready) {
              timed_out.fetch_add(1);
              return;  // the engine's Shutdown below still resolves it
            }
            const serve::Score score = future.get();
            if (score.ok() && score.pctr == want.pctr[row] &&
                score.pcvr == want.pcvr[row] &&
                score.pctcvr == want.pctcvr[row]) {
              exact.fetch_add(1);
            }
          }
        }
      });
    }
    for (auto& submitter : submitters) submitter.join();
  }
  engine.Shutdown();
  EXPECT_EQ(timed_out.load(), 0);
  EXPECT_EQ(exact.load(), kThreads * kRounds * 3);
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.scored, stats.submitted);
  RecordProperty("parks", static_cast<int>(stats.parks));
}

TEST(TsanStress, ServeEngineShutdownDrainsInflightWithoutDrops) {
  // Shutdown races a full queue: every already-submitted request must still
  // be scored (drain, never drop), and every future must become ready. A
  // gated model source holds the dispatcher on the first batch so the other
  // 63 rows are still queued when Shutdown begins.
  ScopedParallelConfig config(2, 1);
  ServeStressFixture& fixture = ServeFixture();
  testing_util::GatedModelSource gate(fixture.frozen.get());
  serve::EngineConfig engine_config;
  engine_config.max_batch = 8;
  engine_config.queue_capacity = 63;
  serve::Engine engine(&gate, engine_config);
  // dcmt-lint: allow(concurrency) — futures carry the drained scores out.
  std::vector<std::future<serve::Score>> futures;
  futures.reserve(64);
  futures.push_back(engine.Submit(fixture.rows[0]));
  gate.WaitForAcquires(1);
  for (int i = 1; i < 64; ++i) {
    futures.push_back(engine.Submit(fixture.rows[static_cast<std::size_t>(i)]));
  }
  // dcmt-lint: allow(concurrency) — Shutdown runs while the gate holds.
  std::thread stopper([&engine] { engine.Shutdown(); });
  // The queue is full, so a probe is shed as overload until Shutdown has
  // marked the engine stopping.
  while (engine.TrySubmit(fixture.rows[0]).get().status ==
         serve::ServeStatus::kRejectedOverload) {
    std::this_thread::yield();
  }
  gate.Open();
  stopper.join();
  int fulfilled = 0;
  for (auto& f : futures) {
    const serve::Score score = f.get();
    if (score.ok() && score.pctcvr > 0.0f) ++fulfilled;
  }
  EXPECT_EQ(fulfilled, 64);
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 64);
  EXPECT_EQ(stats.scored, 64);
  EXPECT_EQ(stats.rejected_shutdown, 1);
}

TEST(TsanStress, ServeRouterRejectsMalformedRowsAmongValidOnes) {
  // Several submitters mix malformed rows (out-of-vocabulary, negative,
  // short and long id lists) into valid traffic through the router. Each
  // malformed row resolves kRejectedInvalid at admission; each valid row is
  // scored bit-exactly; nothing aborts.
  ScopedParallelConfig config(2, 1);
  ServeStressFixture& fixture = ServeFixture();
  const data::FeatureSchema& schema = fixture.generator->Schema();
  models::ModelConfig model_config;
  model_config.embedding_dim = 4;
  model_config.hidden_dims = {8, 4};
  auto model = std::make_unique<serve::FrozenModel>(
      std::make_unique<core::Dcmt>(schema, model_config), schema);
  const serve::ScoreColumns want = model->ScoreExamples(fixture.rows);
  serve::RouterConfig router_config;
  router_config.num_engines = 2;
  router_config.engine.max_batch = 8;
  serve::Router router(std::move(model), router_config);

  auto malformed = [&](std::size_t row, int kind) {
    data::Example bad = fixture.rows[row];
    switch (kind) {
      case 0:
        bad.deep_ids[0] = schema.deep_fields[0].vocab_size;
        break;
      case 1:
        bad.deep_ids.back() = -5;
        break;
      case 2:
        bad.deep_ids.pop_back();
        break;
      default:
        bad.wide_ids.push_back(0);
        break;
    }
    return bad;
  };
  constexpr int kThreads = 4;
  constexpr int kPerThread = 48;
  // dcmt-lint: allow(concurrency) — cross-thread assertion counter.
  std::atomic<int> scored_exact{0};
  // dcmt-lint: allow(concurrency) — cross-thread assertion counter.
  std::atomic<int> rejected_invalid{0};
  // dcmt-lint: allow(concurrency) — cross-thread assertion counter.
  std::atomic<int> wrong{0};
  {
    // dcmt-lint: allow(concurrency) — submitters mixing bad rows are the test.
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        // dcmt-lint: allow(concurrency) — pipelined futures per submitter.
        std::vector<std::future<serve::Score>> futures;
        std::vector<int> expect_row;  // -1 = malformed
        for (int i = 0; i < kPerThread; ++i) {
          const std::size_t row =
              static_cast<std::size_t>((t * kPerThread + i) % 128);
          if (i % 3 == 2) {
            futures.push_back(router.Submit(malformed(row, (t + i) % 4)));
            expect_row.push_back(-1);
          } else {
            futures.push_back(router.Submit(fixture.rows[row]));
            expect_row.push_back(static_cast<int>(row));
          }
        }
        for (std::size_t k = 0; k < futures.size(); ++k) {
          const serve::Score score = futures[k].get();
          if (expect_row[k] < 0) {
            if (score.status == serve::ServeStatus::kRejectedInvalid) {
              rejected_invalid.fetch_add(1);
            } else {
              wrong.fetch_add(1);
            }
          } else if (score.ok() &&
                     score.pctcvr ==
                         want.pctcvr[static_cast<std::size_t>(expect_row[k])]) {
            scored_exact.fetch_add(1);
          } else {
            wrong.fetch_add(1);
          }
        }
      });
    }
    for (auto& submitter : submitters) submitter.join();
  }
  router.Shutdown();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(rejected_invalid.load(), kThreads * kPerThread / 3);
  EXPECT_EQ(scored_exact.load(), kThreads * kPerThread * 2 / 3);
  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.rejected_invalid, rejected_invalid.load());
  EXPECT_EQ(stats.scored, scored_exact.load());
}

// --- Prefetch channel shutdown edges (core/prefetch.h). ---------------------

TEST(TsanStress, ChannelCancelWakesBlockedProducer) {
  // Repeatedly strand a producer on a full channel and Cancel it: TSan
  // checks the wakeup edge the StreamingBatcher destructor depends on.
  for (int round = 0; round < 20; ++round) {
    core::BoundedChannel<int> channel(1);
    // dcmt-lint: allow(concurrency) — cross-thread assertion counter.
    std::atomic<int> pushed{0};
    // dcmt-lint: allow(concurrency) — the blocked-producer wakeup is the test.
    std::thread producer([&] {
      for (int i = 0; i < 2; ++i) {
        if (!channel.Push(i)) return;
        pushed.fetch_add(1);
      }
    });
    while (pushed.load() < 1) std::this_thread::yield();
    channel.Cancel();
    producer.join();  // hangs here if Cancel fails to wake the Push
    EXPECT_EQ(pushed.load(), 1);
  }
}

// --- serve::Router: swap + shutdown races (DESIGN.md §16). ------------------

TEST(TsanStress, RouterSwapUnderSustainedLoad) {
  // Client threads hammer the router while another thread hot-swaps the
  // model back and forth: TSan checks the Acquire/Release pin protocol and
  // the double-buffer flip against real traffic.
  ScopedParallelConfig config(2, 1);
  ServeStressFixture& fixture = ServeFixture();
  models::ModelConfig model_config;
  model_config.embedding_dim = 4;
  model_config.hidden_dims = {8, 4};
  auto make_version = [&](int seed) {
    models::ModelConfig c = model_config;
    c.seed = seed;
    return std::make_unique<serve::FrozenModel>(
        std::make_unique<core::Dcmt>(fixture.generator->Schema(), c),
        fixture.generator->Schema());
  };
  serve::RouterConfig router_config;
  router_config.num_engines = 2;
  router_config.engine.max_batch = 8;
  serve::Router router(make_version(1), router_config);
  // dcmt-lint: allow(concurrency) — cross-thread assertion counter.
  std::atomic<int> ok{0};
  {
    // dcmt-lint: allow(concurrency) — submitters racing Swap are the test.
    std::vector<std::thread> submitters;
    for (int t = 0; t < 3; ++t) {
      submitters.emplace_back([&router, &fixture, &ok, t] {
        for (int i = 0; i < 40; ++i) {
          const std::size_t row =
              static_cast<std::size_t>((t * 40 + i) % 128);
          if (router.ScoreSync(fixture.rows[row]).ok()) {
            ok.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (int swap = 2; swap < 6; ++swap) {
      std::unique_ptr<const serve::FrozenModel> retired =
          router.Swap(make_version(swap));
      EXPECT_NE(retired, nullptr);
      // `retired` destroyed here, while traffic continues on the new
      // version — safe because Swap quiesced every pin on it.
    }
    for (auto& submitter : submitters) submitter.join();
  }
  router.Shutdown();
  EXPECT_EQ(ok.load(), 3 * 40);  // zero drops across four hot swaps
  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.scored, 3 * 40);
  EXPECT_EQ(stats.swaps, 4);
}

TEST(TsanStress, RouterSubmittersRaceShutdown) {
  // Shutdown lands inside a submit torrent: every future resolves (scored
  // or explicitly rejected), nothing hangs, nothing aborts.
  ScopedParallelConfig config(2, 1);
  ServeStressFixture& fixture = ServeFixture();
  models::ModelConfig model_config;
  model_config.embedding_dim = 4;
  model_config.hidden_dims = {8, 4};
  serve::RouterConfig router_config;
  router_config.num_engines = 2;
  router_config.engine.max_batch = 4;
  serve::Router router(
      std::make_unique<serve::FrozenModel>(
          std::make_unique<core::Dcmt>(fixture.generator->Schema(),
                                       model_config),
          fixture.generator->Schema()),
      router_config);
  // dcmt-lint: allow(concurrency) — cross-thread assertion counter.
  std::atomic<int> resolved{0};
  // dcmt-lint: allow(concurrency) — cross-thread assertion counter.
  std::atomic<int> torn{0};
  {
    // dcmt-lint: allow(concurrency) — the race with Shutdown is the test.
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&router, &fixture, &resolved, &torn, t] {
        for (int i = 0; i < 30; ++i) {
          const serve::Score score = router.ScoreSync(
              fixture.rows[static_cast<std::size_t>((t * 30 + i) % 128)]);
          if (score.status == serve::ServeStatus::kOk ||
              score.status == serve::ServeStatus::kRejectedShutdown) {
            resolved.fetch_add(1, std::memory_order_relaxed);
          } else {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    router.Shutdown();  // races the torrent; also exercises idempotence
    router.Shutdown();
    for (auto& submitter : submitters) submitter.join();
  }
  EXPECT_EQ(resolved.load(), 4 * 30);
  EXPECT_EQ(torn.load(), 0);
  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.scored + stats.rejected_shutdown, 4 * 30);
}

/// Losses of `steps` DCMT training steps on 1024-row batches: every step
/// splits into four micro-batches (DESIGN.md §9), so the join's shard
/// hand-off, the per-micro-batch gradient sinks and their reduction all run.
std::vector<float> SplitTrainingLosses(int steps) {
  data::DatasetProfile profile = data::AeEsProfile();
  profile.train_exposures = 2048;
  profile.test_exposures = 1;
  const data::Dataset train = data::SyntheticLogGenerator(profile).GenerateTrain();
  models::ModelConfig config;
  config.embedding_dim = 4;
  config.hidden_dims = {8, 4};
  core::Dcmt model(train.schema(), config);
  optim::Adam adam(model.parameters(), 0.01f);
  std::vector<float> losses;
  for (int step = 0; step < steps; ++step) {
    const data::Batch batch =
        data::MakeContiguousBatch(train, (step % 2) * 1024, 1024);
    adam.ZeroGrad();
    const models::Predictions preds = model.Forward(batch);
    Tensor loss = model.Loss(batch, preds);
    loss.Backward();
    adam.Step();
    losses.push_back(loss.item());
  }
  return losses;
}

TEST(TsanStress, SplitTrainingStepsBesideServingOnOnePool) {
  // Micro-batch training steps share the pool with a serving engine whose
  // submitters score through it at the same time. Whichever caller loses
  // the pool runs its shards inline, with the same partition, so the
  // training losses are the bits of a run without serving.
  ScopedParallelConfig config(4, 1);
  const std::vector<float> alone = SplitTrainingLosses(3);
  ServeStressFixture& fixture = ServeFixture();
  serve::EngineConfig engine_config;
  engine_config.max_batch = 16;
  serve::Engine engine(fixture.frozen.get(), engine_config);
  // dcmt-lint: allow(concurrency) — stop flag and counter for the submitter.
  std::atomic<bool> stop{false};
  // dcmt-lint: allow(concurrency) — cross-thread assertion counter.
  std::atomic<int> scored{0};
  // dcmt-lint: allow(concurrency) — a real submitter beside the trainer.
  std::thread submitter([&] {
    for (std::size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      const serve::Score score = engine.ScoreSync(fixture.rows[i % 128]);
      if (score.ok() && score.pctcvr > 0.0f && score.pctcvr < 1.0f) {
        scored.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  const std::vector<float> beside = SplitTrainingLosses(3);
  stop.store(true, std::memory_order_relaxed);
  submitter.join();
  engine.Shutdown();
  EXPECT_EQ(alone, beside);
  EXPECT_GT(scored.load(), 0);
  EXPECT_EQ(engine.stats().scored, engine.stats().submitted);
}

TEST(TsanStress, ContinualLoopRefreshesUnderConcurrency) {
  // A miniature 2-day continual cycle with every concurrent subsystem live
  // at once: a 2-engine router republished via Swap mid-run, the streaming
  // batcher's prefetch thread, and pool workers under the trainer. TSan
  // must see a clean run and the drop-free contract must hold.
  ScopedParallelConfig config(4, 1);
  const std::string work_dir =
      ::testing::TempDir() + "/tsan_continual";
  std::filesystem::remove_all(work_dir);

  data::DatasetProfile profile;
  profile.name = "tsan-tiny";
  profile.num_users = 40;
  profile.num_items = 60;
  profile.train_exposures = 800;
  profile.test_exposures = 200;
  profile.target_click_rate = 0.3;
  profile.target_cvr_given_click = 0.3;
  profile.seed = 29;
  profile.conversion_lag.max_lag_days = 1;
  data::SyntheticLogGenerator generator(profile);

  eval::ContinualConfig continual;
  continual.ab.days = 2;
  continual.ab.page_views_per_day = 30;
  continual.ab.candidates_per_pv = 6;
  continual.ab.exposed_per_pv = 3;
  continual.ab.first_screen = 2;
  continual.ab.lag.max_lag_days = 1;
  continual.variant = "dcmt";
  continual.model.embedding_dim = 4;
  continual.model.hidden_dims = {8, 4};
  continual.model.seed = 3;
  continual.train.epochs = 1;
  continual.train.batch_size = 128;
  continual.train.learning_rate = 0.01f;
  continual.pretrain_exposures = 800;
  continual.refresh = eval::RefreshCadence::kDaily;
  continual.rows_per_shard = 256;
  continual.router_engines = 2;
  continual.prefetch_depth = 2;
  continual.work_dir = work_dir;

  eval::ContinualLoop loop(&generator, continual);
  const eval::ContinualResult result = loop.Run();
  ASSERT_EQ(result.days.size(), 2u);
  EXPECT_EQ(result.dropped_requests, 0);
  EXPECT_EQ(result.swaps, 1);
  EXPECT_FALSE(result.halted);
}

}  // namespace
}  // namespace dcmt
