// Tests for the multi-engine serving router tier (DESIGN.md §16):
// consistent-hash ring determinism/coverage/minimal-remap, sticky user
// routing, router score parity with direct FrozenModel scoring at one and
// several threads, bounded-queue overload shedding, admission of malformed
// rows, rejection after shutdown, and the zero-drop hot model swap (every
// response bit-exact against exactly one of the two versions).

// dcmt-lint: allow(concurrency) — cross-thread assertion counters.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
// dcmt-lint: allow(concurrency) — futures carry router scores cross-thread.
#include <future>
#include <memory>
#include <set>
#include <string>
// dcmt-lint: allow(concurrency) — real submitter threads for the router.
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "core/thread_pool.h"
#include "data/generator.h"
#include "nn/serialize.h"
#include "optim/adam.h"
#include "serve/engine.h"
#include "serve/frozen_model.h"
#include "serve/router.h"

namespace dcmt {
namespace {

data::DatasetProfile TinyProfile() {
  data::DatasetProfile p;
  p.name = "tiny";
  p.num_users = 50;
  p.num_items = 80;
  p.train_exposures = 600;
  p.test_exposures = 200;
  p.target_click_rate = 0.3;
  p.target_cvr_given_click = 0.3;
  p.seed = 11;
  return p;
}

models::ModelConfig TinyConfig() {
  models::ModelConfig c;
  c.embedding_dim = 4;
  c.hidden_dims = {8, 4};
  c.num_experts = 2;
  c.specific_experts = 1;
  c.shared_experts = 1;
  c.seed = 5;
  return c;
}

/// RAII thread configuration: parallel for the scope, serial after.
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) {
    core::ThreadPool::Global().SetNumThreads(threads);
    core::SetGrainCapForTesting(1);
  }
  ~ScopedThreads() {
    core::SetGrainCapForTesting(0);
    core::ThreadPool::Global().SetNumThreads(1);
  }
};

// --- ConsistentHashRing. ----------------------------------------------------

TEST(ConsistentHashRingTest, DeterministicInRangeAndCoversAllShards) {
  const serve::ConsistentHashRing ring(4);
  const serve::ConsistentHashRing twin(4);
  std::vector<int> per_shard(4, 0);
  for (std::uint64_t key = 0; key < 10000; ++key) {
    const int shard = ring.ShardFor(key);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 4);
    EXPECT_EQ(twin.ShardFor(key), shard);  // identical rings agree
    ++per_shard[static_cast<std::size_t>(shard)];
  }
  // Virtual nodes keep the split roughly balanced; each shard owns a
  // nontrivial slice (expected 25% each; 5% is a generous floor).
  for (int shard = 0; shard < 4; ++shard) {
    EXPECT_GT(per_shard[static_cast<std::size_t>(shard)], 500)
        << "shard " << shard;
  }
}

TEST(ConsistentHashRingTest, AddingAShardRemapsOnlyOntoTheNewShard) {
  // The point of consistent hashing: growing the fleet from 4 to 5 shards
  // moves only the keys the new shard now owns — every remapped key lands
  // on shard 4, and only a minority fraction moves at all.
  const serve::ConsistentHashRing before(4);
  const serve::ConsistentHashRing after(5);
  const int kKeys = 20000;
  int moved = 0;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    const int was = before.ShardFor(key);
    const int now = after.ShardFor(key);
    if (was != now) {
      ++moved;
      EXPECT_EQ(now, 4) << "key " << key << " moved " << was << "->" << now;
    }
  }
  EXPECT_GT(moved, 0);
  // Expected fraction ~1/5; modulo hashing would move ~4/5.
  EXPECT_LT(moved, kKeys / 2);
}

// --- Router over trained models. --------------------------------------------

class RouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SyntheticLogGenerator gen(TinyProfile());
    train_ = gen.GenerateTrain();
    rows_.assign(train_.examples().begin(), train_.examples().begin() + 60);

    // Two versions of the same architecture: A after 2 optimizer steps,
    // B after 6 — genuinely different weights, identical shape.
    auto model = core::CreateModel("dcmt", train_.schema(), TinyConfig());
    optim::Adam adam(model->parameters(), 0.01f);
    const data::Batch batch = data::MakeContiguousBatch(train_, 0, 96);
    auto step = [&](int steps) {
      for (int i = 0; i < steps; ++i) {
        adam.ZeroGrad();
        const models::Predictions preds = model->Forward(batch);
        Tensor loss = model->Loss(batch, preds);
        loss.Backward();
        adam.Step();
      }
    };
    step(2);
    // Per-process names: ctest -j runs this fixture's tests concurrently.
    const std::string pid =
        std::to_string(static_cast<long long>(::getpid()));
    path_a_ = ::testing::TempDir() + "/router_a_" + pid + ".ckpt";
    ASSERT_TRUE(nn::SaveParameters(*model, path_a_));
    step(4);
    path_b_ = ::testing::TempDir() + "/router_b_" + pid + ".ckpt";
    ASSERT_TRUE(nn::SaveParameters(*model, path_b_));
  }

  std::unique_ptr<serve::FrozenModel> LoadA() {
    return serve::FrozenModel::Load("dcmt", train_.schema(), TinyConfig(),
                                    path_a_);
  }
  std::unique_ptr<serve::FrozenModel> LoadB() {
    return serve::FrozenModel::Load("dcmt", train_.schema(), TinyConfig(),
                                    path_b_);
  }

  /// Per-row pctcvr under `frozen`, scored one row at a time (batch
  /// composition does not change scores — pinned by serve_test).
  std::vector<float> Expected(const serve::FrozenModel& frozen) {
    std::vector<float> out;
    out.reserve(rows_.size());
    for (const data::Example& row : rows_) {
      out.push_back(frozen.ScoreExamples({row}).pctcvr[0]);
    }
    return out;
  }

  data::Dataset train_;
  std::vector<data::Example> rows_;
  std::string path_a_;
  std::string path_b_;
};

TEST_F(RouterTest, RoutesAreStickyAndCoverAllEngines) {
  std::unique_ptr<serve::FrozenModel> frozen = LoadA();
  ASSERT_NE(frozen, nullptr);
  serve::RouterConfig config;
  config.num_engines = 3;
  serve::Router router(std::move(frozen), config);
  EXPECT_EQ(router.num_engines(), 3);
  std::set<int> used;
  for (int user = 0; user < 200; ++user) {
    const int engine = router.EngineFor(user);
    ASSERT_GE(engine, 0);
    ASSERT_LT(engine, 3);
    EXPECT_EQ(router.EngineFor(user), engine);  // sticky
    used.insert(engine);
  }
  EXPECT_EQ(used.size(), 3u);
}

TEST_F(RouterTest, ScoresMatchDirectModelAtOneAndManyThreads) {
  std::unique_ptr<serve::FrozenModel> reference = LoadA();
  ASSERT_NE(reference, nullptr);
  const std::vector<float> want = Expected(*reference);

  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    ScopedThreads scoped(threads);
    std::unique_ptr<serve::FrozenModel> frozen = LoadA();
    ASSERT_NE(frozen, nullptr);
    serve::RouterConfig config;
    config.num_engines = 3;
    config.engine.max_batch = 7;  // force ragged micro-batches
    serve::Router router(std::move(frozen), config);
    // dcmt-lint: allow(concurrency) — future tokens carry the scores.
    std::vector<std::future<serve::Score>> futures;
    futures.reserve(rows_.size());
    for (const data::Example& row : rows_) futures.push_back(router.Submit(row));
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const serve::Score got = futures[i].get();
      ASSERT_EQ(got.status, serve::ServeStatus::kOk) << "row " << i;
      EXPECT_EQ(got.pctcvr, want[i]) << "row " << i;
    }
    const serve::RouterStats stats = router.stats();
    EXPECT_EQ(stats.routed, static_cast<std::int64_t>(rows_.size()));
    EXPECT_EQ(stats.scored, static_cast<std::int64_t>(rows_.size()));
    EXPECT_EQ(stats.rejected_overload, 0);
    EXPECT_EQ(stats.rejected_shutdown, 0);
  }
}

TEST_F(RouterTest, OverloadShedsInsteadOfQueueingUnboundedly) {
  // The router cannot hold its engines' dispatchers, so whether a given
  // row of this burst is shed depends on timing (the deterministic shed is
  // ServeTest.TrySubmitShedsLoadWhenQueueIsFull). What must hold for every
  // interleaving: no queue grows past capacity, every future resolves as
  // scored or shed, and the fleet counters add up across engines.
  std::unique_ptr<serve::FrozenModel> frozen = LoadA();
  ASSERT_NE(frozen, nullptr);
  serve::RouterConfig config;
  config.num_engines = 2;
  config.engine.max_batch = 1;
  config.engine.queue_capacity = 2;
  serve::Router router(std::move(frozen), config);
  const int kBurst = 512;
  // dcmt-lint: allow(concurrency) — future tokens carry the scores.
  std::vector<std::future<serve::Score>> outcomes;
  outcomes.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    outcomes.push_back(
        router.Submit(rows_[static_cast<std::size_t>(i) % rows_.size()]));
  }
  router.Shutdown();  // drains whatever was accepted
  std::int64_t ok = 0;
  std::int64_t shed = 0;
  for (auto& f : outcomes) {
    const serve::ServeStatus status = f.get().status;
    if (status == serve::ServeStatus::kOk) {
      ++ok;
    } else {
      EXPECT_EQ(status, serve::ServeStatus::kRejectedOverload);
      ++shed;
    }
  }
  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_EQ(stats.scored, ok);
  EXPECT_EQ(stats.routed, ok);
  EXPECT_EQ(stats.rejected_overload, shed);
  std::int64_t per_engine_shed = 0;
  for (const serve::EngineStats& es : stats.per_engine) {
    per_engine_shed += es.rejected_overload;
    EXPECT_LE(es.max_queue_depth, config.engine.queue_capacity);
  }
  EXPECT_EQ(per_engine_shed, stats.rejected_overload);
}

TEST_F(RouterTest, MalformedRequestIsRejectedAndTheFleetKeepsServing) {
  std::unique_ptr<serve::FrozenModel> frozen = LoadA();
  ASSERT_NE(frozen, nullptr);
  const std::vector<float> want = Expected(*frozen);
  serve::Router router(std::move(frozen), {});
  data::Example bad = rows_.front();
  bad.deep_ids.front() = 1 << 30;  // far outside every vocabulary
  // Before admission checks this aborted the process inside the scoring
  // kernels, losing every in-flight request.
  EXPECT_EQ(router.ScoreSync(bad).status,
            serve::ServeStatus::kRejectedInvalid);
  bad = rows_.front();
  bad.wide_ids.clear();
  EXPECT_EQ(router.ScoreSync(bad).status,
            serve::ServeStatus::kRejectedInvalid);
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const serve::Score got = router.ScoreSync(rows_[i]);
    ASSERT_TRUE(got.ok()) << "row " << i;
    EXPECT_EQ(got.pctcvr, want[i]) << "row " << i;
  }
  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.rejected_invalid, 2);
  EXPECT_EQ(stats.scored, static_cast<std::int64_t>(rows_.size()));
}

TEST_F(RouterTest, SubmitAfterShutdownRejectsWithStatus) {
  std::unique_ptr<serve::FrozenModel> frozen = LoadA();
  ASSERT_NE(frozen, nullptr);
  serve::Router router(std::move(frozen), {});
  EXPECT_EQ(router.ScoreSync(rows_.front()).status, serve::ServeStatus::kOk);
  router.Shutdown();
  router.Shutdown();  // idempotent
  const serve::Score rejected = router.ScoreSync(rows_.front());
  EXPECT_EQ(rejected.status, serve::ServeStatus::kRejectedShutdown);
  EXPECT_EQ(rejected.pctcvr, 0.0f);
  EXPECT_EQ(router.stats().rejected_shutdown, 1);
}

// --- SwappableModel protocol. -----------------------------------------------

TEST_F(RouterTest, SwapBlocksUntilPinnedReaderReleases) {
  std::unique_ptr<serve::FrozenModel> a = LoadA();
  std::unique_ptr<serve::FrozenModel> b = LoadB();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  const serve::FrozenModel* a_raw = a.get();
  serve::SwappableModel swappable(std::move(a));

  std::uint64_t ticket = 0;
  EXPECT_EQ(swappable.Acquire(&ticket), a_raw);

  // dcmt-lint: allow(concurrency) — cross-thread swap-progress flag.
  std::atomic<bool> swapped{false};
  // dcmt-lint: allow(concurrency) — exercising the swap/pin protocol.
  std::thread swapper([&] {
    std::unique_ptr<const serve::FrozenModel> retired =
        swappable.Swap(std::move(b));
    EXPECT_EQ(retired.get(), a_raw);
    swapped.store(true);
  });
  // The swap must not complete while our pin is outstanding. (Timing-based
  // in one direction only: a correct implementation always passes; a broken
  // one that doesn't wait fails deterministically.)
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(swapped.load());
  // New readers already land on the new version while the old pin drains.
  std::uint64_t ticket2 = 0;
  const serve::FrozenModel* current = swappable.Acquire(&ticket2);
  EXPECT_NE(current, a_raw);
  swappable.Release(ticket2);
  swappable.Release(ticket);
  swapper.join();
  EXPECT_TRUE(swapped.load());
  EXPECT_EQ(swappable.swaps(), 1);
}

TEST_F(RouterTest, SwapRefusesAModelWithOtherFieldVocabularies) {
  // Admission checks ids against the schema the source reports; a version
  // with other vocabularies would let admitted rows index past its tables.
  data::FeatureSchema smaller = train_.schema();
  smaller.deep_fields[0].vocab_size /= 2;
  serve::SwappableModel swappable(LoadA());
  auto other = std::make_unique<serve::FrozenModel>(
      core::CreateModel("dcmt", smaller, TinyConfig()), smaller);
  EXPECT_DEATH(swappable.Swap(std::move(other)), "schema differs");
}

// --- Hot swap under load (satellite: drop-free + bit-exact). ----------------

TEST_F(RouterTest, HotSwapIsDropFreeAndBitExactUnderSustainedLoad) {
  std::unique_ptr<serve::FrozenModel> ref_a = LoadA();
  std::unique_ptr<serve::FrozenModel> ref_b = LoadB();
  ASSERT_NE(ref_a, nullptr);
  ASSERT_NE(ref_b, nullptr);
  const std::vector<float> want_a = Expected(*ref_a);
  const std::vector<float> want_b = Expected(*ref_b);
  for (std::size_t i = 0; i < want_a.size(); ++i) {
    ASSERT_NE(want_a[i], want_b[i]) << "versions must be distinguishable";
  }

  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    ScopedThreads scoped(threads);
    std::unique_ptr<serve::FrozenModel> frozen = LoadA();
    ASSERT_NE(frozen, nullptr);
    serve::RouterConfig config;
    config.num_engines = 2;
    config.engine.max_batch = 5;
    serve::Router router(std::move(frozen), config);

    const int kSubmitters = 3;
    const int kPerThread = 40;
    // dcmt-lint: allow(concurrency) — cross-thread assertion counter.
    std::atomic<std::int64_t> not_ok{0};
    // dcmt-lint: allow(concurrency) — cross-thread assertion counter.
    std::atomic<std::int64_t> mismatched{0};
    // dcmt-lint: allow(concurrency) — cross-thread assertion counter.
    std::atomic<std::int64_t> on_a{0};
    // dcmt-lint: allow(concurrency) — cross-thread assertion counter.
    std::atomic<std::int64_t> on_b{0};
    // dcmt-lint: allow(concurrency) — cross-thread progress counter.
    std::atomic<std::int64_t> answered{0};
    // dcmt-lint: allow(concurrency) — set once Swap has returned.
    std::atomic<bool> swapped{false};
    // dcmt-lint: allow(concurrency) — sustained client load racing Swap.
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        // The load stays on until this thread has sent kPerThread rows
        // after Swap returned, so every thread's traffic straddles it.
        int after_swap = 0;
        for (int i = 0; after_swap < kPerThread; ++i) {
          if (swapped.load()) ++after_swap;
          const std::size_t row =
              static_cast<std::size_t>(t * kPerThread + i) % rows_.size();
          const serve::Score got = router.Submit(rows_[row]).get();
          if (got.status != serve::ServeStatus::kOk) {
            not_ok.fetch_add(1);
          } else if (got.pctcvr == want_a[row]) {
            on_a.fetch_add(1);
          } else if (got.pctcvr == want_b[row]) {
            on_b.fetch_add(1);
          } else {
            mismatched.fetch_add(1);
          }
          answered.fetch_add(1);
        }
      });
    }
    // Swap A -> B in the middle of the torrent: after kPerThread answers
    // per thread on A, while the submitters keep sending.
    while (answered.load() < kSubmitters * kPerThread) {
      std::this_thread::yield();
    }
    std::unique_ptr<const serve::FrozenModel> retired =
        router.Swap(LoadB());
    swapped.store(true);
    ASSERT_NE(retired, nullptr);
    retired.reset();  // safe: every pinned batch on A has been fulfilled
    // dcmt-lint: allow(concurrency) — joining the submitter fleet.
    for (std::thread& thread : submitters) thread.join();
    router.Shutdown();

    // Zero drops, zero torn scores: every response came off exactly one
    // version's weights. Rows answered before Swap began were scored on A;
    // rows sent after it returned are scored on B.
    EXPECT_EQ(not_ok.load(), 0);
    EXPECT_EQ(mismatched.load(), 0);
    EXPECT_EQ(on_a.load() + on_b.load(), answered.load());
    EXPECT_GE(on_a.load(), kSubmitters * kPerThread);
    EXPECT_GE(on_b.load(), kSubmitters * kPerThread);
    const serve::RouterStats stats = router.stats();
    EXPECT_EQ(stats.swaps, 1);
    EXPECT_EQ(stats.scored, answered.load());
  }
}

}  // namespace
}  // namespace dcmt
