// Tests for the sharded serving router tier (DESIGN.md §16): consistent-hash
// ring determinism/coverage/minimal-remap, the per-shard embedding LRU cache
// (eviction, SetSource invalidation, coherence against the live FrozenModel),
// router score parity with direct FrozenModel scoring at one and several
// threads, deadline propagation into the micro-batcher, deterministic
// overload shedding, rejection after shutdown, and the zero-drop hot model
// swap (every response bit-exact against exactly one of the two versions).

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
#include "serve/shard_cache.h"

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

// --- ShardedEmbeddingCache over a fake source. ------------------------------

/// Deterministic in-memory row source: row (t, id) = [t*1000 + id] * dim.
class FakeRowSource : public serve::EmbeddingRowSource {
 public:
  FakeRowSource(int tables, int rows, int dim, float bias = 0.0f)
      : tables_(tables), rows_(rows), dim_(dim), bias_(bias) {}
  int table_count() const override { return tables_; }
  int table_rows(int) const override { return rows_; }
  int table_dim(int) const override { return dim_; }
  bool Row(int table, int id, std::vector<float>* out) const override {
    if (table < 0 || table >= tables_ || id < 0 || id >= rows_) return false;
    out->assign(static_cast<std::size_t>(dim_),
                static_cast<float>(table * 1000 + id) + bias_);
    return true;
  }

 private:
  int tables_, rows_, dim_;
  float bias_;
};

TEST(ShardCacheTest, HitsMissesAndLruEviction) {
  const FakeRowSource source(1, 100, 4);
  // One shard, capacity 2: eviction order is fully observable.
  serve::ShardedEmbeddingCache cache(1, 2, &source);
  std::vector<float> row;
  bool hit = true;
  ASSERT_TRUE(cache.Get(0, 10, &row, &hit));
  EXPECT_FALSE(hit);
  EXPECT_EQ(row, std::vector<float>(4, 10.0f));
  ASSERT_TRUE(cache.Get(0, 11, &row, &hit));
  EXPECT_FALSE(hit);
  ASSERT_TRUE(cache.Get(0, 10, &row, &hit));  // refreshes 10's recency
  EXPECT_TRUE(hit);
  ASSERT_TRUE(cache.Get(0, 12, &row, &hit));  // evicts 11 (LRU), not 10
  EXPECT_FALSE(hit);
  ASSERT_TRUE(cache.Get(0, 10, &row, &hit));
  EXPECT_TRUE(hit);
  ASSERT_TRUE(cache.Get(0, 11, &row, &hit));  // 11 was evicted: miss again
  EXPECT_FALSE(hit);

  const serve::ShardCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 4);
  EXPECT_EQ(stats.evictions, 2);
  EXPECT_EQ(stats.resident_rows, 2);
  EXPECT_EQ(stats.resident_bytes,
            2 * static_cast<std::int64_t>(4 * sizeof(float)));
}

TEST(ShardCacheTest, OutOfRangeAndUnboundSourceReturnFalse) {
  const FakeRowSource source(2, 10, 4);
  serve::ShardedEmbeddingCache cache(2, 8, &source);
  std::vector<float> row;
  EXPECT_FALSE(cache.Get(2, 0, &row));   // table out of range
  EXPECT_FALSE(cache.Get(0, 10, &row));  // id out of range
  serve::ShardedEmbeddingCache unbound(2, 8, nullptr);
  EXPECT_FALSE(unbound.Get(0, 0, &row));
  EXPECT_EQ(unbound.stats().misses, 0);
}

TEST(ShardCacheTest, SetSourceInvalidatesEveryShardAndRebinds) {
  const FakeRowSource a(1, 100, 4, /*bias=*/0.0f);
  const FakeRowSource b(1, 100, 4, /*bias=*/0.5f);
  // Capacity far above 20 rows: nothing evicts, so the resident count and
  // the invalidation count are exact regardless of how the ring splits keys.
  serve::ShardedEmbeddingCache cache(4, 64, &a);
  std::vector<float> row;
  for (int id = 0; id < 20; ++id) ASSERT_TRUE(cache.Get(0, id, &row));
  EXPECT_EQ(cache.stats().resident_rows, 20);

  cache.SetSource(&b);
  serve::ShardCacheStats stats = cache.stats();
  EXPECT_EQ(stats.resident_rows, 0);
  EXPECT_EQ(stats.resident_bytes, 0);
  EXPECT_EQ(stats.invalidations, 20);

  // Every row now comes from b — no stale a-row survives the rebind.
  bool hit = true;
  ASSERT_TRUE(cache.Get(0, 7, &row, &hit));
  EXPECT_FALSE(hit);
  EXPECT_EQ(row, std::vector<float>(4, 7.5f));
}

TEST(ShardCacheTest, RowOwnershipFollowsTheRing) {
  const FakeRowSource source(2, 50, 4);
  serve::ShardedEmbeddingCache cache(3, 64, &source);
  const serve::ConsistentHashRing ring(3, 64);
  for (int table = 0; table < 2; ++table) {
    for (int id = 0; id < 50; ++id) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(table))
           << 32) |
          static_cast<std::uint32_t>(id);
      EXPECT_EQ(cache.ShardFor(table, id), ring.ShardFor(key));
    }
  }
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

TEST_F(RouterTest, CacheRowsMatchActiveModel) {
  // Coherence: rows served through the sharded cache are bit-identical to
  // the FrozenModel's own tables.
  std::unique_ptr<serve::FrozenModel> frozen = LoadA();
  ASSERT_NE(frozen, nullptr);
  ASSERT_GT(frozen->EmbeddingTableCount(), 0);
  serve::FrozenModelRowSource source(frozen.get());
  serve::ShardedEmbeddingCache cache(3, 128, &source);
  for (int table = 0; table < frozen->EmbeddingTableCount(); ++table) {
    const int rows = frozen->EmbeddingTableRows(table);
    ASSERT_GT(rows, 0);
    for (int id = 0; id < rows; ++id) {
      std::vector<float> via_cache, via_model;
      ASSERT_TRUE(cache.Get(table, id, &via_cache));
      ASSERT_TRUE(frozen->EmbeddingRow(table, id, &via_model));
      ASSERT_EQ(via_cache, via_model) << "table " << table << " id " << id;
      // Second read is a hit and must serve the same bits.
      bool hit = false;
      ASSERT_TRUE(cache.Get(table, id, &via_cache, &hit));
      EXPECT_TRUE(hit);
      ASSERT_EQ(via_cache, via_model);
    }
  }
}

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
    // Embedding traffic flowed through the cache.
    EXPECT_GT(stats.cache.hits + stats.cache.misses, 0);
  }
}

TEST_F(RouterTest, DeadlinePropagationFlushesBeforeMaxWait) {
  std::unique_ptr<serve::FrozenModel> frozen = LoadA();
  ASSERT_NE(frozen, nullptr);
  serve::RouterConfig config;
  config.num_engines = 1;
  config.engine.max_batch = 1024;
  config.engine.max_wait_micros = 30000000;  // 30s: only a deadline flushes
  config.default_deadline_micros = 20000;    // 20ms request budget
  serve::Router router(std::move(frozen), config);
  const auto start = std::chrono::steady_clock::now();
  const serve::Score got = router.ScoreSync(rows_.front());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(got.status, serve::ServeStatus::kOk);
  // Way below max_wait (generous bound for slow CI); the request's own
  // deadline is what flushed the batch.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            10);
  EXPECT_EQ(router.stats().per_engine[0].flushed_deadline, 1);
}

TEST_F(RouterTest, OverloadShedsInsteadOfQueueingUnboundedly) {
  std::unique_ptr<serve::FrozenModel> frozen = LoadA();
  ASSERT_NE(frozen, nullptr);
  serve::RouterConfig config;
  config.num_engines = 1;
  config.engine.max_batch = 64;
  config.engine.max_wait_micros = 30000000;  // park the dispatcher
  config.engine.queue_capacity = 4;
  config.default_deadline_micros = 0;  // no deadline: the queue just fills
  serve::Router router(std::move(frozen), config);
  // dcmt-lint: allow(concurrency) — future tokens carry the scores.
  std::vector<std::future<serve::Score>> accepted;
  for (int i = 0; i < 4; ++i) accepted.push_back(router.Submit(rows_.front()));
  // Queue is at capacity and the dispatcher is parked on its 30s deadline:
  // the 5th submit must be shed, deterministically and immediately.
  serve::Score shed = router.Submit(rows_.front()).get();
  EXPECT_EQ(shed.status, serve::ServeStatus::kRejectedOverload);
  router.Shutdown();  // drains the 4 accepted requests
  for (auto& f : accepted) {
    EXPECT_EQ(f.get().status, serve::ServeStatus::kOk);
  }
  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.scored, 4);
  EXPECT_EQ(stats.rejected_overload, 1);
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
    config.engine.max_wait_micros = 200;
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
    // dcmt-lint: allow(concurrency) — sustained client load racing Swap.
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::size_t row =
              static_cast<std::size_t>(t * kPerThread + i) % rows_.size();
          const serve::Score got = router.Submit(rows_[row], 0).get();
          if (got.status != serve::ServeStatus::kOk) {
            not_ok.fetch_add(1);
          } else if (got.pctcvr == want_a[row]) {
            on_a.fetch_add(1);
          } else if (got.pctcvr == want_b[row]) {
            on_b.fetch_add(1);
          } else {
            mismatched.fetch_add(1);
          }
        }
      });
    }
    // Swap A -> B in the middle of the torrent.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::unique_ptr<const serve::FrozenModel> retired =
        router.Swap(LoadB());
    ASSERT_NE(retired, nullptr);
    retired.reset();  // safe: every pinned batch on A has been fulfilled
    // dcmt-lint: allow(concurrency) — joining the submitter fleet.
    for (std::thread& thread : submitters) thread.join();
    router.Shutdown();

    // Zero drops, zero torn scores: every response came off exactly one
    // version's weights.
    EXPECT_EQ(not_ok.load(), 0);
    EXPECT_EQ(mismatched.load(), 0);
    EXPECT_EQ(on_a.load() + on_b.load(), kSubmitters * kPerThread);
    EXPECT_GT(on_b.load(), 0);  // the swap landed mid-stream
    const serve::RouterStats stats = router.stats();
    EXPECT_EQ(stats.swaps, 1);
    EXPECT_EQ(stats.scored, kSubmitters * kPerThread);
    // The swap invalidated the embedding caches.
    EXPECT_GT(stats.cache.invalidations, 0);
  }
}

TEST_F(RouterTest, SwapRebindsCacheToNewVersionRows) {
  std::unique_ptr<serve::FrozenModel> ref_b = LoadB();
  ASSERT_NE(ref_b, nullptr);
  std::unique_ptr<serve::FrozenModel> frozen = LoadA();
  ASSERT_NE(frozen, nullptr);
  serve::RouterConfig config;
  config.num_engines = 2;
  serve::Router router(std::move(frozen), config);
  EXPECT_EQ(router.ScoreSync(rows_.front()).status, serve::ServeStatus::kOk);
  ASSERT_GT(router.cache().stats().resident_rows, 0);

  std::unique_ptr<const serve::FrozenModel> retired = router.Swap(LoadB());
  ASSERT_NE(retired, nullptr);
  // Post-swap, resolved rows must be B's bits (coherence across swap).
  EXPECT_EQ(router.ScoreSync(rows_.front()).status, serve::ServeStatus::kOk);
  for (int table = 0; table < ref_b->EmbeddingTableCount(); ++table) {
    std::vector<float> via_cache, via_b;
    ASSERT_TRUE(router.cache().Get(table, 0, &via_cache));
    ASSERT_TRUE(ref_b->EmbeddingRow(table, 0, &via_b));
    EXPECT_EQ(via_cache, via_b) << "table " << table;
  }
}

}  // namespace
}  // namespace dcmt
