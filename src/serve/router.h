#ifndef DCMT_SERVE_ROUTER_H_
#define DCMT_SERVE_ROUTER_H_

// Sharded multi-instance serving tier (DESIGN.md §16).
//
// The paper deploys DCMT in Alipay Search, where pCTR/pCVR serving is a
// fleet, not one process. serve::Router models that fleet in-process: N
// serve::Engine instances (each its own micro-batcher + dispatcher thread)
// front one hot-swappable FrozenModel. Requests are routed to engines by
// consistent-hashing the user id, so users are sticky to an engine and
// growing the fleet remaps only the users the new engine takes over. Every
// engine scores against the same replicated model, so a score does not
// depend on the engine that computed it.
//
//   * Admission: each engine checks a request's field counts and id ranges
//     against the schema before queueing it; a malformed request resolves
//     at once with ServeStatus::kRejectedInvalid and never reaches scoring.
//   * Overload policy: bounded queue + reject-with-status. The router never
//     blocks a caller; a full engine queue resolves the future immediately
//     with ServeStatus::kRejectedOverload (counted in dcmt::obs), keeping
//     queueing delay bounded instead of letting latency run away past
//     saturation.
//   * Hot model swap: SwappableModel double-buffers two FrozenModel
//     versions behind an atomic active-slot index. Engines pin a version
//     per batch (ModelSource::Acquire/Release), the swap flips the index
//     and waits for the old version's in-flight batches to drain, so every
//     request completes — zero drops — and every response is computed
//     entirely against exactly one version, never a torn mix. Swap()
//     returns the retired version to the caller.
//
// This file is a sanctioned concurrency site (dcmt_lint `concurrency`
// rule): it owns the swap atomics and the engine fleet.

#include <array>
#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "core/obs.h"
#include "data/example.h"
#include "serve/engine.h"
#include "serve/frozen_model.h"

namespace dcmt {
namespace serve {

/// Consistent hashing of user ids over `num_shards` engines, 64 virtual
/// nodes each. Deterministic: the ring depends only on num_shards, and
/// adding a shard remaps only the keys the new shard now owns.
class ConsistentHashRing {
 public:
  explicit ConsistentHashRing(int num_shards);

  /// Owning shard of `key`, in [0, num_shards).
  int ShardFor(std::uint64_t key) const;

 private:
  struct Point {
    std::uint64_t hash;
    int shard;
  };
  std::vector<Point> points_;  // sorted by hash
};

/// Double-buffered hot-swappable FrozenModel (the v2-checkpoint publish
/// path's serving end). Readers pin the active version with Acquire and
/// must Release when done; Swap installs a new version into the inactive
/// slot, flips the active index atomically, and blocks until the previous
/// version's pins drain — so the returned retired model is safe to destroy
/// and no reader ever observes a torn version.
class SwappableModel : public ModelSource {
 public:
  explicit SwappableModel(std::unique_ptr<const FrozenModel> initial);

  const FrozenModel* Acquire(std::uint64_t* ticket) override;
  void Release(std::uint64_t ticket) override;
  /// The initial version's schema; Swap requires every later version to
  /// share its field vocabularies, so admission checks stay valid.
  const data::FeatureSchema& schema() const override { return schema_; }

  /// Publishes `next` and retires the current version. Serialized across
  /// callers; blocks until every in-flight pin of the retired version is
  /// released. Never blocks Acquire — readers keep scoring throughout.
  std::unique_ptr<const FrozenModel> Swap(
      std::unique_ptr<const FrozenModel> next);

  /// Currently active version. Stable only while the caller can rule out a
  /// concurrent Swap (tests, setup); scoring paths use Acquire/Release.
  const FrozenModel* active() const {
    return slots_[static_cast<std::size_t>(
                      active_.load(std::memory_order_acquire))]
        .get();
  }

  std::int64_t swaps() const;

 private:
  data::FeatureSchema schema_;
  std::array<std::unique_ptr<const FrozenModel>, 2> slots_;
  std::atomic<int> active_{0};
  std::array<std::atomic<std::int64_t>, 2> inflight_{};
  mutable std::mutex swap_mu_;  // serializes swappers; guards swap_count_
  std::int64_t swap_count_ = 0;
};

/// Router-tier knobs (DESIGN.md §16).
struct RouterConfig {
  /// Engine instances. Production would spread these over machines;
  /// in-process they share core::ThreadPool.
  int num_engines = 2;
  /// Per-engine micro-batcher policy.
  EngineConfig engine;
};

/// Aggregated router counters (engine stats summed over the fleet).
struct RouterStats {
  std::int64_t routed = 0;     // requests accepted into some engine's queue
  std::int64_t scored = 0;
  std::int64_t rejected_overload = 0;
  std::int64_t rejected_shutdown = 0;
  std::int64_t rejected_invalid = 0;
  std::int64_t swaps = 0;
  /// Always zero: the router caches no embedding rows. Kept only because
  /// the e2ebench harness reads these three fields; they go once the
  /// benchmark retires its cache.hit_ratio and cache.invalidations metrics
  /// (ROADMAP item 3).
  struct {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t invalidations = 0;
  } cache;
  std::vector<EngineStats> per_engine;
};

/// The serving fleet front end. Thread-safe: any number of client threads
/// may Submit concurrently with one thread calling Swap.
class Router {
 public:
  explicit Router(std::unique_ptr<const FrozenModel> model,
                  RouterConfig config = {});
  ~Router();  // == Shutdown()

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Routes one request into its user's engine. Never blocks: a malformed
  /// row, overload or shutdown resolve the future immediately with the
  /// corresponding rejection status.
  std::future<Score> Submit(const data::Example& example);

  /// Submit + wait.
  Score ScoreSync(const data::Example& example);

  /// Zero-drop hot model swap; see SwappableModel::Swap. Returns the retired
  /// version.
  std::unique_ptr<const FrozenModel> Swap(
      std::unique_ptr<const FrozenModel> next);

  /// Drains every engine and stops accepting work. Idempotent.
  void Shutdown();

  RouterStats stats() const;

  /// Engine owning `user` under the routing ring (exposed for tests).
  int EngineFor(std::int64_t user) const;
  int num_engines() const { return static_cast<int>(engines_.size()); }
  const Engine& engine(int i) const {
    return *engines_[static_cast<std::size_t>(i)];
  }
  const SwappableModel& model() const { return model_; }

 private:
  SwappableModel model_;
  ConsistentHashRing user_ring_;
  std::vector<std::unique_ptr<Engine>> engines_;

  obs::Counter obs_requests_;
  obs::Counter obs_swaps_;
};

}  // namespace serve
}  // namespace dcmt

#endif  // DCMT_SERVE_ROUTER_H_
