#include "serve/router.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

namespace dcmt {
namespace serve {

// ---------------------------------------------------------------------------
// ConsistentHashRing
// ---------------------------------------------------------------------------

namespace {

constexpr int kRingReplicas = 64;

std::uint64_t Mix(std::uint64_t x) {
  // SplitMix64 finalizer: cheap, deterministic, well-distributed.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

ConsistentHashRing::ConsistentHashRing(int num_shards) {
  if (num_shards < 1) {
    std::fprintf(stderr, "ConsistentHashRing: num_shards must be >= 1\n");
    std::abort();
  }
  points_.reserve(static_cast<std::size_t>(num_shards) * kRingReplicas);
  for (int shard = 0; shard < num_shards; ++shard) {
    for (int replica = 0; replica < kRingReplicas; ++replica) {
      const std::uint64_t point =
          Mix((static_cast<std::uint64_t>(static_cast<std::uint32_t>(shard))
               << 32) |
              static_cast<std::uint32_t>(replica));
      points_.push_back({point, shard});
    }
  }
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              // Ties broken by shard id so the ring is a total order and
              // every instance agrees on ownership.
              return a.hash != b.hash ? a.hash < b.hash : a.shard < b.shard;
            });
}

int ConsistentHashRing::ShardFor(std::uint64_t key) const {
  const std::uint64_t h = Mix(key);
  // First ring point clockwise of h, wrapping past the top.
  auto it = std::lower_bound(points_.begin(), points_.end(), h,
                             [](const Point& p, std::uint64_t hash) {
                               return p.hash < hash;
                             });
  if (it == points_.end()) it = points_.begin();
  return it->shard;
}

// ---------------------------------------------------------------------------
// SwappableModel
// ---------------------------------------------------------------------------

SwappableModel::SwappableModel(std::unique_ptr<const FrozenModel> initial) {
  if (initial == nullptr) {
    std::fprintf(stderr, "SwappableModel: initial model must be non-null\n");
    std::abort();
  }
  schema_ = initial->schema();
  slots_[0] = std::move(initial);
}

const FrozenModel* SwappableModel::Acquire(std::uint64_t* ticket) {
  // Left-right pinning: bump the slot's in-flight count, then re-check that
  // the slot is still active. A swap that flipped away between the load and
  // the bump sees our pin (both are seq_cst) and waits for it — but we would
  // be pinning the *retiring* version after its successor was published, so
  // retry on the new slot instead. The loop runs at most a handful of times
  // even under a swap storm: each retry observes a strictly newer flip.
  for (;;) {
    const int slot = active_.load(std::memory_order_acquire);
    inflight_[static_cast<std::size_t>(slot)].fetch_add(
        1, std::memory_order_seq_cst);
    if (active_.load(std::memory_order_seq_cst) == slot) {
      *ticket = static_cast<std::uint64_t>(slot);
      return slots_[static_cast<std::size_t>(slot)].get();
    }
    inflight_[static_cast<std::size_t>(slot)].fetch_sub(
        1, std::memory_order_seq_cst);
  }
}

void SwappableModel::Release(std::uint64_t ticket) {
  inflight_[static_cast<std::size_t>(ticket)].fetch_sub(
      1, std::memory_order_seq_cst);
}

std::unique_ptr<const FrozenModel> SwappableModel::Swap(
    std::unique_ptr<const FrozenModel> next) {
  if (next == nullptr) {
    std::fprintf(stderr, "SwappableModel::Swap: next model must be non-null\n");
    std::abort();
  }
  if (next->schema().DeepVocabSizes() != schema_.DeepVocabSizes() ||
      next->schema().WideVocabSizes() != schema_.WideVocabSizes()) {
    std::fprintf(stderr, "SwappableModel::Swap: next model's schema differs\n");
    std::abort();
  }
  std::lock_guard<std::mutex> lock(swap_mu_);
  const int old_slot = active_.load(std::memory_order_relaxed);
  const int target = 1 - old_slot;
  // A straggler from before the *previous* swap could still pin the target
  // slot for an instant (Acquire's bump-then-recheck window); wait it out
  // before installing over the slot.
  while (inflight_[static_cast<std::size_t>(target)].load(
             std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  slots_[static_cast<std::size_t>(target)] = std::move(next);
  active_.store(target, std::memory_order_seq_cst);
  // Quiesce the retiring version: once its pin count hits zero every batch
  // scored against it has been fulfilled (engines Release only after
  // fulfilling all promises), so the caller may destroy it — zero drops.
  while (inflight_[static_cast<std::size_t>(old_slot)].load(
             std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  ++swap_count_;
  return std::move(slots_[static_cast<std::size_t>(old_slot)]);
}

std::int64_t SwappableModel::swaps() const {
  std::lock_guard<std::mutex> lock(swap_mu_);
  return swap_count_;
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

Router::Router(std::unique_ptr<const FrozenModel> model, RouterConfig config)
    : model_(std::move(model)),
      user_ring_(config.num_engines > 0 ? config.num_engines : 1) {
  if (config.num_engines < 1) {
    std::fprintf(stderr, "Router: num_engines must be >= 1\n");
    std::abort();
  }
  engines_.reserve(static_cast<std::size_t>(config.num_engines));
  for (int i = 0; i < config.num_engines; ++i) {
    engines_.push_back(std::make_unique<Engine>(&model_, config.engine));
  }
  obs::Registry& reg = obs::Registry::Global();
  obs_requests_ = reg.counter("dcmt_router_requests_total");
  obs_swaps_ = reg.counter("dcmt_router_swaps_total");
}

Router::~Router() { Shutdown(); }

int Router::EngineFor(std::int64_t user) const {
  return user_ring_.ShardFor(static_cast<std::uint64_t>(user));
}

std::future<Score> Router::Submit(const data::Example& example) {
  obs_requests_.Inc();
  Engine& engine = *engines_[static_cast<std::size_t>(
      EngineFor(example.user_index))];
  return engine.TrySubmit(example);
}

Score Router::ScoreSync(const data::Example& example) {
  return Submit(example).get();
}

std::unique_ptr<const FrozenModel> Router::Swap(
    std::unique_ptr<const FrozenModel> next) {
  std::unique_ptr<const FrozenModel> retired = model_.Swap(std::move(next));
  obs_swaps_.Inc();
  return retired;
}

void Router::Shutdown() {
  for (auto& engine : engines_) engine->Shutdown();
}

RouterStats Router::stats() const {
  RouterStats stats;
  for (const auto& engine : engines_) {
    EngineStats es = engine->stats();
    stats.routed += es.submitted;
    stats.scored += es.scored;
    stats.rejected_overload += es.rejected_overload;
    stats.rejected_shutdown += es.rejected_shutdown;
    stats.rejected_invalid += es.rejected_invalid;
    stats.per_engine.push_back(es);
  }
  stats.swaps = model_.swaps();
  return stats;
}

}  // namespace serve
}  // namespace dcmt
