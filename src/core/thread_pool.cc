#include "core/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "core/obs.h"
#include "core/spin.h"

namespace dcmt {
namespace core {
namespace {

[[noreturn]] void Fatal(const char* msg) {
  std::fprintf(stderr, "dcmt thread_pool fatal: %s\n", msg);
  std::abort();
}

// Set on every thread that is currently executing a shard (workers for their
// whole lifetime, the calling thread only while it runs shard 0).
thread_local bool tls_in_parallel_region = false;

std::atomic<std::int64_t> g_grain_cap{0};

}  // namespace

/// Shared worker state. One job is in flight at a time: the dispatching
/// caller holds `dispatch_mu` from publishing the job until every worker has
/// acknowledged it, so a single (job, job_shards, pending) slot suffices.
///
/// Hand-off: the caller fills the slot, sets `pending` to the worker count
/// and bumps `generation`. Each worker, spinning or parked, sees the new
/// generation, runs its shard if it has one, and acknowledges by
/// decrementing `pending` — every worker acknowledges every generation, so
/// no worker can still be reading the slot when the next job rewrites it.
/// The mutex and condvars are only touched when a side actually parked:
/// `parked_workers` / `caller_parked` are set under `mu` before a waiter
/// re-checks its predicate, and the waker re-reads them after its own
/// seq_cst store, so one of the two always sees the other (no lost wake-up).
struct ThreadPool::State {
  std::mutex dispatch_mu;  // held by the one caller whose job is in flight
  std::mutex mu;           // guards parking only
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  std::vector<std::thread> workers;
  const std::function<void(int)>* job = nullptr;  // published by generation
  int job_shards = 0;
  std::atomic<std::uint64_t> generation{0};
  std::atomic<int> pending{0};
  std::atomic<int> parked_workers{0};
  std::atomic<bool> caller_parked{false};
  std::atomic<bool> stop{false};

  void WorkerLoop(int index, std::uint64_t seen) {
    tls_in_parallel_region = true;
    for (;;) {
      const auto ready = [&] {
        return stop.load() || generation.load() != seen;
      };
      if (!SpinUntil(ready)) {
        std::unique_lock<std::mutex> lock(mu);
        parked_workers.fetch_add(1);
        work_cv.wait(lock, ready);
        parked_workers.fetch_sub(1);
      }
      if (stop.load()) return;
      // The caller waits for every acknowledgement before it publishes the
      // next job, so generations never skip.
      seen = generation.load(std::memory_order_acquire);
      // Worker `index` owns shard index + 1 (the caller runs shard 0).
      if (index + 1 < job_shards) (*job)(index + 1);
      if (pending.fetch_sub(1) == 1 && caller_parked.load()) {
        std::lock_guard<std::mutex> lock(mu);
        done_cv.notify_one();
      }
    }
  }

  /// Publishes (fn, shards) to every worker and runs shard 0 on the calling
  /// thread; returns once every worker has acknowledged. Requires
  /// dispatch_mu.
  void Dispatch(int shards, const std::function<void(int)>* fn) {
    job = fn;
    job_shards = shards;
    pending.store(static_cast<int>(workers.size()));
    generation.fetch_add(1);
    if (parked_workers.load() > 0) {
      std::lock_guard<std::mutex> lock(mu);
      work_cv.notify_all();
    }
    tls_in_parallel_region = true;
    (*fn)(0);
    tls_in_parallel_region = false;
    const auto done = [&] { return pending.load() == 0; };
    if (!SpinUntil(done)) {
      std::unique_lock<std::mutex> lock(mu);
      caller_parked.store(true);
      done_cv.wait(lock, done);
      caller_parked.store(false);
    }
  }
};

// ThreadPool owns State; the raw pointer exists precisely to keep
// <thread>/<mutex> members out of the public header.
// dcmt-lint: allow(raw-new-delete) — sole owning allocation, paired delete.
ThreadPool::ThreadPool() : state_(new State) { Start(DefaultNumThreads()); }

ThreadPool::~ThreadPool() {
  Stop();
  // dcmt-lint: allow(raw-new-delete) — paired with the constructor above.
  delete state_;
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool;
  return pool;
}

bool ThreadPool::InParallelRegion() { return tls_in_parallel_region; }

void ThreadPool::Start(int n) {
  num_threads_ = std::max(1, n);
  state_->stop.store(false);
  // Workers start from the generation current *before* they exist; reading
  // it inside each worker could skip a job published in the meantime and
  // leave the caller waiting for an acknowledgement that never comes.
  const std::uint64_t seen = state_->generation.load();
  state_->workers.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int i = 0; i < num_threads_ - 1; ++i) {
    state_->workers.emplace_back(
        [this, i, seen] { state_->WorkerLoop(i, seen); });
  }
}

void ThreadPool::Stop() {
  state_->stop.store(true);
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->work_cv.notify_all();
  }
  for (std::thread& t : state_->workers) t.join();
  state_->workers.clear();
}

void ThreadPool::SetNumThreads(int n) {
  if (tls_in_parallel_region) Fatal("SetNumThreads inside a parallel region");
  if (n <= 0) n = DefaultNumThreads();
  if (n == num_threads_) return;
  std::lock_guard<std::mutex> lock(state_->dispatch_mu);
  Stop();
  Start(n);
}

void ThreadPool::RunShards(int shards, const std::function<void(int)>& fn) {
  static obs::Counter obs_inline_runs =
      obs::Registry::Global().counter("dcmt_pool_inline_runs_total");
  static obs::Counter obs_dispatches =
      obs::Registry::Global().counter("dcmt_pool_dispatch_total");
  static obs::Counter obs_shards_executed =
      obs::Registry::Global().counter("dcmt_pool_shards_executed_total");
  static obs::Sum obs_busy_seconds =
      obs::Registry::Global().sum("dcmt_pool_busy_seconds_total");

  if (shards > num_threads_) Fatal("RunShards wants more shards than threads");
  // Serial, nested, or contended (another caller's job holds the pool): run
  // every shard in order on this thread. The partition is unchanged, so the
  // results are the same bits the pool would have produced.
  std::unique_lock<std::mutex> dispatch(state_->dispatch_mu, std::defer_lock);
  if (shards <= 1 || tls_in_parallel_region || !dispatch.try_lock()) {
    obs_inline_runs.Inc();
    for (int s = 0; s < shards; ++s) fn(s);
    return;
  }
  obs_dispatches.Inc();
  obs_shards_executed.Inc(shards);

  // With observability on, wrap the job so each shard accumulates its wall
  // time into the sharded busy-seconds sum. The wrapper exists only while
  // recording; the disabled path posts `fn` untouched.
  if (obs::Enabled()) {
    const std::function<void(int)> timed_fn = [&fn](int s) {
      const std::int64_t t0 = obs::NowNanos();
      fn(s);
      obs_busy_seconds.Add(static_cast<double>(obs::NowNanos() - t0) * 1e-9);
    };
    state_->Dispatch(shards, &timed_fn);
  } else {
    state_->Dispatch(shards, &fn);
  }
}

int DefaultNumThreads() {
  // A typo must fail loudly, not silently pick a width.
  const char* env = std::getenv("DCMT_THREADS");
  const std::string_view value = env != nullptr ? env : "";
  int n = 0;
  if (!value.empty()) {
    const char* last = value.data() + value.size();
    const std::from_chars_result parsed =
        std::from_chars(value.data(), last, n);
    if (parsed.ec != std::errc() || parsed.ptr != last || n < 0) {
      std::fprintf(stderr,
                   "dcmt thread_pool fatal: DCMT_THREADS must be a "
                   "non-negative integer, got '%s'\n",
                   env);
      std::abort();
    }
  }
  if (n > 0) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int ParallelChunks(std::int64_t range, std::int64_t grain) {
  if (range <= 0) return 0;
  if (ThreadPool::InParallelRegion()) return 1;
  const int threads = ThreadPool::Global().num_threads();
  if (threads <= 1) return 1;
  if (grain < 1) grain = 1;
  const std::int64_t cap = g_grain_cap.load(std::memory_order_relaxed);
  if (cap > 0) grain = std::min(grain, cap);
  const std::int64_t max_chunks = (range + grain - 1) / grain;
  return static_cast<int>(std::min<std::int64_t>(threads, max_chunks));
}

void ParallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 const std::function<void(std::int64_t, std::int64_t)>& fn) {
  const std::int64_t range = end - begin;
  if (range <= 0) return;
  const int chunks = ParallelChunks(range, grain);
  if (chunks <= 1) {
    fn(begin, end);
    return;
  }
  const std::int64_t base = range / chunks;
  const std::int64_t rem = range % chunks;
  ThreadPool::Global().RunShards(chunks, [&](int c) {
    const std::int64_t lo =
        begin + c * base + std::min<std::int64_t>(c, rem);
    const std::int64_t hi = lo + base + (c < rem ? 1 : 0);
    fn(lo, hi);
  });
}

void SetGrainCapForTesting(std::int64_t max_grain) {
  g_grain_cap.store(max_grain, std::memory_order_relaxed);
}

}  // namespace core
}  // namespace dcmt
