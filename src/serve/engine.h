#ifndef DCMT_SERVE_ENGINE_H_
#define DCMT_SERVE_ENGINE_H_

// The serving engine is, with src/core/, one of the sanctioned concurrency
// sites in the tree (enforced by the dcmt_lint concurrency rule — under
// src/serve/ the sanction covers engine/router/shard_cache, the files that
// own queues and dispatcher threads): it owns the bounded request queue and
// its dispatcher thread. Scoring runs on the dispatcher; its large GEMMs
// fan out through core::ThreadPool (see FrozenModel).
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/obs.h"
#include "data/example.h"
#include "serve/frozen_model.h"

namespace dcmt {
namespace serve {

/// Micro-batching policy knobs (DESIGN.md §13).
struct EngineConfig {
  /// Largest batch the dispatcher takes from the queue at once. A free
  /// dispatcher never waits to fill it: it takes min(max_batch, queued)
  /// rows as soon as any are queued, and rows that arrive while a batch
  /// scores form the next one, so batches grow only with the backlog.
  int max_batch = 256;
  /// Submit() blocks (backpressure) while this many requests are queued;
  /// TrySubmit() rejects with kRejectedOverload instead of blocking.
  int queue_capacity = 4096;
};

/// Terminal status of one serving request. Every future an engine or router
/// hands out resolves — rejected requests resolve immediately with a
/// non-kOk status instead of being dropped or aborting the process.
enum class ServeStatus : std::uint8_t {
  kOk = 0,
  /// Submitted after Shutdown() (or while shutdown raced the enqueue); the
  /// request was never queued.
  kRejectedShutdown = 1,
  /// TrySubmit() found the bounded queue at capacity — the explicit
  /// load-shedding policy of the router tier (DESIGN.md §16).
  kRejectedOverload = 2,
  /// The row does not fit the model's schema: a field count differs from
  /// the schema's, or an id lies outside its field's vocabulary. Checked at
  /// admission, so a malformed request never reaches the scoring kernels.
  kRejectedInvalid = 3,
};

const char* ServeStatusName(ServeStatus status);

/// One request's serving scores. `status` is kOk for scored requests; a
/// rejected request carries zeroed scores and the rejection reason.
struct Score {
  float pctr = 0.0f;
  float pcvr = 0.0f;
  float pctcvr = 0.0f;
  ServeStatus status = ServeStatus::kOk;
  bool ok() const { return status == ServeStatus::kOk; }
};

/// Point-in-time engine counters (all monotone except max_* watermarks).
struct EngineStats {
  std::int64_t submitted = 0;
  std::int64_t scored = 0;
  std::int64_t batches = 0;
  std::int64_t flushed_full = 0;  // batch reached max_batch
  /// Partial batch: the free dispatcher took fewer than max_batch rows
  /// because that was all that was queued. The name predates the
  /// work-conserving dispatcher (partial batches used to wait for a flush
  /// deadline); it stays because the benchmark's
  /// engine.flush_deadline_share reads it.
  std::int64_t flushed_deadline = 0;
  std::int64_t flushed_drain = 0;  // partial batch taken while stopping
  std::int64_t rejected_shutdown = 0;  // Submit/TrySubmit after Shutdown
  std::int64_t rejected_overload = 0;  // TrySubmit against a full queue
  std::int64_t rejected_invalid = 0;   // row does not fit the schema
  std::int64_t max_queue_depth = 0;
  std::int64_t max_batch_scored = 0;
  /// Times the dispatcher's spin window lapsed with nothing queued and it
  /// blocked on the queue's condvar (dcmt_serve_dispatcher_parks_total).
  std::int64_t parks = 0;
};

/// Source of the FrozenModel a batch is scored against. The engine pins one
/// model per batch — Acquire before scoring, Release after every promise of
/// the batch is fulfilled — so a hot swap (serve::SwappableModel) can
/// retire the previous version the moment its last in-flight batch
/// completes, and every response is computed entirely against one version
/// (never a torn mix). Implementations must be thread-safe.
class ModelSource {
 public:
  virtual ~ModelSource() = default;
  /// Returns the model for the next batch; `*ticket` is opaque state handed
  /// back to Release. The returned model stays valid until Release.
  virtual const FrozenModel* Acquire(std::uint64_t* ticket) = 0;
  virtual void Release(std::uint64_t ticket) = 0;
  /// Schema shared by every model this source hands out; admission checks
  /// requests against it. Must stay valid for the source's lifetime.
  virtual const data::FeatureSchema& schema() const = 0;
};

/// Micro-batching scoring engine over a FrozenModel (DESIGN.md §13).
///
/// Producers Submit() single rows into a bounded MPSC queue; one dispatcher
/// thread scores them through FrozenModel::ScoreExamples (whose large GEMMs
/// fan out across core::ThreadPool). Dispatch is work-conserving: whenever
/// the dispatcher is free and rows are queued, it takes up to max_batch of
/// them at once — no timer holds a queued row back. Rows that arrive while
/// a batch scores form the next batch, so batches grow with load. Each
/// Submit returns a future fulfilled when its batch completes.
///
/// Spin-then-park: a dispatcher with nothing queued busy-polls an atomic
/// queued-row count for core::kSpinNanos (the thread pool's window) before
/// it blocks on the queue's condvar. A row that lands inside the window
/// starts scoring without a futex wake-up on either side; the price is
/// that under steady traffic a dispatcher holds a core.
///
/// Determinism: per-row forward kernels are batch-composition-independent
/// (see FrozenModel), so a request's Score does not depend on which requests
/// it happened to coalesce with — timing changes batching, never values.
///
/// Shutdown (or destruction) stops accepting new work, drains every queued
/// request through scoring — no queued request is ever dropped — and joins
/// the dispatcher. Shutdown is idempotent and safe to race from several
/// threads: every caller returns only after the drain + join completed.
/// Submitting after Shutdown resolves the future immediately with
/// ServeStatus::kRejectedShutdown — it never aborts. A row that does not
/// fit the schema (field counts, id ranges) resolves immediately with
/// kRejectedInvalid.
///
/// Observability: queue depth, batch size, queue wait and request latency
/// histograms plus request/batch/rejection counters, recorded through
/// dcmt::obs under dcmt_serve_* names.
class Engine {
 public:
  /// `model` is non-owning and must outlive the engine (fixed, no swap).
  explicit Engine(const FrozenModel* model, EngineConfig config = {});
  /// Scores each batch against `source->Acquire()` — the hot-swap path.
  /// `source` is non-owning and must outlive the engine.
  explicit Engine(ModelSource* source, EngineConfig config = {});
  ~Engine();  // == Shutdown()

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Enqueues one row; blocks while the queue is at capacity. The returned
  /// future is fulfilled by the dispatcher after the row's batch is scored,
  /// or immediately with kRejectedShutdown when the engine is stopping.
  std::future<Score> Submit(data::Example example);

  /// Non-blocking Submit: a full queue rejects immediately with
  /// kRejectedOverload instead of exerting backpressure — the router tier's
  /// load-shedding primitive.
  std::future<Score> TrySubmit(data::Example example);

  /// Submit + wait, for callers without their own pipelining.
  Score ScoreSync(data::Example example);

  /// Bulk helper: submits every row (pipelining against the dispatcher) and
  /// waits for all scores, returned in input order.
  std::vector<Score> ScoreAll(const std::vector<data::Example>& examples);

  /// Drains all queued requests through scoring, then joins the dispatcher.
  /// Idempotent; concurrent callers all block until the drain completed.
  void Shutdown();

  EngineStats stats() const;
  const EngineConfig& config() const { return config_; }

 private:
  struct Request {
    data::Example example;
    std::promise<Score> promise;
    std::int64_t enqueue_ns = 0;
  };

  /// Adapts a fixed FrozenModel* to the ModelSource seam.
  class FixedSource : public ModelSource {
   public:
    explicit FixedSource(const FrozenModel* model) : model_(model) {}
    const FrozenModel* Acquire(std::uint64_t* ticket) override {
      *ticket = 0;
      return model_;
    }
    void Release(std::uint64_t) override {}
    const data::FeatureSchema& schema() const override {
      return model_->schema();
    }

   private:
    const FrozenModel* model_;
  };

  void Start();
  /// Submit and TrySubmit: admission check, then enqueue — waiting for
  /// queue space when `block`, shedding with kRejectedOverload otherwise.
  std::future<Score> Enqueue(data::Example example, bool block);
  /// The one admission check: field counts and every id's range against
  /// the source's schema.
  bool FitsSchema(const data::Example& example) const;
  void DispatchLoop();
  void ScoreAndFulfill(std::vector<Request>* batch);
  std::future<Score> RejectedFuture(ServeStatus status);

  FixedSource fixed_source_;
  ModelSource* source_;
  const EngineConfig config_;

  mutable std::mutex mu_;
  std::condition_variable queue_ready_;  // producers -> parked dispatcher
  std::condition_variable queue_space_;  // dispatcher -> blocked producers
  std::deque<Request> queue_;
  std::vector<int> deep_vocab_;  // admission bounds, from source_->schema()
  std::vector<int> wide_vocab_;
  // Written under mu_; the dispatcher also reads both without it while it
  // spins. queued_ mirrors queue_.size().
  std::atomic<bool> stopping_{false};
  std::atomic<std::int64_t> queued_{0};
  EngineStats stats_;
  std::mutex join_mu_;  // serializes the dispatcher join across Shutdowns

  // obs handles (acquired once; recording is a no-op while obs is disabled).
  obs::Counter obs_requests_;
  obs::Counter obs_batches_;
  obs::Counter obs_rejected_;
  obs::Counter obs_parks_;
  obs::Histogram obs_queue_depth_;
  obs::Histogram obs_batch_size_;
  obs::Histogram obs_queue_wait_seconds_;
  obs::Histogram obs_latency_seconds_;
  obs::Sum obs_score_seconds_;

  std::thread dispatcher_;  // started last: DispatchLoop reads members above
};

}  // namespace serve
}  // namespace dcmt

#endif  // DCMT_SERVE_ENGINE_H_
