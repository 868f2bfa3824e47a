#include "serve/engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <utility>

namespace dcmt {
namespace serve {
namespace {

[[noreturn]] void Fatal(const char* msg) {
  std::fprintf(stderr, "dcmt serve fatal: %s\n", msg);
  std::abort();
}

// Fixed histogram geometries: metric names are a global contract, so the
// bounds must not depend on any one engine's config (two engines with
// different configs share these cells).
constexpr int kBatchSizeBins = 32;
constexpr double kBatchSizeHi = 1024.0;
constexpr int kQueueDepthBins = 64;
constexpr double kQueueDepthHi = 4096.0;
constexpr int kLatencyBins = 64;
constexpr double kLatencyHiSeconds = 1.0;
// 20 us bins: a queue wait is tens of microseconds while the dispatcher
// keeps up; waits past 1.28 ms clamp into the top bin.
constexpr int kQueueWaitBins = 64;
constexpr double kQueueWaitHiSeconds = 1.28e-3;

bool IdsFit(const std::vector<int>& ids, const std::vector<int>& vocab) {
  if (ids.size() != vocab.size()) return false;
  for (std::size_t f = 0; f < ids.size(); ++f) {
    if (ids[f] < 0 || ids[f] >= vocab[f]) return false;
  }
  return true;
}

}  // namespace

const char* ServeStatusName(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kRejectedShutdown:
      return "rejected_shutdown";
    case ServeStatus::kRejectedOverload:
      return "rejected_overload";
    case ServeStatus::kRejectedInvalid:
      return "rejected_invalid";
  }
  return "unknown";
}

Engine::Engine(const FrozenModel* model, EngineConfig config)
    : fixed_source_(model), source_(&fixed_source_), config_(config) {
  if (model == nullptr) Fatal("Engine requires a FrozenModel");
  Start();
}

Engine::Engine(ModelSource* source, EngineConfig config)
    : fixed_source_(nullptr), source_(source), config_(config) {
  if (source == nullptr) Fatal("Engine requires a ModelSource");
  Start();
}

void Engine::Start() {
  if (config_.max_batch < 1 || config_.queue_capacity < 1) {
    Fatal("EngineConfig: max_batch/queue_capacity must be >= 1");
  }
  deep_vocab_ = source_->schema().DeepVocabSizes();
  wide_vocab_ = source_->schema().WideVocabSizes();
  obs::Registry& registry = obs::Registry::Global();
  obs_requests_ = registry.counter("dcmt_serve_requests_total");
  obs_batches_ = registry.counter("dcmt_serve_batches_total");
  obs_rejected_ = registry.counter("dcmt_serve_rejected_total");
  obs_queue_depth_ = registry.histogram("dcmt_serve_queue_depth",
                                        kQueueDepthBins, 0.0, kQueueDepthHi);
  obs_batch_size_ = registry.histogram("dcmt_serve_batch_size", kBatchSizeBins,
                                       0.0, kBatchSizeHi);
  obs_queue_wait_seconds_ =
      registry.histogram("dcmt_serve_queue_wait_seconds", kQueueWaitBins, 0.0,
                         kQueueWaitHiSeconds);
  obs_latency_seconds_ = registry.histogram(
      "dcmt_serve_request_latency_seconds", kLatencyBins, 0.0,
      kLatencyHiSeconds);
  obs_score_seconds_ = registry.sum("dcmt_serve_score_seconds_total");
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

Engine::~Engine() { Shutdown(); }

std::future<Score> Engine::RejectedFuture(ServeStatus status) {
  std::promise<Score> promise;
  std::future<Score> future = promise.get_future();
  Score score;
  score.status = status;
  promise.set_value(score);
  obs_rejected_.Inc();
  return future;
}

bool Engine::FitsSchema(const data::Example& example) const {
  return IdsFit(example.deep_ids, deep_vocab_) &&
         IdsFit(example.wide_ids, wide_vocab_);
}

std::future<Score> Engine::Submit(data::Example example) {
  return Enqueue(std::move(example), /*block=*/true);
}

std::future<Score> Engine::TrySubmit(data::Example example) {
  return Enqueue(std::move(example), /*block=*/false);
}

std::future<Score> Engine::Enqueue(data::Example example, bool block) {
  // Admission runs before the lock: the check reads only the row and the
  // immutable vocab bounds. A malformed row would otherwise abort the
  // process inside the scoring kernels, taking every in-flight request
  // with it.
  const bool fits = FitsSchema(example);
  std::future<Score> future;
  {
    std::unique_lock<std::mutex> lk(mu_);
    ServeStatus rejected = ServeStatus::kOk;
    if (!fits) {
      rejected = ServeStatus::kRejectedInvalid;
      ++stats_.rejected_invalid;
    } else {
      if (block) {
        queue_space_.wait(lk, [this] {
          return static_cast<int>(queue_.size()) < config_.queue_capacity ||
                 stopping_;
        });
      }
      if (stopping_) {
        // Shutdown raced (or preceded) the enqueue: the request was never
        // queued, so it resolves immediately with an explicit status.
        rejected = ServeStatus::kRejectedShutdown;
        ++stats_.rejected_shutdown;
      } else if (static_cast<int>(queue_.size()) >= config_.queue_capacity) {
        // Bounded queue + reject-with-status: the overload policy. Shedding
        // here keeps queueing delay bounded by capacity instead of letting
        // latency grow without bound past saturation.
        rejected = ServeStatus::kRejectedOverload;
        ++stats_.rejected_overload;
      }
    }
    if (rejected != ServeStatus::kOk) {
      lk.unlock();
      return RejectedFuture(rejected);
    }
    Request request;
    request.example = std::move(example);
    future = request.promise.get_future();
    request.enqueue_ns = obs::NowNanos();
    queue_.push_back(std::move(request));
    ++stats_.submitted;
    stats_.max_queue_depth = std::max(
        stats_.max_queue_depth, static_cast<std::int64_t>(queue_.size()));
    obs_queue_depth_.Observe(static_cast<double>(queue_.size()));
  }
  obs_requests_.Inc();
  queue_ready_.notify_one();
  return future;
}

Score Engine::ScoreSync(data::Example example) {
  return Submit(std::move(example)).get();
}

std::vector<Score> Engine::ScoreAll(const std::vector<data::Example>& examples) {
  std::vector<std::future<Score>> futures;
  futures.reserve(examples.size());
  for (const data::Example& example : examples) {
    futures.push_back(Submit(example));
  }
  std::vector<Score> scores;
  scores.reserve(futures.size());
  for (auto& future : futures) scores.push_back(future.get());
  return scores;
}

void Engine::Shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  queue_ready_.notify_all();
  queue_space_.notify_all();
  // Every Shutdown caller — including racing ones — must observe the drain
  // as complete on return, or a caller could destroy the engine while
  // another's join is still in flight. join_mu_ serializes the join; late
  // arrivals block until it finished, then see joinable() == false.
  std::lock_guard<std::mutex> join_lk(join_mu_);
  if (dispatcher_.joinable()) dispatcher_.join();
}

EngineStats Engine::stats() const {
  std::unique_lock<std::mutex> lk(mu_);
  return stats_;
}

void Engine::DispatchLoop() {
  for (;;) {
    std::vector<Request> batch;
    {
      std::unique_lock<std::mutex> lk(mu_);
      queue_ready_.wait(lk, [this] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) break;  // stopping_ and fully drained

      // Work-conserving dispatch: take everything queued, up to max_batch,
      // the moment the dispatcher is free. Rows that arrive while this
      // batch scores queue up and form the next batch, so under load
      // batches grow toward max_batch; under light load no row waits for
      // company it does not need. Shutdown drains the same way.
      const auto take = std::min<std::size_t>(
          static_cast<std::size_t>(config_.max_batch), queue_.size());
      const auto end = queue_.begin() + static_cast<std::ptrdiff_t>(take);
      batch.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(end));
      queue_.erase(queue_.begin(), end);
      // One counter per batch, so the three always sum to `batches`.
      if (static_cast<int>(take) >= config_.max_batch) {
        ++stats_.flushed_full;
      } else if (stopping_) {
        ++stats_.flushed_drain;
      } else {
        ++stats_.flushed_deadline;
      }
    }
    queue_space_.notify_all();
    ScoreAndFulfill(&batch);
  }
}

void Engine::ScoreAndFulfill(std::vector<Request>* batch) {
  // Pin one model version for the whole batch: every row of the batch is
  // scored against the same FrozenModel, and the version cannot be retired
  // (hot swap) until Release — after the last promise is fulfilled.
  std::uint64_t ticket = 0;
  const FrozenModel* model = source_->Acquire(&ticket);

  // The one clock read that starts scoring also ends each row's queue wait.
  const std::int64_t score_t0 = obs::NowNanos();
  std::vector<data::Example> examples;
  examples.reserve(batch->size());
  for (Request& request : *batch) {
    obs_queue_wait_seconds_.Observe(
        static_cast<double>(score_t0 - request.enqueue_ns) * 1e-9);
    examples.push_back(std::move(request.example));
  }
  const ScoreColumns columns = model->ScoreExamples(examples);
  const std::int64_t done_ns = obs::NowNanos();
  obs_score_seconds_.Add(static_cast<double>(done_ns - score_t0) * 1e-9);
  obs_batches_.Inc();
  obs_batch_size_.Observe(static_cast<double>(batch->size()));

  // Count the batch before fulfilling any promise: a caller whose future
  // just resolved must already see itself in stats() (ScoreSync-then-stats
  // is a natural pattern, and the tests rely on it).
  {
    std::unique_lock<std::mutex> lk(mu_);
    ++stats_.batches;
    stats_.scored += static_cast<std::int64_t>(batch->size());
    stats_.max_batch_scored = std::max(
        stats_.max_batch_scored, static_cast<std::int64_t>(batch->size()));
  }

  for (std::size_t i = 0; i < batch->size(); ++i) {
    Score score;
    score.pctr = columns.pctr[i];
    score.pcvr = columns.pcvr[i];
    score.pctcvr = columns.pctcvr[i];
    obs_latency_seconds_.Observe(
        static_cast<double>(done_ns - (*batch)[i].enqueue_ns) * 1e-9);
    (*batch)[i].promise.set_value(score);
  }
  source_->Release(ticket);
}

}  // namespace serve
}  // namespace dcmt
