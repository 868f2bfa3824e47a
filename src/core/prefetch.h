#ifndef DCMT_CORE_PREFETCH_H_
#define DCMT_CORE_PREFETCH_H_

// Concurrency seam for producer/consumer prefetch pipelines (DESIGN.md §15).
// All thread/mutex machinery for the streaming data path lives here, inside
// the src/core/ concurrency sanction (dcmt_lint `concurrency` rule), so that
// src/data/stream can decode shards and gather batches while the consumer
// trains, without holding any synchronization primitive of its own.
//
// BoundedChannel<T> is a single-producer/single-consumer blocking queue with
// a hard capacity: the producer blocks in Push when the channel is full
// (backpressure bounds RSS to `capacity` queued items), the consumer
// blocks in Pop when it is empty. Close() signals normal end-of-stream —
// Pop drains remaining items, then returns false. Cancel() is immediate
// shutdown: both sides unblock, queued items are dropped, nothing further
// transfers. WorkerThread is a join-in-destructor thread wrapper so owners
// can never leak a running producer.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

namespace dcmt {
namespace core {

template <typename T>
class BoundedChannel {
 public:
  explicit BoundedChannel(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedChannel(const BoundedChannel&) = delete;
  BoundedChannel& operator=(const BoundedChannel&) = delete;

  /// Blocks while the channel is full. Returns false iff the channel was
  /// cancelled (or closed) before the item could be enqueued — the producer
  /// should stop immediately.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] {
      return cancelled_ || closed_ || items_.size() < capacity_;
    });
    if (cancelled_ || closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while the channel is empty and still open. Returns false when the
  /// channel is cancelled, or closed with no items left to drain.
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return cancelled_ || closed_ || !items_.empty(); });
    if (cancelled_) return false;
    if (items_.empty()) return false;  // closed and fully drained
    *out = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return true;
  }

  /// Normal end-of-stream from the producer: the consumer drains what is
  /// queued, then Pop returns false.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Immediate shutdown from the consumer: queued items are discarded and
  /// both sides unblock with `false`.
  ///
  /// Wakeup contract (relied on by StreamingBatcher's destructor, covered by
  /// PrefetchTest.CancelWakesProducerBlockedOnFullChannel and the TSan stress
  /// suite): `cancelled_` is only ever written under `mu_`, and both notify
  /// calls happen while the flag is already visible, so a producer blocked in
  /// Push on a full channel — or a consumer blocked in Pop on an empty one —
  /// re-evaluates its predicate after Cancel() and returns false; neither
  /// side can re-block afterwards, making a subsequent WorkerThread join
  /// deadlock-free.
  void Cancel() {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_ = true;
    items_.clear();
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
  bool cancelled_ = false;
};

/// Owns one std::thread and joins it on destruction. Callers that need the
/// thread to exit promptly must signal it first (e.g. BoundedChannel::Cancel)
/// — Join itself only waits.
class WorkerThread {
 public:
  WorkerThread() = default;
  template <typename Fn>
  explicit WorkerThread(Fn&& fn) : thread_(std::forward<Fn>(fn)) {}

  WorkerThread(const WorkerThread&) = delete;
  WorkerThread& operator=(const WorkerThread&) = delete;

  WorkerThread(WorkerThread&&) = default;
  WorkerThread& operator=(WorkerThread&& other) {
    Join();
    thread_ = std::move(other.thread_);
    return *this;
  }

  ~WorkerThread() { Join(); }

  bool joinable() const { return thread_.joinable(); }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::thread thread_;
};

}  // namespace core
}  // namespace dcmt

#endif  // DCMT_CORE_PREFETCH_H_
