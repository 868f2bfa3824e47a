#ifndef DCMT_TESTS_GATED_MODEL_SOURCE_H_
#define DCMT_TESTS_GATED_MODEL_SOURCE_H_

// Test-only serve::ModelSource whose Acquire blocks until the test opens a
// gate. The engine's dispatcher calls Acquire once per batch, after taking
// the batch off the queue, so a closed gate holds the dispatcher on one
// batch while the test queues more rows behind it — a deterministic way to
// build a backlog without timers or sleeps.

#include <cstdint>
// dcmt-lint: allow(concurrency) — the gate is a cross-thread handshake.
#include <condition_variable>
// dcmt-lint: allow(concurrency) — the gate is a cross-thread handshake.
#include <mutex>

#include "data/schema.h"
#include "serve/engine.h"
#include "serve/frozen_model.h"

namespace dcmt {
namespace testing_util {

class GatedModelSource : public serve::ModelSource {
 public:
  /// `model` is non-owning and must outlive the source.
  explicit GatedModelSource(const serve::FrozenModel* model) : model_(model) {}

  const serve::FrozenModel* Acquire(std::uint64_t* ticket) override {
    // dcmt-lint: allow(concurrency) — gate state is shared with the test.
    std::unique_lock<std::mutex> lock(mu_);
    ++acquires_;
    changed_.notify_all();
    changed_.wait(lock, [this] { return open_; });
    *ticket = 0;
    return model_;
  }
  void Release(std::uint64_t) override {}
  const data::FeatureSchema& schema() const override {
    return model_->schema();
  }

  /// Blocks until the dispatcher has reached Acquire `n` times in total
  /// (held at the gate or already through it).
  void WaitForAcquires(int n) {
    // dcmt-lint: allow(concurrency) — gate state is shared with the test.
    std::unique_lock<std::mutex> lock(mu_);
    changed_.wait(lock, [this, n] { return acquires_ >= n; });
  }

  /// Lets every held and future Acquire through.
  void Open() {
    {
      // dcmt-lint: allow(concurrency) — gate state is shared with the test.
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    changed_.notify_all();
  }

 private:
  const serve::FrozenModel* model_;
  // dcmt-lint: allow(concurrency) — gate state is shared with the test.
  std::mutex mu_;
  // dcmt-lint: allow(concurrency) — wakes the dispatcher and the test.
  std::condition_variable changed_;
  int acquires_ = 0;
  bool open_ = false;
};

}  // namespace testing_util
}  // namespace dcmt

#endif  // DCMT_TESTS_GATED_MODEL_SOURCE_H_
