#ifndef DCMT_DATA_STREAM_H_
#define DCMT_DATA_STREAM_H_

// Out-of-core streaming data path (DESIGN.md §15): a StreamingDataset is a
// shard directory opened through its manifest, and a StreamingBatcher is a
// BatchSource that trains from it. A decoded shard stays in columns
// (ShardColumns), and batches are gathered from it by row index.
//
// Determinism contract: the epoch order is ShardedEpochOrder(shard rows,
// rng) — identical to an in-RAM Batcher constructed with the same shard
// plan and the same Rng — and both gather through GatherRows, so the
// streaming and in-RAM paths emit bit-identical batch sequences, and
// BatcherState saved from one restores into the other. The prefetch worker
// decodes shards and gathers whole batches; it reads only inputs that stay
// fixed while it runs (the manifest, the epoch order, the stateless file
// system) and hands finished batches over the channel. The epoch reshuffle, the Rng
// and the cursor stay on the consumer thread, which is why SaveState()
// racing an in-flight prefetch is benign (see tests/tsan_stress_test.cc).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/io.h"
#include "core/prefetch.h"
#include "data/batcher.h"
#include "data/dataset.h"
#include "data/shard.h"
#include "tensor/random.h"

namespace dcmt {
namespace data {

struct StreamingConfig {
  /// nullptr = real file system. Must be safe for concurrent reads if
  /// prefetch is enabled (the default PosixFileSystem is); a file system
  /// that is not needs prefetch_depth = 0.
  core::FileSystem* fs = nullptr;
};

/// A shard directory opened through its manifest. Holds no row data; every
/// access decodes from disk. ReadShard is const and thread-safe (one
/// prefetch thread + the consumer may both call it).
class StreamingDataset {
 public:
  /// Opens `dir`, validating the manifest and the existence of every listed
  /// shard file up-front, so a missing middle shard fails here — not
  /// mid-epoch. On failure returns false with `*error` set.
  static bool Open(const std::string& dir, const StreamingConfig& config,
                   StreamingDataset* out, std::string* error);

  const std::string& dir() const { return dir_; }
  const FeatureSchema& schema() const { return manifest_.schema; }
  const ShardManifest& manifest() const { return manifest_; }
  std::int64_t size() const { return offsets_.empty() ? 0 : offsets_.back(); }
  int num_shards() const { return static_cast<int>(manifest_.shards.size()); }
  /// Per-shard row counts in shard order (the Batcher shard plan).
  std::vector<std::int64_t> ShardRowCounts() const {
    return manifest_.ShardRowCounts();
  }
  /// Prefix sums of ShardRowCounts(); size() == num_shards() + 1.
  const std::vector<std::int64_t>& ShardRowOffsets() const { return offsets_; }

  /// Decodes and validates one shard. Fail-closed; thread-safe.
  bool ReadShard(int shard_index, ShardColumns* columns,
                 std::string* error) const;

  /// Decodes every shard into one in-RAM Dataset (equivalence tests, small
  /// data). The result's examples are in global row order — shard 0's rows
  /// first — so global indices agree between the two representations.
  bool Materialize(Dataset* out, std::string* error) const;

 private:
  std::string dir_;
  core::FileSystem* fs_ = nullptr;
  ShardManifest manifest_;
  std::vector<std::int64_t> offsets_;
};

/// BatchSource over a StreamingDataset. Epoch semantics, SaveState wire
/// format and RestoreState validation mirror the in-RAM Batcher exactly;
/// the additional constraint is that a restored order must be
/// shard-sequential (which every order this class or a shard-plan Batcher
/// produces is). `prefetch_depth` > 0 runs one background thread that
/// decodes each shard once, in visit order, and gathers finished batches up
/// to `prefetch_depth` shards' worth ahead, so Next() only pops one. Resident
/// memory is the worker's one decoded shard of columns plus those queued
/// batches: 1 + prefetch_depth shards, whatever the dataset size. 0 runs the
/// same decode and gather synchronously on the consumer thread (no
/// concurrency at all — required when fs is fault-injecting).
class StreamingBatcher : public BatchSource {
 public:
  StreamingBatcher(const StreamingDataset* dataset, int batch_size, Rng* rng,
                   int prefetch_depth = 2);
  ~StreamingBatcher() override;

  StreamingBatcher(const StreamingBatcher&) = delete;
  StreamingBatcher& operator=(const StreamingBatcher&) = delete;

  bool Next(Batch* batch) override;
  void Rewind() override;
  std::int64_t batches_per_epoch() const override;
  std::int64_t size() const override { return dataset_->size(); }
  const FeatureSchema& schema() const override { return dataset_->schema(); }
  BatcherState SaveState() const override;
  bool RestoreState(const BatcherState& state) override;

  bool ok() const override { return !failed_; }
  std::string error() const override { return error_; }

  /// Number of shard decodes behind the batches delivered so far (both
  /// paths), for tests that assert the stream decodes each shard once per
  /// epoch rather than re-reading per batch.
  std::int64_t shards_decoded() const { return shards_decoded_; }

 private:
  class Gather;
  /// One unit of the hand-over: a finished batch, or the read error that
  /// ended the stream.
  struct Gathered {
    Batch batch;
    std::string error;  // non-empty: a shard failed to read
    std::int64_t shards_decoded = 0;  // decodes this batch needed
  };

  void ShuffleIfNeeded();
  /// Starts gathering the current order from cursor_: on a worker thread,
  /// or synchronously at prefetch depth 0.
  void StartGather();
  /// Stops and drops the gather, joining the worker if there is one.
  void StopGather();
  void Fail(const std::string& message);

  const StreamingDataset* dataset_;
  int batch_size_;
  Rng* rng_;
  int prefetch_depth_;

  // Epoch state — identical semantics to Batcher's fields of the same name.
  // A running gather reads order_, so it changes only after StopGather.
  std::vector<std::int64_t> order_;
  std::int64_t cursor_ = 0;
  bool fresh_epoch_ = true;

  // At most one gather runs, and it produces batches starting at cursor_.
  // Synchronous (depth 0) or on the worker, which shares only the channel
  // with this thread; StopGather (Cancel + join) runs before the channel is
  // destroyed.
  std::unique_ptr<Gather> sync_gather_;
  std::unique_ptr<core::BoundedChannel<Gathered>> channel_;
  core::WorkerThread worker_;

  bool failed_ = false;
  std::string error_;
  std::int64_t shards_decoded_ = 0;
};

}  // namespace data
}  // namespace dcmt

#endif  // DCMT_DATA_STREAM_H_
