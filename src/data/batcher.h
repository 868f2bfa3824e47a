#ifndef DCMT_DATA_BATCHER_H_
#define DCMT_DATA_BATCHER_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/shard.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace dcmt {
namespace data {

/// A minibatch in the layout models consume: field-major id lists plus
/// constant label tensors. Label tensors never require grad.
struct Batch {
  /// deep_ids[f][b]: id of deep field f for example b.
  std::vector<std::vector<int>> deep_ids;
  /// wide_ids[f][b]: id of wide field f for example b (empty if schema has none).
  std::vector<std::vector<int>> wide_ids;
  /// Click labels o as a [B x 1] tensor.
  Tensor click;
  /// Observed conversion labels r as a [B x 1] tensor (0 outside O).
  Tensor conversion;
  /// CTCVR labels t = o AND r. In a well-formed log t == r, but keep a
  /// separate tensor so malformed inputs cannot silently corrupt CTCVR.
  Tensor ctcvr;
  /// Raw click bytes for fast host-side masking (IPW weights, SNIPS sums).
  std::vector<std::uint8_t> click_raw;
  /// Raw conversion bytes.
  std::vector<std::uint8_t> conversion_raw;
  /// Generator ground-truth propensities (simulation oracle; models must
  /// never read these — only evaluation utilities like the oracle ranker do).
  std::vector<float> true_ctr;
  std::vector<float> true_cvr;
  int size = 0;
};

/// Appends `count` rows of `columns` to `batch`: row i is column row
/// `order[i] - base`. Both training sources build their batches through this
/// one gather (the in-RAM Batcher over its whole dataset, the streaming
/// batcher over one resident shard at a time, in pieces where a batch
/// straddles two shards), so their batches are bit-identical by
/// construction. Call FinishGather once the last piece is in.
void GatherRows(const ShardColumns& columns, const std::int64_t* order,
                int count, std::int64_t base, Batch* batch);

/// Builds the batch's click, conversion and CTCVR label tensors from its raw
/// label bytes. Aborts on an empty batch.
void FinishGather(Batch* batch);

/// Row-at-a-time batch assembly from Examples, for callers that hold rows
/// rather than columns: serving (FrozenModel scores request rows) and
/// evaluation (MakeContiguousBatch). Labels finish through FinishGather, so
/// these batches carry the same label tensors a gathered batch would.
class BatchBuilder {
 public:
  /// `schema` is held by reference and must outlive the builder, so a
  /// temporary schema does not compile.
  BatchBuilder(const FeatureSchema& schema, int capacity);
  BatchBuilder(FeatureSchema&& schema, int capacity) = delete;

  void Add(const Example& example);
  /// Finalizes the label tensors and returns the batch. The builder is
  /// consumed; construct a fresh one per batch.
  Batch Finish();

  int size() const { return batch_.size; }

 private:
  const FeatureSchema& schema_;
  Batch batch_;
};

/// Rows [begin, end) of `batch` as a batch of their own: every id list, raw
/// label list and label tensor is cut to the range (absent ones stay
/// absent). How a taped forward hands each micro-batch its rows.
Batch SliceRows(const Batch& batch, int begin, int end);

/// Assembles one batch from a contiguous range of a dataset (used by
/// evaluation, which streams a test set in order).
Batch MakeContiguousBatch(const Dataset& dataset, std::int64_t first, int count);

/// Complete serializable position of a Batcher inside its epoch stream:
/// the current epoch's shuffled order plus the cursor. Together with the
/// state of the shuffle Rng this resumes batching bit-exactly mid-epoch.
struct BatcherState {
  std::vector<std::int64_t> order;
  std::int64_t cursor = 0;
  bool fresh_epoch = true;
};

/// The read surface the trainer and checkpointer consume: an epoch-oriented
/// batch stream with a serializable position. Implemented by the in-RAM
/// Batcher and by stream::StreamingBatcher; both honor the same contract —
/// Next() returns false exactly once per epoch boundary, Rewind() replays
/// the current order, SaveState()/RestoreState() resume bit-exactly.
class BatchSource {
 public:
  virtual ~BatchSource() = default;

  virtual bool Next(Batch* batch) = 0;
  virtual void Rewind() = 0;
  virtual std::int64_t batches_per_epoch() const = 0;
  /// Total rows per epoch. Manifest-driven for streaming sources, so sizing
  /// never requires the rows to be resident.
  virtual std::int64_t size() const = 0;
  virtual const FeatureSchema& schema() const = 0;
  virtual BatcherState SaveState() const = 0;
  virtual bool RestoreState(const BatcherState& state) = 0;

  /// Streaming sources latch !ok() on I/O or validation failure (fail
  /// closed); the in-RAM batcher can never fail.
  virtual bool ok() const { return true; }
  virtual std::string error() const { return {}; }
};

/// Builds one epoch's visiting order over sharded rows: a seeded permutation
/// of the shards, then a seeded permutation of the rows inside each shard,
/// concatenated as flat global row indices. The result is shard-sequential —
/// rows of one shard are contiguous in the order — which is exactly what
/// lets a streaming reader serve it while holding a single decoded shard.
/// With rng == nullptr the order is the identity. The in-RAM Batcher (given
/// a shard plan) and the StreamingBatcher both call this with the same Rng,
/// which is what makes their epoch streams bit-identical.
std::vector<std::int64_t> ShardedEpochOrder(
    const std::vector<std::int64_t>& shard_rows, Rng* rng);

/// Iterates a dataset in minibatches, reshuffling per epoch when a rng is
/// provided. The final short batch of an epoch is emitted (not dropped).
/// The constructor converts the dataset to columns once; the dataset must
/// not change while the batcher lives.
class Batcher : public BatchSource {
 public:
  /// `rng` may be null for sequential (evaluation) order. Non-owning; must
  /// outlive the batcher. `shard_plan` (per-shard row counts summing to the
  /// dataset size) switches the per-epoch shuffle from one global
  /// permutation to ShardedEpochOrder, mirroring the out-of-core stream for
  /// equivalence runs; empty keeps the historical global shuffle.
  Batcher(const Dataset* dataset, int batch_size, Rng* rng,
          std::vector<std::int64_t> shard_plan = {});

  /// Fills `*batch` with the next minibatch; returns false at epoch end
  /// (after which the next call starts a fresh, reshuffled epoch).
  bool Next(Batch* batch) override;

  /// Restarts the current epoch from the beginning (no reshuffle): the next
  /// Next() replays order_ as-is, even right after an epoch boundary.
  void Rewind() override {
    cursor_ = 0;
    fresh_epoch_ = true;
  }

  std::int64_t batches_per_epoch() const override;
  std::int64_t size() const override { return dataset_->size(); }
  const FeatureSchema& schema() const override { return dataset_->schema(); }

  /// Captures the epoch order and cursor for checkpointing. (The shuffle
  /// Rng is owned by the caller and checkpointed separately.)
  BatcherState SaveState() const override;

  /// Restores a state captured by SaveState(). All-or-nothing: rejects a
  /// state whose order size or cursor does not fit this batcher's dataset,
  /// returning false with the batcher unchanged.
  bool RestoreState(const BatcherState& state) override;

 private:
  void ShuffleIfNeeded();

  const Dataset* dataset_;
  /// The dataset's rows as columns, converted once at construction.
  ShardColumns columns_;
  int batch_size_;
  Rng* rng_;
  std::vector<std::int64_t> shard_plan_;
  std::vector<std::int64_t> order_;
  std::int64_t cursor_ = 0;
  /// True while order_ is the epoch the caller should (re)play from cursor 0
  /// without a reshuffle. Cleared in exactly one place — the epoch-end branch
  /// of Next() — and set again by the lazy reshuffle, the constructor,
  /// Rewind(), and RestoreState(). Keeping a single clear site is what makes
  /// "each epoch is shuffled exactly once" auditable.
  bool fresh_epoch_ = true;
};

}  // namespace data
}  // namespace dcmt

#endif  // DCMT_DATA_BATCHER_H_
