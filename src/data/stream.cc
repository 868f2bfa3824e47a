#include "data/stream.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <utility>

namespace dcmt {
namespace data {
namespace {

std::string JoinPath(const std::string& dir, const std::string& file) {
  if (dir.empty()) return file;
  if (dir.back() == '/') return dir + file;
  return dir + "/" + file;
}

/// The shard holding global row `global`, given the shard row offsets.
int ShardOf(const std::vector<std::int64_t>& offsets, std::int64_t global) {
  return static_cast<int>(
      std::upper_bound(offsets.begin(), offsets.end(), global) -
      offsets.begin() - 1);
}

/// True if each shard's rows form exactly one contiguous run of `order`
/// covering the whole shard. Only such orders can be streamed with each
/// shard decoded once per epoch, and they map any cursor to exactly one
/// (shard, offset) pair, which mid-epoch resumption relies on.
bool IsShardSequential(const std::vector<std::int64_t>& order,
                       const std::vector<std::int64_t>& offsets) {
  std::vector<char> seen(offsets.size() - 1, 0);
  std::size_t pos = 0;
  while (pos < order.size()) {
    const int s = ShardOf(offsets, order[pos]);
    const std::size_t shard = static_cast<std::size_t>(s);
    if (seen[shard]) return false;
    seen[shard] = 1;
    const std::int64_t lo = offsets[shard];
    const std::int64_t hi = offsets[shard + 1];
    const std::size_t run_end = pos + static_cast<std::size_t>(hi - lo);
    if (run_end > order.size()) return false;
    for (; pos < run_end; ++pos) {
      if (order[pos] < lo || order[pos] >= hi) return false;
    }
  }
  return true;
}

}  // namespace

// --- StreamingDataset ------------------------------------------------------

bool StreamingDataset::Open(const std::string& dir,
                            const StreamingConfig& config,
                            StreamingDataset* out, std::string* error) {
  *out = StreamingDataset();
  out->dir_ = dir;
  out->fs_ = config.fs != nullptr ? config.fs : core::FileSystem::Default();
  if (!ReadManifest(out->fs_, dir, &out->manifest_, error)) return false;
  // A missing middle shard must fail here, at open time, not after half an
  // epoch has already been consumed.
  for (const ShardInfo& info : out->manifest_.shards) {
    const std::string path = JoinPath(dir, info.file);
    if (info.file.empty() || !out->fs_->Exists(path)) {
      *error = path + ": shard file listed in manifest is missing";
      return false;
    }
  }
  out->offsets_ = out->manifest_.ShardRowOffsets();
  return true;
}

bool StreamingDataset::ReadShard(int shard_index, ShardColumns* columns,
                                 std::string* error) const {
  if (shard_index < 0 || shard_index >= num_shards()) {
    *error = dir_ + ": shard index out of range";
    return false;
  }
  const std::string path =
      JoinPath(dir_, manifest_.shards[static_cast<std::size_t>(shard_index)].file);
  return ReadShardFile(fs_, path, manifest_, shard_index, columns, error);
}

bool StreamingDataset::Materialize(Dataset* out, std::string* error) const {
  std::vector<Example> examples;
  examples.reserve(static_cast<std::size_t>(size()));
  ShardColumns columns;
  for (int s = 0; s < num_shards(); ++s) {
    if (!ReadShard(s, &columns, error)) return false;
    for (std::int64_t r = 0; r < columns.size(); ++r) {
      examples.push_back(columns.Row(r));
    }
  }
  *out = Dataset(dir_, manifest_.schema, std::move(examples));
  return true;
}

// --- StreamingBatcher ------------------------------------------------------

/// Gathers an epoch order's batches from a cursor on, decoding each shard
/// the order visits once, when its first row is reached. A batch that
/// straddles two shards gathers in two pieces. Runs on the prefetch worker,
/// or on the consumer thread at depth 0; it owns its resident shard and
/// reads only the epoch order, which the batcher leaves unchanged until the
/// gather is stopped, and the immutable dataset.
class StreamingBatcher::Gather {
 public:
  Gather(const StreamingDataset* dataset, int batch_size,
         const std::vector<std::int64_t>* order, std::int64_t cursor)
      : dataset_(dataset),
        batch_size_(batch_size),
        order_(order),
        cursor_(cursor) {}

  /// Fills `*out` with the next batch, or with the read error that ends the
  /// stream. Returns false once the order is exhausted.
  bool Next(Gathered* out) {
    const std::vector<std::int64_t>& order = *order_;
    const std::int64_t end = static_cast<std::int64_t>(order.size());
    if (cursor_ >= end) return false;
    const std::vector<std::int64_t>& offsets = dataset_->ShardRowOffsets();
    const std::int64_t stop = std::min<std::int64_t>(cursor_ + batch_size_, end);
    *out = Gathered{};
    while (cursor_ < stop) {
      if (shard_ < 0 || order[cursor_] < lo_ || order[cursor_] >= hi_) {
        shard_ = ShardOf(offsets, order[cursor_]);
        if (!dataset_->ReadShard(shard_, &resident_, &out->error)) {
          cursor_ = end;
          return true;
        }
        ++out->shards_decoded;
        lo_ = offsets[static_cast<std::size_t>(shard_)];
        hi_ = offsets[static_cast<std::size_t>(shard_) + 1];
      }
      std::int64_t run_end = cursor_ + 1;
      while (run_end < stop && order[run_end] >= lo_ && order[run_end] < hi_) {
        ++run_end;
      }
      GatherRows(resident_, order.data() + cursor_,
                 static_cast<int>(run_end - cursor_), lo_, &out->batch);
      cursor_ = run_end;
    }
    FinishGather(&out->batch);
    return true;
  }

 private:
  const StreamingDataset* dataset_;
  int batch_size_;
  const std::vector<std::int64_t>* order_;
  std::int64_t cursor_;
  ShardColumns resident_;
  int shard_ = -1;  // the resident shard, holding global rows [lo_, hi_)
  std::int64_t lo_ = 0;
  std::int64_t hi_ = 0;
};

StreamingBatcher::StreamingBatcher(const StreamingDataset* dataset,
                                   int batch_size, Rng* rng, int prefetch_depth)
    : dataset_(dataset),
      batch_size_(batch_size),
      rng_(rng),
      prefetch_depth_(prefetch_depth) {
  if (batch_size_ <= 0) {
    std::fprintf(stderr, "StreamingBatcher: batch_size must be positive\n");
    std::abort();
  }
  // Mirrors Batcher's constructor: identity order, then the first epoch's
  // one and only shuffle — the same ShardedEpochOrder draw sequence an
  // in-RAM Batcher with this shard plan performs.
  order_.resize(static_cast<std::size_t>(dataset_->size()));
  std::iota(order_.begin(), order_.end(), 0);
  ShuffleIfNeeded();
}

StreamingBatcher::~StreamingBatcher() { StopGather(); }

void StreamingBatcher::ShuffleIfNeeded() {
  if (rng_ == nullptr) return;
  order_ = ShardedEpochOrder(dataset_->ShardRowCounts(), rng_);
}

void StreamingBatcher::StartGather() {
  Gather gather(dataset_, batch_size_, &order_, cursor_);
  if (prefetch_depth_ <= 0) {
    // Synchronous mode: zero concurrency (required when the file system is
    // not safe for concurrent reads).
    sync_gather_ = std::make_unique<Gather>(std::move(gather));
    return;
  }
  // The channel holds prefetch_depth shards' worth of batches, so the
  // worker decodes the next shard while the consumer still has batches.
  std::int64_t max_shard_rows = 1;
  for (const std::int64_t rows : dataset_->ShardRowCounts()) {
    max_shard_rows = std::max(max_shard_rows, rows);
  }
  const std::int64_t batches_per_shard =
      (max_shard_rows + batch_size_ - 1) / batch_size_;
  channel_ = std::make_unique<core::BoundedChannel<Gathered>>(
      static_cast<std::size_t>(prefetch_depth_ * batches_per_shard));
  core::BoundedChannel<Gathered>* chan = channel_.get();
  worker_ = core::WorkerThread([chan, gather = std::move(gather)]() mutable {
    Gathered item;
    while (gather.Next(&item)) {
      const bool failed = !item.error.empty();
      if (!chan->Push(std::move(item))) return;  // consumer cancelled
      if (failed) return;  // failure delivered; stop producing
    }
    chan->Close();
  });
}

void StreamingBatcher::StopGather() {
  if (channel_ != nullptr) {
    channel_->Cancel();
    worker_.Join();
    channel_.reset();
  }
  sync_gather_.reset();
}

void StreamingBatcher::Fail(const std::string& message) {
  failed_ = true;
  error_ = message;
  StopGather();
}

bool StreamingBatcher::Next(Batch* batch) {
  if (failed_) return false;
  if (cursor_ >= size()) {
    // Epoch finished: single fresh_epoch_ clear site, mirroring Batcher.
    cursor_ = 0;
    fresh_epoch_ = false;
    return false;
  }
  if (!fresh_epoch_ && cursor_ == 0) {
    // Lazy epoch start: drop the previous epoch's gather, reshuffle.
    StopGather();
    ShuffleIfNeeded();
    fresh_epoch_ = true;
  }
  if (sync_gather_ == nullptr && channel_ == nullptr) StartGather();
  Gathered item;
  const bool got = sync_gather_ != nullptr ? sync_gather_->Next(&item)
                                           : channel_->Pop(&item);
  if (!got) {
    Fail(dataset_->dir() + ": prefetch pipeline ended unexpectedly");
    return false;
  }
  if (!item.error.empty()) {
    Fail(item.error);
    return false;
  }
  shards_decoded_ += item.shards_decoded;
  *batch = std::move(item.batch);
  cursor_ += batch->size;
  return true;
}

void StreamingBatcher::Rewind() {
  cursor_ = 0;
  fresh_epoch_ = true;
  // Replay the same order from the top; a running gather is somewhere
  // mid-epoch, so the next Next() starts a new one at cursor 0.
  StopGather();
}

std::int64_t StreamingBatcher::batches_per_epoch() const {
  return (size() + batch_size_ - 1) / batch_size_;
}

BatcherState StreamingBatcher::SaveState() const {
  BatcherState state;
  state.order = order_;
  state.cursor = cursor_;
  state.fresh_epoch = fresh_epoch_;
  return state;
}

bool StreamingBatcher::RestoreState(const BatcherState& state) {
  if (static_cast<std::int64_t>(state.order.size()) != size()) return false;
  if (state.cursor < 0 || state.cursor > size()) return false;
  for (const std::int64_t idx : state.order) {
    if (idx < 0 || idx >= size()) return false;
  }
  // All-or-nothing: a foreign order leaves the live state untouched.
  if (!IsShardSequential(state.order, dataset_->ShardRowOffsets())) return false;
  StopGather();
  order_ = state.order;
  cursor_ = state.cursor;
  fresh_epoch_ = state.fresh_epoch;
  failed_ = false;
  error_.clear();
  return true;
}

}  // namespace data
}  // namespace dcmt
