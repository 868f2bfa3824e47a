#include "data/batcher.h"

#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <utility>

namespace dcmt {
namespace data {

void GatherRows(const ShardColumns& columns, const std::int64_t* order,
                int count, std::int64_t base, Batch* batch) {
  const std::size_t at = static_cast<std::size_t>(batch->size);
  const std::size_t n = static_cast<std::size_t>(count);
  const auto gather = [&](const auto& column, auto* out) {
    out->resize(at + n);
    for (std::size_t i = 0; i < n; ++i) {
      (*out)[at + i] = column[static_cast<std::size_t>(order[i] - base)];
    }
  };
  batch->deep_ids.resize(columns.deep_ids.size());
  for (std::size_t f = 0; f < columns.deep_ids.size(); ++f) {
    gather(columns.deep_ids[f], &batch->deep_ids[f]);
  }
  batch->wide_ids.resize(columns.wide_ids.size());
  for (std::size_t f = 0; f < columns.wide_ids.size(); ++f) {
    gather(columns.wide_ids[f], &batch->wide_ids[f]);
  }
  gather(columns.click, &batch->click_raw);
  gather(columns.conversion, &batch->conversion_raw);
  gather(columns.true_ctr, &batch->true_ctr);
  gather(columns.true_cvr, &batch->true_cvr);
  batch->size += count;
}

void FinishGather(Batch* batch) {
  if (batch->size <= 0) {
    std::fprintf(stderr, "FinishGather: empty batch\n");
    std::abort();
  }
  const std::size_t n = static_cast<std::size_t>(batch->size);
  std::vector<float> click(n), conversion(n), ctcvr(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t o = batch->click_raw[i];
    const std::uint8_t r = batch->conversion_raw[i];
    click[i] = static_cast<float>(o);
    conversion[i] = static_cast<float>(r);
    ctcvr[i] = static_cast<float>(o && r ? 1 : 0);
  }
  batch->click = Tensor::ColumnVector(click);
  batch->conversion = Tensor::ColumnVector(conversion);
  batch->ctcvr = Tensor::ColumnVector(ctcvr);
}

BatchBuilder::BatchBuilder(const FeatureSchema& schema, int capacity)
    : schema_(schema) {
  if (capacity <= 0) {
    std::fprintf(stderr, "BatchBuilder: non-positive capacity\n");
    std::abort();
  }
  const std::size_t cap = static_cast<std::size_t>(capacity);
  batch_.deep_ids.assign(schema_.deep_fields.size(), {});
  batch_.wide_ids.assign(schema_.wide_fields.size(), {});
  for (auto& v : batch_.deep_ids) v.reserve(cap);
  for (auto& v : batch_.wide_ids) v.reserve(cap);
  batch_.click_raw.reserve(cap);
  batch_.conversion_raw.reserve(cap);
  batch_.true_ctr.reserve(cap);
  batch_.true_cvr.reserve(cap);
}

void BatchBuilder::Add(const Example& e) {
  const std::size_t n_deep = schema_.deep_fields.size();
  const std::size_t n_wide = schema_.wide_fields.size();
  for (std::size_t f = 0; f < n_deep; ++f) batch_.deep_ids[f].push_back(e.deep_ids[f]);
  for (std::size_t f = 0; f < n_wide; ++f) batch_.wide_ids[f].push_back(e.wide_ids[f]);
  batch_.click_raw.push_back(e.click);
  batch_.conversion_raw.push_back(e.conversion);
  batch_.true_ctr.push_back(e.true_ctr);
  batch_.true_cvr.push_back(e.true_cvr);
  ++batch_.size;
}

Batch BatchBuilder::Finish() {
  FinishGather(&batch_);
  return std::move(batch_);
}

namespace {

template <typename T>
std::vector<T> CutRange(const std::vector<T>& v, int begin, int end) {
  if (v.empty()) return {};
  return std::vector<T>(v.begin() + begin, v.begin() + end);
}

Tensor CutRows(const Tensor& t, int begin, int end) {
  if (!t.defined()) return Tensor();
  const std::size_t cols = static_cast<std::size_t>(t.cols());
  const float* d = t.data() + static_cast<std::size_t>(begin) * cols;
  return Tensor::FromData(
      end - begin, t.cols(),
      std::vector<float>(d, d + static_cast<std::size_t>(end - begin) * cols));
}

}  // namespace

Batch SliceRows(const Batch& batch, int begin, int end) {
  if (begin < 0 || end > batch.size || begin >= end) {
    std::fprintf(stderr, "SliceRows: bad row range [%d, %d) of %d\n", begin,
                 end, batch.size);
    std::abort();
  }
  Batch out;
  out.deep_ids.reserve(batch.deep_ids.size());
  for (const auto& ids : batch.deep_ids) {
    out.deep_ids.push_back(CutRange(ids, begin, end));
  }
  out.wide_ids.reserve(batch.wide_ids.size());
  for (const auto& ids : batch.wide_ids) {
    out.wide_ids.push_back(CutRange(ids, begin, end));
  }
  out.click = CutRows(batch.click, begin, end);
  out.conversion = CutRows(batch.conversion, begin, end);
  out.ctcvr = CutRows(batch.ctcvr, begin, end);
  out.click_raw = CutRange(batch.click_raw, begin, end);
  out.conversion_raw = CutRange(batch.conversion_raw, begin, end);
  out.true_ctr = CutRange(batch.true_ctr, begin, end);
  out.true_cvr = CutRange(batch.true_cvr, begin, end);
  out.size = end - begin;
  return out;
}

Batch MakeContiguousBatch(const Dataset& dataset, std::int64_t first, int count) {
  BatchBuilder builder(dataset.schema(), count);
  const std::vector<Example>& examples = dataset.examples();
  for (int b = 0; b < count; ++b) {
    builder.Add(examples[static_cast<std::size_t>(first + b)]);
  }
  return builder.Finish();
}

std::vector<std::int64_t> ShardedEpochOrder(
    const std::vector<std::int64_t>& shard_rows, Rng* rng) {
  std::vector<std::int64_t> offsets(shard_rows.size() + 1, 0);
  for (std::size_t s = 0; s < shard_rows.size(); ++s) {
    if (shard_rows[s] < 0) {
      std::fprintf(stderr, "ShardedEpochOrder: negative shard row count\n");
      std::abort();
    }
    offsets[s + 1] = offsets[s] + shard_rows[s];
  }
  std::vector<std::int64_t> shard_perm(shard_rows.size());
  std::iota(shard_perm.begin(), shard_perm.end(), 0);
  if (rng != nullptr) rng->Shuffle(&shard_perm);

  std::vector<std::int64_t> order;
  order.reserve(static_cast<std::size_t>(offsets.back()));
  std::vector<std::int64_t> local;
  for (const std::int64_t s : shard_perm) {
    local.resize(static_cast<std::size_t>(shard_rows[static_cast<std::size_t>(s)]));
    std::iota(local.begin(), local.end(), 0);
    if (rng != nullptr) rng->Shuffle(&local);
    const std::int64_t base = offsets[static_cast<std::size_t>(s)];
    for (const std::int64_t r : local) order.push_back(base + r);
  }
  return order;
}

Batcher::Batcher(const Dataset* dataset, int batch_size, Rng* rng,
                 std::vector<std::int64_t> shard_plan)
    : dataset_(dataset),
      columns_(ShardColumns::FromRows(dataset->schema(), dataset->examples())),
      batch_size_(batch_size),
      rng_(rng),
      shard_plan_(std::move(shard_plan)) {
  if (batch_size_ <= 0) {
    std::fprintf(stderr, "Batcher: batch_size must be positive\n");
    std::abort();
  }
  if (!shard_plan_.empty()) {
    std::int64_t total = 0;
    for (const std::int64_t rows : shard_plan_) total += rows;
    if (total != dataset_->size()) {
      std::fprintf(stderr, "Batcher: shard plan does not cover the dataset\n");
      std::abort();
    }
  }
  order_.resize(static_cast<std::size_t>(dataset_->size()));
  std::iota(order_.begin(), order_.end(), 0);
  // The first epoch's one and only shuffle. fresh_epoch_ is true, so the
  // first Next() cannot reshuffle again: SaveState() taken right after
  // construction captures exactly the order the first epoch trains on.
  ShuffleIfNeeded();
}

void Batcher::ShuffleIfNeeded() {
  if (rng_ == nullptr) return;
  if (shard_plan_.empty()) {
    rng_->Shuffle(&order_);
  } else {
    order_ = ShardedEpochOrder(shard_plan_, rng_);
  }
}

bool Batcher::Next(Batch* batch) {
  if (cursor_ >= dataset_->size()) {
    // Epoch finished: report end once, then lazily start the next epoch.
    // This is the single site that clears fresh_epoch_; it used to also be
    // cleared as the last batch was handed out, which made Rewind() after a
    // completed epoch reshuffle instead of replaying.
    cursor_ = 0;
    fresh_epoch_ = false;
    return false;
  }
  if (!fresh_epoch_ && cursor_ == 0) {
    // Lazy epoch start: the one reshuffle site after construction.
    ShuffleIfNeeded();
    fresh_epoch_ = true;
  }
  const int count = static_cast<int>(
      std::min<std::int64_t>(batch_size_, dataset_->size() - cursor_));
  *batch = Batch{};
  GatherRows(columns_, order_.data() + cursor_, count, /*base=*/0, batch);
  FinishGather(batch);
  cursor_ += count;
  return true;
}

BatcherState Batcher::SaveState() const {
  BatcherState state;
  state.order = order_;
  state.cursor = cursor_;
  state.fresh_epoch = fresh_epoch_;
  return state;
}

bool Batcher::RestoreState(const BatcherState& state) {
  if (static_cast<std::int64_t>(state.order.size()) != dataset_->size()) {
    return false;
  }
  if (state.cursor < 0 || state.cursor > dataset_->size()) return false;
  for (const std::int64_t idx : state.order) {
    if (idx < 0 || idx >= dataset_->size()) return false;
  }
  order_ = state.order;
  cursor_ = state.cursor;
  fresh_epoch_ = state.fresh_epoch;
  return true;
}

std::int64_t Batcher::batches_per_epoch() const {
  return (dataset_->size() + batch_size_ - 1) / batch_size_;
}

}  // namespace data
}  // namespace dcmt
