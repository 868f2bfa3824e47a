#include "models/multi_task_model.h"

#include <cstdio>
#include <cstdlib>

#include "core/thread_pool.h"
#include "tensor/ops.h"

namespace dcmt {
namespace models {
namespace {

/// Every Predictions field, in join-column order.
constexpr Tensor Predictions::*kFields[] = {
    &Predictions::ctr,          &Predictions::cvr,
    &Predictions::ctcvr,        &Predictions::cvr_counterfactual,
    &Predictions::ctr_logit,    &Predictions::cvr_logit,
    &Predictions::cvr_cf_logit, &Predictions::imputed_error,
};

}  // namespace

Predictions MultiTaskModel::Forward(const data::Batch& batch) {
  const int micro = MicroBatchCount(batch.size);
  if (micro == 1 || InferenceGuard::Active()) return ForwardRows(batch);

  // One contiguous group of micro-batches per pool shard, each group in
  // ascending k; nested GEMMs inside a shard run inline.
  std::vector<Predictions> parts(static_cast<std::size_t>(micro));
  core::ParallelFor(0, micro, 1, [&](std::int64_t k0, std::int64_t k1) {
    for (std::int64_t k = k0; k < k1; ++k) {
      const int begin = static_cast<int>(k * batch.size / micro);
      const int end = static_cast<int>((k + 1) * batch.size / micro);
      parts[static_cast<std::size_t>(k)] =
          ForwardRows(data::SliceRows(batch, begin, end));
    }
  });

  // Column f of the join is the f-th defined field; every micro-batch ran
  // the same body, so every micro-batch defines the same fields.
  std::vector<Tensor Predictions::*> defined;
  for (Tensor Predictions::*field : kFields) {
    if ((parts[0].*field).defined()) defined.push_back(field);
  }
  std::vector<std::vector<Tensor>> blocks(parts.size());
  for (std::size_t k = 0; k < parts.size(); ++k) {
    for (Tensor Predictions::*field : kFields) {
      const Tensor& t = parts[k].*field;
      if (t.defined()) blocks[k].push_back(t);
    }
    if (blocks[k].size() != defined.size()) {
      std::fprintf(stderr, "%s: micro-batches define different fields\n",
                   name().c_str());
      std::abort();
    }
  }
  const Tensor joined = ops::JoinMicroBatches(blocks);
  Predictions out;
  for (std::size_t f = 0; f < defined.size(); ++f) {
    out.*defined[f] = ops::SliceCols(joined, static_cast<int>(f), 1);
  }
  return out;
}

}  // namespace models
}  // namespace dcmt
