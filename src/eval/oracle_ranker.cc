#include "eval/oracle_ranker.h"

#include <cstdio>
#include <cstdlib>

#include "tensor/ops.h"

namespace dcmt {
namespace eval {

models::Predictions OracleRanker::ForwardRows(const data::Batch& batch) {
  if (batch.true_ctr.size() != static_cast<std::size_t>(batch.size)) {
    std::fprintf(stderr, "OracleRanker: batch lacks ground-truth propensities\n");
    std::abort();
  }
  models::Predictions preds;
  preds.ctr = Tensor::ColumnVector(batch.true_ctr);
  preds.cvr = Tensor::ColumnVector(batch.true_cvr);
  preds.ctcvr = ops::Mul(preds.ctr, preds.cvr);
  return preds;
}

Tensor OracleRanker::Loss(const data::Batch& batch,
                          const models::Predictions& preds) {
  (void)batch;
  (void)preds;
  return Tensor::Scalar(0.0f);
}

}  // namespace eval
}  // namespace dcmt
