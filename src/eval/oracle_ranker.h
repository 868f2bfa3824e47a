#ifndef DCMT_EVAL_ORACLE_RANKER_H_
#define DCMT_EVAL_ORACLE_RANKER_H_

#include <string>

#include "models/multi_task_model.h"

namespace dcmt {
namespace eval {

/// Evaluation-only "model" that emits the generator's ground-truth
/// propensities as its predictions. It has no parameters and cannot be
/// trained; its purpose is to provide the oracle upper bound in the online
/// A/B simulator and in metric sanity checks (no real model should beat it
/// except by sampling luck).
class OracleRanker : public models::MultiTaskModel {
 public:
  OracleRanker() = default;

  /// Oracle has nothing to learn; the loss is a constant zero scalar.
  Tensor Loss(const data::Batch& batch,
              const models::Predictions& preds) override;

  std::string name() const override { return "oracle"; }

 protected:
  models::Predictions ForwardRows(const data::Batch& batch) override;
};

}  // namespace eval
}  // namespace dcmt

#endif  // DCMT_EVAL_ORACLE_RANKER_H_
