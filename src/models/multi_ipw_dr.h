#ifndef DCMT_MODELS_MULTI_IPW_DR_H_
#define DCMT_MODELS_MULTI_IPW_DR_H_

#include <memory>
#include <string>

#include "models/common.h"
#include "models/multi_task_model.h"

namespace dcmt {
namespace models {

/// Multi-IPW / Multi-DR (Zhang et al., WWW 2020): the first large-scale
/// causal multi-task debiasing framework for CVR, the direct ancestor of
/// ESCM². Identical tower layout to ESCM² but *without* the CTCVR global
/// risk term — CTR task plus the (doubly robust) inverse-propensity CVR
/// task only. Kept as an extension baseline beyond the paper's Table IV
/// seven (the paper cites both as [10]).
class MultiIpwDr : public MultiTaskModel {
 public:
  enum class Variant { kIpw, kDr };

  MultiIpwDr(const data::FeatureSchema& schema, const ModelConfig& config,
             Variant variant);

  Tensor Loss(const data::Batch& batch, const Predictions& preds) override;
  std::string name() const override {
    return variant_ == Variant::kIpw ? "multi-ipw" : "multi-dr";
  }

 protected:
  Predictions ForwardRows(const data::Batch& batch) override;

 private:
  ModelConfig config_;
  Variant variant_;
  std::unique_ptr<SharedEmbeddings> embeddings_;
  std::unique_ptr<Tower> ctr_tower_;
  std::unique_ptr<Tower> cvr_tower_;
  std::unique_ptr<Tower> imputation_tower_;  // kDr only
};

}  // namespace models
}  // namespace dcmt

#endif  // DCMT_MODELS_MULTI_IPW_DR_H_
