#ifndef DCMT_MODELS_ESCM2_H_
#define DCMT_MODELS_ESCM2_H_

#include <memory>
#include <string>

#include "models/common.h"
#include "models/multi_task_model.h"

namespace dcmt {
namespace models {

/// ESCM² (Wang et al., SIGIR 2022): the state-of-the-art causal baselines.
///
///   - kIpw: two towers (CTR + CVR); the CVR loss is inverse-propensity
///     weighted over the click space O (Eq. 5 of the DCMT paper), with the
///     CTCVR "global risk" term over D.
///   - kDr: adds a third imputation tower predicting the CVR error ê
///     (softplus head, non-negative); the CVR loss is the doubly robust
///     estimator (Eq. 6), with an inverse-propensity-weighted squared
///     imputation residual as the auxiliary task.
///
/// Propensities used in any 1/p̂ are detached and clipped, per both papers'
/// practice (the DCMT paper's "(0,1)" clipping).
class Escm2 : public MultiTaskModel {
 public:
  enum class Variant { kIpw, kDr };

  Escm2(const data::FeatureSchema& schema, const ModelConfig& config,
        Variant variant);

  Tensor Loss(const data::Batch& batch, const Predictions& preds) override;
  std::string name() const override {
    return variant_ == Variant::kIpw ? "escm2-ipw" : "escm2-dr";
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

#endif  // DCMT_MODELS_ESCM2_H_
