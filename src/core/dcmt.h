#ifndef DCMT_CORE_DCMT_H_
#define DCMT_CORE_DCMT_H_

#include <memory>
#include <string>

#include "core/twin_tower.h"
#include "models/common.h"
#include "models/multi_task_model.h"

namespace dcmt {
namespace core {

/// DCMT: the paper's Direct entire-space Causal Multi-Task framework
/// (Fig. 3). A wide&deep CTR tower plus the counterfactual twin CVR tower,
/// trained with the entire-space counterfactual loss:
///
///   E^DCMT = Σ_O w_i·e(r, r̂)  +  Σ_N* w*_i·e(r*, r̂*)
///            + (λ1/|D|) Σ_D |1 − (r̂ + r̂*)|          (Eq. 9)
///
/// where w_i are (self-normalized, Eq. 13) inverse click propensities in the
/// click space O and w*_i inverse *non-click* propensities in the mirrored
/// counterfactual space N* (whose labels are r* = 1 − r). Total training
/// loss adds the CTR and CTCVR tasks (Eq. 14); the λ2‖θ‖² term is applied by
/// the optimizer as weight decay.
///
/// Variants reproduce the paper's ablation (Table III/IV):
///   kPd   — propensity-based debiasing over D only: Eq. (8), λ1 = 0.
///   kCf   — counterfactual mechanism only: uniform (non-IPW) factual and
///           counterfactual losses + the λ1 regularizer.
///   kFull — both (the completed DCMT).
class Dcmt : public models::MultiTaskModel {
 public:
  enum class Variant { kFull, kPd, kCf };

  Dcmt(const data::FeatureSchema& schema, const models::ModelConfig& config,
       Variant variant = Variant::kFull);

  Tensor Loss(const data::Batch& batch,
              const models::Predictions& preds) override;
  std::string name() const override;

  Variant variant() const { return variant_; }

  /// The CVR-task part of the loss alone (Eq. 9), exposed for tests of the
  /// unbiasedness theorem (Theorem III.1).
  Tensor CvrTaskLoss(const data::Batch& batch, const models::Predictions& preds);

 protected:
  models::Predictions ForwardRows(const data::Batch& batch) override;

 private:
  models::ModelConfig config_;
  Variant variant_;
  std::unique_ptr<models::SharedEmbeddings> embeddings_;
  // CTR task: wide&deep (deep tower + generalized linear wide part).
  std::unique_ptr<models::Tower> ctr_tower_;
  std::unique_ptr<nn::Linear> ctr_wide_;
  // CVR task: the twin tower.
  std::unique_ptr<TwinTower> twin_tower_;
};

}  // namespace core
}  // namespace dcmt

#endif  // DCMT_CORE_DCMT_H_
