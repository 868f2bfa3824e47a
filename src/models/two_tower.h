#ifndef DCMT_MODELS_TWO_TOWER_H_
#define DCMT_MODELS_TWO_TOWER_H_

#include <memory>
#include <string>

#include "models/common.h"
#include "models/multi_task_model.h"

namespace dcmt {
namespace models {

/// The body shared by ESMM, the naive estimator and ESCM² / Multi-IPW/DR:
/// the shared embeddings, then a `<prefix>.ctr` and a `<prefix>.cvr` tower
/// over deep ⊕ wide and, for the doubly robust variants, a `<prefix>.imp`
/// error-imputation tower, drawn from Rng(config.seed) in that order.
/// pCTCVR = pCTR · pCVR. Subclasses differ only in their loss over D and O.
class TwoTowerModel : public MultiTaskModel {
 protected:
  TwoTowerModel(const data::FeatureSchema& schema, const ModelConfig& config,
                const std::string& prefix, bool imputation);

  Predictions ForwardRows(const data::Batch& batch) override;

  const ModelConfig& config() const { return config_; }

 private:
  ModelConfig config_;
  std::unique_ptr<SharedEmbeddings> embeddings_;
  std::unique_ptr<Tower> ctr_tower_;
  std::unique_ptr<Tower> cvr_tower_;
  std::unique_ptr<Tower> imputation_tower_;  // doubly robust variants only
};

/// ESMM (Ma et al., SIGIR 2018): the parallel MTL baseline of Fig. 2(a).
/// The CVR head has no direct supervision — it is trained only through the
/// CTCVR product p(t=1|x) = pCTR * pCVR, plus the CTR task, both over the
/// entire space D.
class Esmm : public TwoTowerModel {
 public:
  Esmm(const data::FeatureSchema& schema, const ModelConfig& config)
      : TwoTowerModel(schema, config, "esmm", /*imputation=*/false) {}

  Tensor Loss(const data::Batch& batch, const Predictions& preds) override;
  std::string name() const override { return "esmm"; }
};

/// The canonical *biased* estimator every causal CVR paper argues against
/// (Eq. 2 of the DCMT paper): a CVR tower trained by plain BCE on the click
/// space O only, with an independently trained CTR tower (needed for CTCVR
/// ranking). No debiasing of any kind — the reference point for the
/// loss-bias measurements in bench_ablation_bias.
class NaiveCvr : public TwoTowerModel {
 public:
  NaiveCvr(const data::FeatureSchema& schema, const ModelConfig& config)
      : TwoTowerModel(schema, config, "naive", /*imputation=*/false) {}

  Tensor Loss(const data::Batch& batch, const Predictions& preds) override;
  std::string name() const override { return "naive"; }
};

/// ESCM² (Wang et al., SIGIR 2022), the state-of-the-art causal baseline,
/// and its direct ancestor Multi-IPW / Multi-DR (Zhang et al., WWW 2020),
/// which is ESCM² without the CTCVR "global risk" term over D.
///
///   - kIpw: the CVR loss is inverse-propensity weighted over the click
///     space O (Eq. 5 of the DCMT paper).
///   - kDr: adds the imputation tower predicting the CVR error ê (softplus
///     head, non-negative); the CVR loss is the doubly robust estimator
///     (Eq. 6), with an inverse-propensity-weighted squared imputation
///     residual as the auxiliary task.
///
/// The registry builds "escm2-ipw"/"escm2-dr" with the global risk term
/// (parameter prefix "escm2") and "multi-ipw"/"multi-dr" without it
/// (prefix "multi"). Propensities used in any 1/p̂ are detached and clipped,
/// per both papers' practice (the DCMT paper's "(0,1)" clipping).
class Escm2 : public TwoTowerModel {
 public:
  enum class Estimator { kIpw, kDr };

  Escm2(const data::FeatureSchema& schema, const ModelConfig& config,
        Estimator estimator, bool global_risk);

  Tensor Loss(const data::Batch& batch, const Predictions& preds) override;
  std::string name() const override;

 private:
  Estimator estimator_;
  bool global_risk_;
};

}  // namespace models
}  // namespace dcmt

#endif  // DCMT_MODELS_TWO_TOWER_H_
