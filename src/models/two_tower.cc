#include "models/two_tower.h"

#include "tensor/ops.h"

namespace dcmt {
namespace models {

TwoTowerModel::TwoTowerModel(const data::FeatureSchema& schema,
                             const ModelConfig& config,
                             const std::string& prefix, bool imputation)
    : config_(config) {
  Rng rng(config.seed);
  embeddings_ = std::make_unique<SharedEmbeddings>(schema, config.embedding_dim, &rng);
  RegisterChild(*embeddings_);
  const int in = embeddings_->input_width();
  ctr_tower_ = std::make_unique<Tower>(prefix + ".ctr", in, config.hidden_dims, &rng);
  RegisterChild(*ctr_tower_);
  cvr_tower_ = std::make_unique<Tower>(prefix + ".cvr", in, config.hidden_dims, &rng);
  RegisterChild(*cvr_tower_);
  if (imputation) {
    imputation_tower_ =
        std::make_unique<Tower>(prefix + ".imp", in, config.hidden_dims, &rng);
    RegisterChild(*imputation_tower_);
  }
}

Predictions TwoTowerModel::ForwardRows(const data::Batch& batch) {
  const Tensor x = embeddings_->Input(batch);
  Predictions preds;
  preds.ctr = ctr_tower_->ForwardProb(x, &preds.ctr_logit);
  preds.cvr = cvr_tower_->ForwardProb(x, &preds.cvr_logit);
  preds.ctcvr = ops::Mul(preds.ctr, preds.cvr);
  if (imputation_tower_) {
    // Non-negative error imputation ê = softplus(logit).
    preds.imputed_error = ops::Softplus(imputation_tower_->ForwardLogit(x));
  }
  return preds;
}

Tensor Esmm::Loss(const data::Batch& batch, const Predictions& preds) {
  // ESMM supervises only the two entire-space tasks; pCVR is implicit.
  const Tensor ctr = CtrLoss(preds, batch);
  const Tensor ctcvr = CtcvrLoss(preds.ctcvr, batch);
  return ops::Add(ctr, ops::Scale(ctcvr, config().w_ctcvr));
}

Tensor NaiveCvr::Loss(const data::Batch& batch, const Predictions& preds) {
  const Tensor ctr = CtrLoss(preds, batch);
  const Tensor cvr = CvrLossClickedOnly(preds, batch);
  // Deliberately no CTCVR task: the naive estimator uses only O for CVR.
  return cvr.requires_grad() ? ops::Add(ctr, cvr) : ctr;
}

Escm2::Escm2(const data::FeatureSchema& schema, const ModelConfig& config,
             Estimator estimator, bool global_risk)
    : TwoTowerModel(schema, config, global_risk ? "escm2" : "multi",
                    /*imputation=*/estimator == Estimator::kDr),
      estimator_(estimator),
      global_risk_(global_risk) {}

std::string Escm2::name() const {
  return std::string(global_risk_ ? "escm2-" : "multi-") +
         (estimator_ == Estimator::kIpw ? "ipw" : "dr");
}

Tensor Escm2::Loss(const data::Batch& batch, const Predictions& preds) {
  const Tensor pctr_detached = preds.ctr.Detach();
  const float clip = config().propensity_clip;
  const Tensor cvr_loss =
      estimator_ == Estimator::kIpw
          ? IpwCvrLoss(preds, pctr_detached, batch, clip)
          : DrCvrLoss(preds, pctr_detached, batch, clip);
  const Tensor loss =
      ops::Add(CtrLoss(preds, batch), ops::Scale(cvr_loss, config().w_cvr));
  if (!global_risk_) return loss;
  return ops::Add(loss, ops::Scale(CtcvrLoss(preds.ctcvr, batch),
                                   config().escm2_global_risk_weight));
}

}  // namespace models
}  // namespace dcmt
