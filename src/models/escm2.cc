#include "models/escm2.h"

#include <algorithm>

#include "tensor/ops.h"

namespace dcmt {
namespace models {

Escm2::Escm2(const data::FeatureSchema& schema, const ModelConfig& config,
             Variant variant)
    : config_(config), variant_(variant) {
  Rng rng(config.seed);
  embeddings_ = std::make_unique<SharedEmbeddings>(schema, config.embedding_dim, &rng);
  RegisterChild(*embeddings_);
  const int in = embeddings_->deep_width() + embeddings_->wide_width();
  ctr_tower_ = std::make_unique<Tower>("escm2.ctr", in, config.hidden_dims, &rng);
  RegisterChild(*ctr_tower_);
  cvr_tower_ = std::make_unique<Tower>("escm2.cvr", in, config.hidden_dims, &rng);
  RegisterChild(*cvr_tower_);
  if (variant_ == Variant::kDr) {
    imputation_tower_ =
        std::make_unique<Tower>("escm2.imp", in, config.hidden_dims, &rng);
    RegisterChild(*imputation_tower_);
  }
}

Predictions Escm2::ForwardRows(const data::Batch& batch) {
  Tensor x = embeddings_->DeepInput(batch);
  if (embeddings_->has_wide()) {
    x = ops::ConcatCols({x, embeddings_->WideInput(batch)});
  }
  Predictions preds;
  preds.ctr = ctr_tower_->ForwardProb(x, &preds.ctr_logit);
  preds.cvr = cvr_tower_->ForwardProb(x, &preds.cvr_logit);
  preds.ctcvr = ops::Mul(preds.ctr, preds.cvr);
  if (variant_ == Variant::kDr) {
    // Non-negative error imputation ê = softplus(logit).
    preds.imputed_error = ops::Softplus(imputation_tower_->ForwardLogit(x));
  }
  return preds;
}

Tensor Escm2::Loss(const data::Batch& batch, const Predictions& preds) {
  const Tensor ctr_loss = CtrLoss(preds, batch);
  const Tensor ctcvr_loss = CtcvrLoss(preds.ctcvr, batch);  // "global risk"
  const Tensor pctr_detached = preds.ctr.Detach();

  Tensor cvr_loss;
  if (variant_ == Variant::kIpw) {
    cvr_loss = IpwCvrLoss(preds, pctr_detached, batch, config_.propensity_clip);
  } else {
    // Doubly robust (Eq. 6): (1/B) Σ_D [ ê + o·(e − ê)/p̂ ],
    // plus the imputation task (1/B) Σ_O (e − ê)²/p̂.
    const Tensor e = CvrExampleLoss(preds, batch);  // [B x 1]
    const Tensor delta = ops::Sub(e, preds.imputed_error);
    const float* p = pctr_detached.data();
    std::vector<float> ipw(static_cast<std::size_t>(batch.size), 0.0f);
    const float inv_b = 1.0f / static_cast<float>(batch.size);
    for (int i = 0; i < batch.size; ++i) {
      if (batch.click_raw[static_cast<std::size_t>(i)]) {
        const float prop =
            std::clamp(p[i], config_.propensity_clip, 1.0f - config_.propensity_clip);
        ipw[static_cast<std::size_t>(i)] = inv_b / prop;
      }
    }
    const Tensor w = Tensor::ColumnVector(ipw);
    const Tensor dr = ops::Add(ops::Mean(preds.imputed_error), ops::WeightedSum(delta, w));
    const Tensor imp = ops::WeightedSum(ops::Square(delta), w);
    cvr_loss = ops::Add(dr, imp);
  }

  Tensor loss = ops::Add(ctr_loss, ops::Scale(cvr_loss, config_.w_cvr));
  return ops::Add(loss,
                  ops::Scale(ctcvr_loss, config_.escm2_global_risk_weight));
}

}  // namespace models
}  // namespace dcmt
