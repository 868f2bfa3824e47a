#include "models/multi_ipw_dr.h"

#include <algorithm>

#include "tensor/ops.h"

namespace dcmt {
namespace models {

MultiIpwDr::MultiIpwDr(const data::FeatureSchema& schema,
                       const ModelConfig& config, Variant variant)
    : config_(config), variant_(variant) {
  Rng rng(config.seed);
  embeddings_ = std::make_unique<SharedEmbeddings>(schema, config.embedding_dim, &rng);
  RegisterChild(*embeddings_);
  const int in = embeddings_->deep_width() + embeddings_->wide_width();
  ctr_tower_ = std::make_unique<Tower>("multi.ctr", in, config.hidden_dims, &rng);
  RegisterChild(*ctr_tower_);
  cvr_tower_ = std::make_unique<Tower>("multi.cvr", in, config.hidden_dims, &rng);
  RegisterChild(*cvr_tower_);
  if (variant_ == Variant::kDr) {
    imputation_tower_ =
        std::make_unique<Tower>("multi.imp", in, config.hidden_dims, &rng);
    RegisterChild(*imputation_tower_);
  }
}

Predictions MultiIpwDr::ForwardRows(const data::Batch& batch) {
  Tensor x = embeddings_->DeepInput(batch);
  if (embeddings_->has_wide()) {
    x = ops::ConcatCols({x, embeddings_->WideInput(batch)});
  }
  Predictions preds;
  preds.ctr = ctr_tower_->ForwardProb(x, &preds.ctr_logit);
  preds.cvr = cvr_tower_->ForwardProb(x, &preds.cvr_logit);
  preds.ctcvr = ops::Mul(preds.ctr, preds.cvr);
  if (variant_ == Variant::kDr) {
    preds.imputed_error = ops::Softplus(imputation_tower_->ForwardLogit(x));
  }
  return preds;
}

Tensor MultiIpwDr::Loss(const data::Batch& batch, const Predictions& preds) {
  const Tensor ctr_loss = CtrLoss(preds, batch);
  const Tensor pctr_detached = preds.ctr.Detach();

  Tensor cvr_loss;
  if (variant_ == Variant::kIpw) {
    cvr_loss = IpwCvrLoss(preds, pctr_detached, batch, config_.propensity_clip);
  } else {
    const Tensor e = CvrExampleLoss(preds, batch);
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
  return ops::Add(ctr_loss, ops::Scale(cvr_loss, config_.w_cvr));
}

}  // namespace models
}  // namespace dcmt
