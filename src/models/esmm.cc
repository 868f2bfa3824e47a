#include "models/esmm.h"

#include "tensor/ops.h"

namespace dcmt {
namespace models {

Esmm::Esmm(const data::FeatureSchema& schema, const ModelConfig& config)
    : config_(config) {
  Rng rng(config.seed);
  embeddings_ = std::make_unique<SharedEmbeddings>(schema, config.embedding_dim, &rng);
  RegisterChild(*embeddings_);
  const int in = embeddings_->deep_width() + embeddings_->wide_width();
  ctr_tower_ = std::make_unique<Tower>("esmm.ctr", in, config.hidden_dims, &rng);
  RegisterChild(*ctr_tower_);
  cvr_tower_ = std::make_unique<Tower>("esmm.cvr", in, config.hidden_dims, &rng);
  RegisterChild(*cvr_tower_);
}

Predictions Esmm::ForwardRows(const data::Batch& batch) {
  Tensor x = embeddings_->DeepInput(batch);
  if (embeddings_->has_wide()) {
    x = ops::ConcatCols({x, embeddings_->WideInput(batch)});
  }
  Predictions preds;
  preds.ctr = ctr_tower_->ForwardProb(x, &preds.ctr_logit);
  preds.cvr = cvr_tower_->ForwardProb(x, &preds.cvr_logit);
  preds.ctcvr = ops::Mul(preds.ctr, preds.cvr);
  return preds;
}

Tensor Esmm::Loss(const data::Batch& batch, const Predictions& preds) {
  // ESMM supervises only the two entire-space tasks; pCVR is implicit.
  const Tensor ctr = CtrLoss(preds, batch);
  const Tensor ctcvr = CtcvrLoss(preds.ctcvr, batch);
  return ops::Add(ctr, ops::Scale(ctcvr, config_.w_ctcvr));
}

}  // namespace models
}  // namespace dcmt
