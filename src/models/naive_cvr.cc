#include "models/naive_cvr.h"

#include "tensor/ops.h"

namespace dcmt {
namespace models {

NaiveCvr::NaiveCvr(const data::FeatureSchema& schema, const ModelConfig& config) {
  Rng rng(config.seed);
  embeddings_ = std::make_unique<SharedEmbeddings>(schema, config.embedding_dim, &rng);
  RegisterChild(*embeddings_);
  const int in = embeddings_->deep_width() + embeddings_->wide_width();
  ctr_tower_ = std::make_unique<Tower>("naive.ctr", in, config.hidden_dims, &rng);
  RegisterChild(*ctr_tower_);
  cvr_tower_ = std::make_unique<Tower>("naive.cvr", in, config.hidden_dims, &rng);
  RegisterChild(*cvr_tower_);
}

Predictions NaiveCvr::ForwardRows(const data::Batch& batch) {
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

Tensor NaiveCvr::Loss(const data::Batch& batch, const Predictions& preds) {
  const Tensor ctr = CtrLoss(preds, batch);
  const Tensor cvr = CvrLossClickedOnly(preds, batch);
  // Deliberately no CTCVR task: the naive estimator uses only O for CVR.
  return cvr.requires_grad() ? ops::Add(ctr, cvr) : ctr;
}

}  // namespace models
}  // namespace dcmt
