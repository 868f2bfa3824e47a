#include "models/aitm.h"

#include <cmath>

#include "tensor/ops.h"

namespace dcmt {
namespace models {

Aitm::Aitm(const data::FeatureSchema& schema, const ModelConfig& config)
    : config_(config) {
  Rng rng(config.seed);
  embeddings_ = std::make_unique<SharedEmbeddings>(schema, config.embedding_dim, &rng);
  RegisterChild(*embeddings_);
  const int in = embeddings_->deep_width() + embeddings_->wide_width();
  ctr_trunk_ = std::make_unique<nn::Mlp>("aitm.ctr.trunk", in, config.hidden_dims,
                                         &rng, nn::Activation::kRelu);
  RegisterChild(*ctr_trunk_);
  cvr_trunk_ = std::make_unique<nn::Mlp>("aitm.cvr.trunk", in, config.hidden_dims,
                                         &rng, nn::Activation::kRelu);
  RegisterChild(*cvr_trunk_);
  const int h = ctr_trunk_->out_features();
  transfer_ = std::make_unique<nn::Linear>("aitm.transfer", h, h, &rng, "relu");
  RegisterChild(*transfer_);
  query_ = std::make_unique<nn::Linear>("aitm.q", h, h, &rng);
  RegisterChild(*query_);
  key_ = std::make_unique<nn::Linear>("aitm.k", h, h, &rng);
  RegisterChild(*key_);
  value_ = std::make_unique<nn::Linear>("aitm.v", h, h, &rng);
  RegisterChild(*value_);
  ctr_head_ = std::make_unique<nn::Linear>("aitm.ctr.head", h, 1, &rng);
  RegisterChild(*ctr_head_);
  cvr_head_ = std::make_unique<nn::Linear>("aitm.cvr.head", h, 1, &rng);
  RegisterChild(*cvr_head_);
}

Predictions Aitm::ForwardRows(const data::Batch& batch) {
  Tensor x = embeddings_->DeepInput(batch);
  if (embeddings_->has_wide()) {
    x = ops::ConcatCols({x, embeddings_->WideInput(batch)});
  }
  const Tensor h_ctr = ctr_trunk_->Forward(x);
  const Tensor h_cvr = cvr_trunk_->Forward(x);

  // Information transferred from the upstream (CTR) task.
  const Tensor transferred = transfer_->ForwardRelu(h_ctr);

  // AIT: single-head attention over the two tokens {transferred, h_cvr}.
  const float inv_sqrt_h =
      1.0f / std::sqrt(static_cast<float>(ctr_trunk_->out_features()));
  auto score = [&](const Tensor& token) {
    const Tensor q = query_->Forward(token);
    const Tensor k = key_->Forward(token);
    return ops::Scale(ops::SumRows(ops::Mul(q, k)), inv_sqrt_h);  // [B x 1]
  };
  const Tensor scores = ops::ConcatCols({score(transferred), score(h_cvr)});
  const Tensor weights = ops::SoftmaxRows(scores);  // [B x 2]
  const Tensor v1 = value_->Forward(transferred);
  const Tensor v2 = value_->Forward(h_cvr);
  const Tensor fused = ops::Add(ops::Mul(v1, ops::SliceCols(weights, 0, 1)),
                                ops::Mul(v2, ops::SliceCols(weights, 1, 1)));

  Predictions preds;
  preds.ctr_logit = ctr_head_->Forward(h_ctr);
  preds.ctr = ops::Sigmoid(preds.ctr_logit);
  preds.cvr_logit = cvr_head_->Forward(fused);
  preds.cvr = ops::Sigmoid(preds.cvr_logit);
  preds.ctcvr = ops::Mul(preds.ctr, preds.cvr);
  return preds;
}

Tensor Aitm::Loss(const data::Batch& batch, const Predictions& preds) {
  const Tensor ctr = CtrLoss(preds, batch);
  const Tensor cvr = CvrLossClickedOnly(preds, batch);
  const Tensor ctcvr = CtcvrLoss(preds.ctcvr, batch);
  // Behavioral expectation calibrator: conversions cannot outnumber clicks,
  // so penalize pCTCVR > pCTR.
  const Tensor calibrator =
      ops::Mean(ops::Relu(ops::Sub(preds.ctcvr, preds.ctr)));
  Tensor loss = ops::Add(ctr, ops::Scale(ctcvr, config_.w_ctcvr));
  if (cvr.requires_grad()) loss = ops::Add(loss, ops::Scale(cvr, config_.w_cvr));
  return ops::Add(loss, ops::Scale(calibrator, calibrator_weight_));
}

}  // namespace models
}  // namespace dcmt
