#include "models/cross_stitch.h"

#include "tensor/ops.h"

namespace dcmt {
namespace models {

CrossStitch::CrossStitch(const data::FeatureSchema& schema,
                         const ModelConfig& config)
    : config_(config) {
  Rng rng(config.seed);
  embeddings_ = std::make_unique<SharedEmbeddings>(schema, config.embedding_dim, &rng);
  RegisterChild(*embeddings_);
  int in = embeddings_->input_width();
  for (std::size_t l = 0; l < config.hidden_dims.size(); ++l) {
    const int out = config.hidden_dims[l];
    auto a = std::make_unique<nn::Linear>("stitch.ctr.l" + std::to_string(l), in,
                                          out, &rng, "relu");
    auto b = std::make_unique<nn::Linear>("stitch.cvr.l" + std::to_string(l), in,
                                          out, &rng, "relu");
    RegisterChild(*a);
    RegisterChild(*b);
    ctr_layers_.push_back(std::move(a));
    cvr_layers_.push_back(std::move(b));
    std::array<Tensor, 4> unit;
    const float init[4] = {0.9f, 0.1f, 0.1f, 0.9f};
    for (int k = 0; k < 4; ++k) {
      unit[static_cast<std::size_t>(k)] = RegisterParameter(
          "stitch.unit" + std::to_string(l) + "." + std::to_string(k),
          Tensor::Scalar(init[k], /*requires_grad=*/true));
    }
    stitches_.push_back(unit);
    in = out;
  }
  ctr_head_ = std::make_unique<nn::Linear>("stitch.ctr.head", in, 1, &rng);
  RegisterChild(*ctr_head_);
  cvr_head_ = std::make_unique<nn::Linear>("stitch.cvr.head", in, 1, &rng);
  RegisterChild(*cvr_head_);
}

Predictions CrossStitch::ForwardRows(const data::Batch& batch) {
  Tensor ha = embeddings_->Input(batch);
  Tensor hb = ha;
  for (std::size_t l = 0; l < ctr_layers_.size(); ++l) {
    ha = ctr_layers_[l]->ForwardRelu(ha);
    hb = cvr_layers_[l]->ForwardRelu(hb);
    const auto& s = stitches_[l];
    const Tensor new_a = ops::Add(ops::Mul(ha, s[0]), ops::Mul(hb, s[1]));
    const Tensor new_b = ops::Add(ops::Mul(ha, s[2]), ops::Mul(hb, s[3]));
    ha = new_a;
    hb = new_b;
  }
  Predictions preds;
  preds.ctr_logit = ctr_head_->Forward(ha);
  preds.ctr = ops::Sigmoid(preds.ctr_logit);
  preds.cvr_logit = cvr_head_->Forward(hb);
  preds.cvr = ops::Sigmoid(preds.cvr_logit);
  preds.ctcvr = ops::Mul(preds.ctr, preds.cvr);
  return preds;
}

Tensor CrossStitch::Loss(const data::Batch& batch, const Predictions& preds) {
  return MtlLoss(preds, batch, config_);
}

}  // namespace models
}  // namespace dcmt
