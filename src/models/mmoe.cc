#include "models/mmoe.h"

#include "tensor/ops.h"

namespace dcmt {
namespace models {

Mmoe::Mmoe(const data::FeatureSchema& schema, const ModelConfig& config)
    : config_(config) {
  Rng rng(config.seed);
  embeddings_ = std::make_unique<SharedEmbeddings>(schema, config.embedding_dim, &rng);
  RegisterChild(*embeddings_);
  const int in = embeddings_->deep_width() + embeddings_->wide_width();

  // Experts are single-hidden-layer MLPs at the first tower width; the task
  // towers add the remaining depth (standard MMOE decomposition).
  const int expert_width = config.hidden_dims.front();
  for (int e = 0; e < config.num_experts; ++e) {
    auto expert = std::make_unique<nn::Mlp>("mmoe.expert" + std::to_string(e),
                                            in, std::vector<int>{expert_width},
                                            &rng, nn::Activation::kRelu);
    RegisterChild(*expert);
    experts_.push_back(std::move(expert));
  }
  ctr_gate_ = std::make_unique<nn::Linear>("mmoe.gate.ctr", in,
                                           config.num_experts, &rng);
  RegisterChild(*ctr_gate_);
  cvr_gate_ = std::make_unique<nn::Linear>("mmoe.gate.cvr", in,
                                           config.num_experts, &rng);
  RegisterChild(*cvr_gate_);

  std::vector<int> tower_dims(config.hidden_dims.begin() + 1,
                              config.hidden_dims.end());
  if (tower_dims.empty()) tower_dims = {expert_width / 2 > 0 ? expert_width / 2 : 1};
  ctr_tower_ = std::make_unique<Tower>("mmoe.ctr", expert_width, tower_dims, &rng);
  RegisterChild(*ctr_tower_);
  cvr_tower_ = std::make_unique<Tower>("mmoe.cvr", expert_width, tower_dims, &rng);
  RegisterChild(*cvr_tower_);
}

Tensor Mmoe::MixExperts(const std::vector<Tensor>& expert_outputs,
                        const Tensor& x, const nn::Linear& gate) const {
  const Tensor weights = ops::SoftmaxRows(gate.Forward(x));  // [B x E]
  Tensor mixed;
  for (std::size_t e = 0; e < expert_outputs.size(); ++e) {
    const Tensor w = ops::SliceCols(weights, static_cast<int>(e), 1);  // [B x 1]
    const Tensor term = ops::Mul(expert_outputs[e], w);  // col-broadcast
    mixed = mixed.defined() ? ops::Add(mixed, term) : term;
  }
  return mixed;
}

Predictions Mmoe::ForwardRows(const data::Batch& batch) {
  Tensor x = embeddings_->DeepInput(batch);
  if (embeddings_->has_wide()) {
    x = ops::ConcatCols({x, embeddings_->WideInput(batch)});
  }
  std::vector<Tensor> expert_outputs;
  expert_outputs.reserve(experts_.size());
  for (const auto& expert : experts_) expert_outputs.push_back(expert->Forward(x));

  Predictions preds;
  preds.ctr = ctr_tower_->ForwardProb(MixExperts(expert_outputs, x, *ctr_gate_),
                                      &preds.ctr_logit);
  preds.cvr = cvr_tower_->ForwardProb(MixExperts(expert_outputs, x, *cvr_gate_),
                                      &preds.cvr_logit);
  preds.ctcvr = ops::Mul(preds.ctr, preds.cvr);
  return preds;
}

Tensor Mmoe::Loss(const data::Batch& batch, const Predictions& preds) {
  const Tensor ctr = CtrLoss(preds, batch);
  const Tensor cvr = CvrLossClickedOnly(preds, batch);
  const Tensor ctcvr = CtcvrLoss(preds.ctcvr, batch);
  Tensor loss = ops::Add(ctr, ops::Scale(ctcvr, config_.w_ctcvr));
  if (cvr.requires_grad()) loss = ops::Add(loss, ops::Scale(cvr, config_.w_cvr));
  return loss;
}

}  // namespace models
}  // namespace dcmt
