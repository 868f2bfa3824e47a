#include "models/mmoe.h"

#include "tensor/ops.h"

namespace dcmt {
namespace models {

Mmoe::Mmoe(const data::FeatureSchema& schema, const ModelConfig& config)
    : config_(config) {
  Rng rng(config.seed);
  embeddings_ = std::make_unique<SharedEmbeddings>(schema, config.embedding_dim, &rng);
  RegisterChild(*embeddings_);
  const int in = embeddings_->input_width();

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

  const std::vector<int> tower_dims = ExpertTowerDims(config);
  ctr_tower_ = std::make_unique<Tower>("mmoe.ctr", expert_width, tower_dims, &rng);
  RegisterChild(*ctr_tower_);
  cvr_tower_ = std::make_unique<Tower>("mmoe.cvr", expert_width, tower_dims, &rng);
  RegisterChild(*cvr_tower_);
}

Predictions Mmoe::ForwardRows(const data::Batch& batch) {
  const Tensor x = embeddings_->Input(batch);
  std::vector<Tensor> expert_outputs;
  expert_outputs.reserve(experts_.size());
  for (const auto& expert : experts_) expert_outputs.push_back(expert->Forward(x));

  Predictions preds;
  preds.ctr = ctr_tower_->ForwardProb(MixExperts(expert_outputs, *ctr_gate_, x),
                                      &preds.ctr_logit);
  preds.cvr = cvr_tower_->ForwardProb(MixExperts(expert_outputs, *cvr_gate_, x),
                                      &preds.cvr_logit);
  preds.ctcvr = ops::Mul(preds.ctr, preds.cvr);
  return preds;
}

Tensor Mmoe::Loss(const data::Batch& batch, const Predictions& preds) {
  return MtlLoss(preds, batch, config_);
}

}  // namespace models
}  // namespace dcmt
