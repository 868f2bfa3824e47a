#include "models/ple.h"

#include "tensor/ops.h"

namespace dcmt {
namespace models {

Ple::Ple(const data::FeatureSchema& schema, const ModelConfig& config)
    : config_(config) {
  Rng rng(config.seed);
  embeddings_ = std::make_unique<SharedEmbeddings>(schema, config.embedding_dim, &rng);
  RegisterChild(*embeddings_);
  const int in = embeddings_->input_width();
  const int expert_width = config.hidden_dims.front();

  auto make_pool = [&](const std::string& tag, int count,
                       std::vector<std::unique_ptr<nn::Mlp>>* pool) {
    for (int e = 0; e < count; ++e) {
      auto expert = std::make_unique<nn::Mlp>(
          "ple." + tag + std::to_string(e), in, std::vector<int>{expert_width},
          &rng, nn::Activation::kRelu);
      RegisterChild(*expert);
      pool->push_back(std::move(expert));
    }
  };
  make_pool("ctr_expert", config.specific_experts, &ctr_experts_);
  make_pool("cvr_expert", config.specific_experts, &cvr_experts_);
  make_pool("shared_expert", config.shared_experts, &shared_experts_);

  const int gate_outputs = config.specific_experts + config.shared_experts;
  ctr_gate_ = std::make_unique<nn::Linear>("ple.gate.ctr", in, gate_outputs, &rng);
  RegisterChild(*ctr_gate_);
  cvr_gate_ = std::make_unique<nn::Linear>("ple.gate.cvr", in, gate_outputs, &rng);
  RegisterChild(*cvr_gate_);

  const std::vector<int> tower_dims = ExpertTowerDims(config);
  ctr_tower_ = std::make_unique<Tower>("ple.ctr", expert_width, tower_dims, &rng);
  RegisterChild(*ctr_tower_);
  cvr_tower_ = std::make_unique<Tower>("ple.cvr", expert_width, tower_dims, &rng);
  RegisterChild(*cvr_tower_);
}

Tensor Ple::TaskMixture(const Tensor& x,
                        const std::vector<std::unique_ptr<nn::Mlp>>& own,
                        const nn::Linear& gate) const {
  std::vector<Tensor> outputs;
  outputs.reserve(own.size() + shared_experts_.size());
  for (const auto& expert : own) outputs.push_back(expert->Forward(x));
  for (const auto& expert : shared_experts_) outputs.push_back(expert->Forward(x));
  return MixExperts(outputs, gate, x);
}

Predictions Ple::ForwardRows(const data::Batch& batch) {
  const Tensor x = embeddings_->Input(batch);
  Predictions preds;
  preds.ctr = ctr_tower_->ForwardProb(TaskMixture(x, ctr_experts_, *ctr_gate_),
                                      &preds.ctr_logit);
  preds.cvr = cvr_tower_->ForwardProb(TaskMixture(x, cvr_experts_, *cvr_gate_),
                                      &preds.cvr_logit);
  preds.ctcvr = ops::Mul(preds.ctr, preds.cvr);
  return preds;
}

Tensor Ple::Loss(const data::Batch& batch, const Predictions& preds) {
  return MtlLoss(preds, batch, config_);
}

}  // namespace models
}  // namespace dcmt
