#include "models/common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "tensor/ops.h"

namespace dcmt {
namespace models {

SharedEmbeddings::SharedEmbeddings(const data::FeatureSchema& schema, int dim,
                                   Rng* rng) {
  deep_bag_ = std::make_unique<nn::EmbeddingBag>("embed.deep",
                                                 schema.DeepVocabSizes(), dim, rng);
  RegisterChild(*deep_bag_);
  if (schema.has_wide()) {
    wide_bag_ = std::make_unique<nn::EmbeddingBag>(
        "embed.wide", schema.WideVocabSizes(), dim, rng);
    RegisterChild(*wide_bag_);
  }
}

Tensor SharedEmbeddings::DeepInput(const data::Batch& batch) const {
  return deep_bag_->Forward(batch.deep_ids);
}

Tensor SharedEmbeddings::WideInput(const data::Batch& batch) const {
  if (!wide_bag_) return Tensor();
  return wide_bag_->Forward(batch.wide_ids);
}

Tensor SharedEmbeddings::Input(const data::Batch& batch) const {
  const Tensor deep = DeepInput(batch);
  if (!wide_bag_) return deep;
  return ops::ConcatCols({deep, WideInput(batch)});
}

Tower::Tower(std::string name, int in_features,
             const std::vector<int>& hidden_dims, Rng* rng) {
  trunk_ = std::make_unique<nn::Mlp>(name + ".trunk", in_features, hidden_dims,
                                     rng, nn::Activation::kRelu);
  RegisterChild(*trunk_);
  head_ = std::make_unique<nn::Linear>(name + ".head", trunk_->out_features(), 1,
                                       rng);
  RegisterChild(*head_);
}

Tensor Tower::ForwardLogit(const Tensor& x) const {
  return head_->Forward(trunk_->Forward(x));
}

Tensor Tower::ForwardProb(const Tensor& x, Tensor* logit) const {
  *logit = ForwardLogit(x);
  return ops::Sigmoid(*logit);
}

Tensor MixExperts(const std::vector<Tensor>& expert_outputs,
                  const nn::Linear& gate, const Tensor& x) {
  const Tensor weights = ops::SoftmaxRows(gate.Forward(x));  // [B x E]
  Tensor mixed;
  for (std::size_t e = 0; e < expert_outputs.size(); ++e) {
    const Tensor w = ops::SliceCols(weights, static_cast<int>(e), 1);  // [B x 1]
    const Tensor term = ops::Mul(expert_outputs[e], w);  // col-broadcast
    mixed = mixed.defined() ? ops::Add(mixed, term) : term;
  }
  return mixed;
}

std::vector<int> ExpertTowerDims(const ModelConfig& config) {
  const int expert_width = config.hidden_dims.front();
  std::vector<int> dims(config.hidden_dims.begin() + 1, config.hidden_dims.end());
  if (dims.empty()) dims = {expert_width / 2 > 0 ? expert_width / 2 : 1};
  return dims;
}

namespace {

// Normalized clicked-only mask 1{o_i}/|O|, or an undefined Tensor when the
// batch has no clicks.
Tensor ClickedOnlyWeights(const data::Batch& batch) {
  std::int64_t clicked = 0;
  for (std::uint8_t o : batch.click_raw) clicked += o;
  if (clicked == 0) return Tensor();
  std::vector<float> mask(static_cast<std::size_t>(batch.size));
  const float inv = 1.0f / static_cast<float>(clicked);
  for (int i = 0; i < batch.size; ++i) {
    mask[static_cast<std::size_t>(i)] =
        batch.click_raw[static_cast<std::size_t>(i)] ? inv : 0.0f;
  }
  return Tensor::ColumnVector(mask);
}

// Clicked-only inverse-propensity weights 1{o_i}/(B·clip(p̂_i)).
Tensor IpwWeights(const Tensor& pctr_detached, const data::Batch& batch,
                  float clip) {
  if (pctr_detached.requires_grad()) {
    std::fprintf(stderr, "IPW weights: propensities must be detached\n");
    std::abort();
  }
  const float* p = pctr_detached.data();
  std::vector<float> weights(static_cast<std::size_t>(batch.size), 0.0f);
  const float inv_b = 1.0f / static_cast<float>(batch.size);
  for (int i = 0; i < batch.size; ++i) {
    if (batch.click_raw[static_cast<std::size_t>(i)]) {
      const float prop = std::clamp(p[i], clip, 1.0f - clip);
      weights[static_cast<std::size_t>(i)] = inv_b / prop;
    }
  }
  return Tensor::ColumnVector(weights);
}

}  // namespace

Tensor CtrExampleLoss(const Predictions& preds, const data::Batch& batch) {
  return preds.ctr_logit.defined()
             ? ops::SigmoidBce(preds.ctr_logit, batch.click)
             : ops::BceLoss(preds.ctr, batch.click);
}

Tensor CvrExampleLoss(const Predictions& preds, const data::Batch& batch) {
  return preds.cvr_logit.defined()
             ? ops::SigmoidBce(preds.cvr_logit, batch.conversion)
             : ops::BceLoss(preds.cvr, batch.conversion);
}

Tensor CtrLoss(const Predictions& preds, const data::Batch& batch) {
  return ops::Mean(CtrExampleLoss(preds, batch));
}

Tensor CtcvrLoss(const Tensor& pctcvr, const data::Batch& batch) {
  return ops::Mean(ops::BceLoss(pctcvr, batch.ctcvr));
}

Tensor CvrLossClickedOnly(const Predictions& preds, const data::Batch& batch) {
  const Tensor weights = ClickedOnlyWeights(batch);
  if (!weights.defined()) return Tensor::Scalar(0.0f, /*requires_grad=*/false);
  return ops::WeightedSum(CvrExampleLoss(preds, batch), weights);
}

Tensor IpwCvrLoss(const Predictions& preds, const Tensor& pctr_detached,
                  const data::Batch& batch, float clip) {
  const Tensor w = IpwWeights(pctr_detached, batch, clip);
  return ops::WeightedSum(CvrExampleLoss(preds, batch), w);
}

Tensor DrCvrLoss(const Predictions& preds, const Tensor& pctr_detached,
                 const data::Batch& batch, float clip) {
  const Tensor delta = ops::Sub(CvrExampleLoss(preds, batch), preds.imputed_error);
  const Tensor w = IpwWeights(pctr_detached, batch, clip);
  const Tensor dr =
      ops::Add(ops::Mean(preds.imputed_error), ops::WeightedSum(delta, w));
  const Tensor imp = ops::WeightedSum(ops::Square(delta), w);
  return ops::Add(dr, imp);
}

Tensor MtlLoss(const Predictions& preds, const data::Batch& batch,
               const ModelConfig& config) {
  const Tensor ctr = CtrLoss(preds, batch);
  const Tensor cvr = CvrLossClickedOnly(preds, batch);
  const Tensor ctcvr = CtcvrLoss(preds.ctcvr, batch);
  Tensor loss = ops::Add(ctr, ops::Scale(ctcvr, config.w_ctcvr));
  if (cvr.requires_grad()) loss = ops::Add(loss, ops::Scale(cvr, config.w_cvr));
  return loss;
}

std::vector<float> ColumnToVector(const Tensor& t) {
  std::vector<float> out(static_cast<std::size_t>(t.rows()));
  const float* d = t.data();
  for (int i = 0; i < t.rows(); ++i) out[static_cast<std::size_t>(i)] = d[i];
  return out;
}

}  // namespace models
}  // namespace dcmt
