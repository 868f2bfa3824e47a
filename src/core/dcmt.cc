#include "core/dcmt.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/obs.h"
#include "tensor/ops.h"

namespace dcmt {
namespace core {

Dcmt::Dcmt(const data::FeatureSchema& schema, const models::ModelConfig& config,
           Variant variant)
    : config_(config), variant_(variant) {
  Rng rng(config.seed);
  embeddings_ = std::make_unique<models::SharedEmbeddings>(
      schema, config.embedding_dim, &rng);
  RegisterChild(*embeddings_);
  const int deep_in = embeddings_->deep_width();
  const int wide_in = embeddings_->wide_width();

  ctr_tower_ = std::make_unique<models::Tower>("dcmt.ctr", deep_in,
                                               config.hidden_dims, &rng);
  RegisterChild(*ctr_tower_);
  if (wide_in > 0) {
    ctr_wide_ = std::make_unique<nn::Linear>("dcmt.ctr.wide", wide_in, 1, &rng);
    RegisterChild(*ctr_wide_);
  }

  twin_tower_ = std::make_unique<TwinTower>("dcmt.twin", deep_in, wide_in,
                                            config.hidden_dims, &rng,
                                            config.hard_constraint);
  RegisterChild(*twin_tower_);
}

std::string Dcmt::name() const {
  switch (variant_) {
    case Variant::kFull:
      return "dcmt";
    case Variant::kPd:
      return "dcmt-pd";
    case Variant::kCf:
      return "dcmt-cf";
  }
  return "dcmt";
}

models::Predictions Dcmt::ForwardRows(const data::Batch& batch) {
  const Tensor deep = embeddings_->DeepInput(batch);
  const Tensor wide =
      embeddings_->has_wide() ? embeddings_->WideInput(batch) : Tensor();

  models::Predictions preds;
  Tensor ctr_logit = ctr_tower_->ForwardLogit(deep);
  if (ctr_wide_) ctr_logit = ops::Add(ctr_logit, ctr_wide_->Forward(wide));
  preds.ctr_logit = ctr_logit;
  preds.ctr = ops::Sigmoid(ctr_logit);

  const TwinTowerOut twin = twin_tower_->Forward(deep, wide);
  preds.cvr = twin.factual;
  preds.cvr_logit = twin.factual_logit;
  preds.cvr_counterfactual = twin.counterfactual;
  preds.cvr_cf_logit = twin.counter_logit;  // undefined under hard constraint
  preds.ctcvr = ops::Mul(preds.ctr, preds.cvr);
  return preds;
}

Tensor Dcmt::CvrTaskLoss(const data::Batch& batch,
                         const models::Predictions& preds) {
  if (!preds.cvr_counterfactual.defined()) {
    std::fprintf(stderr, "Dcmt::CvrTaskLoss: missing counterfactual head\n");
    std::abort();
  }
  const int b = batch.size;
  const Tensor pctr = preds.ctr.Detach();
  const float* p = pctr.data();
  const float clip = config_.propensity_clip;

  // Per-example debiasing weights: inverse click propensity in O, inverse
  // non-click propensity in N* (Eq. 8), self-normalized per Eq. (13) for the
  // full/PD variants; uniform within each space for the CF variant.
  std::vector<float> w_factual(static_cast<std::size_t>(b), 0.0f);
  std::vector<float> w_counter(static_cast<std::size_t>(b), 0.0f);
  double factual_norm = 0.0, counter_norm = 0.0;
  std::int64_t n_clicked = 0, n_nonclicked = 0;
  for (int i = 0; i < b; ++i) {
    const float prop = std::clamp(p[i], clip, 1.0f - clip);
    if (batch.click_raw[static_cast<std::size_t>(i)]) {
      const float w = variant_ == Variant::kCf ? 1.0f : 1.0f / prop;
      w_factual[static_cast<std::size_t>(i)] = w;
      factual_norm += w;
      ++n_clicked;
    } else {
      const float w = variant_ == Variant::kCf ? 1.0f : 1.0f / (1.0f - prop);
      w_counter[static_cast<std::size_t>(i)] = w;
      counter_norm += w;
      ++n_nonclicked;
    }
  }
  if (obs::Enabled()) {
    // Propensity / IPW telemetry (DESIGN.md §12): distribution drift in the
    // debiasing weights is the main silent failure mode of Eq. 8/13, so the
    // clip hit rate, the propensity distribution and the factual vs
    // counterfactual weight mass are exported per loss evaluation. Runs as
    // a separate pass so the disabled path costs one branch.
    static obs::Counter obs_prop_observations =
        obs::Registry::Global().counter("dcmt_cvr_propensity_observations_total");
    static obs::Counter obs_clip_low =
        obs::Registry::Global().counter("dcmt_cvr_propensity_clip_low_total");
    static obs::Counter obs_clip_high =
        obs::Registry::Global().counter("dcmt_cvr_propensity_clip_high_total");
    static obs::Counter obs_clicked =
        obs::Registry::Global().counter("dcmt_cvr_examples_clicked_total");
    static obs::Counter obs_nonclicked =
        obs::Registry::Global().counter("dcmt_cvr_examples_nonclicked_total");
    static obs::Histogram obs_propensity =
        obs::Registry::Global().histogram("dcmt_cvr_propensity", 32, 0.0, 1.0);
    static obs::Gauge obs_mass_factual =
        obs::Registry::Global().gauge("dcmt_cvr_weight_mass_factual_last");
    static obs::Gauge obs_mass_counter =
        obs::Registry::Global().gauge("dcmt_cvr_weight_mass_counterfactual_last");
    std::int64_t clip_low = 0, clip_high = 0;
    for (int i = 0; i < b; ++i) {
      if (p[i] < clip) ++clip_low;
      if (p[i] > 1.0f - clip) ++clip_high;
      obs_propensity.Observe(static_cast<double>(p[i]));
    }
    obs_prop_observations.Inc(b);
    obs_clip_low.Inc(clip_low);
    obs_clip_high.Inc(clip_high);
    obs_clicked.Inc(n_clicked);
    obs_nonclicked.Inc(n_nonclicked);
    obs_mass_factual.Set(factual_norm);
    obs_mass_counter.Set(counter_norm);
  }

  const bool self_normalize = config_.self_normalize || variant_ == Variant::kCf;
  const double f_div = self_normalize ? factual_norm : static_cast<double>(b);
  const double c_div = self_normalize ? counter_norm : static_cast<double>(b);
  if (f_div > 0.0) {
    for (auto& w : w_factual) w = static_cast<float>(w / f_div);
  }
  if (c_div > 0.0) {
    for (auto& w : w_counter) w = static_cast<float>(w / c_div);
  }

  // Factual loss in O: e(r, r̂) — conversion labels are valid only in O and
  // the factual weights are zero elsewhere. Built from the fused
  // sigmoid+BCE on the head logit when the model recorded one.
  const Tensor e_factual = models::CvrExampleLoss(preds, batch);
  // Counterfactual loss in N*: labels r* = 1 − r against the counterfactual
  // head (in N the observed r is 0, so r* = 1: the mirrored positives).
  // Optional label smoothing ε maps {0,1} -> {ε, 1−ε} to soften the fake
  // positives in N* (counterfactual-strategy extension).
  Tensor counter_labels = ops::OneMinus(batch.conversion);
  if (config_.counterfactual_label_smoothing > 0.0f) {
    const float eps = config_.counterfactual_label_smoothing;
    counter_labels =
        ops::AddScalar(ops::Scale(counter_labels, 1.0f - 2.0f * eps), eps);
  }
  // Under the hard constraint r̂* has no logit (it is 1 − σ(z)), so the
  // probability-space BCE is the only correct form there.
  const Tensor e_counter =
      preds.cvr_cf_logit.defined()
          ? ops::SigmoidBce(preds.cvr_cf_logit, counter_labels)
          : ops::BceLoss(preds.cvr_counterfactual, counter_labels);

  Tensor loss = Tensor::Scalar(0.0f);
  if (n_clicked > 0) {
    loss = ops::WeightedSum(e_factual, Tensor::ColumnVector(w_factual));
  }
  if (n_nonclicked > 0) {
    const Tensor counter_term =
        ops::WeightedSum(e_counter, Tensor::ColumnVector(w_counter));
    loss = loss.requires_grad() ? ops::Add(loss, counter_term) : counter_term;
  }

  // Counterfactual prior regularizer (soft constraint): λ1/|D|·Σ|1−(r̂+r̂*)|.
  // Skipped for the PD variant (λ1 = 0) and meaningless under the hard
  // constraint (identically zero).
  if (variant_ != Variant::kPd && !config_.hard_constraint &&
      config_.lambda1 > 0.0f) {
    const Tensor sum = ops::Add(preds.cvr, preds.cvr_counterfactual);
    const Tensor reg = ops::Mean(
        ops::Abs(ops::AddScalar(ops::Neg(sum), config_.counterfactual_prior_sum)));
    loss = ops::Add(loss, ops::Scale(reg, config_.lambda1));
  }
  return loss;
}

Tensor Dcmt::Loss(const data::Batch& batch, const models::Predictions& preds) {
  const Tensor ctr_loss = models::CtrLoss(preds, batch);
  const Tensor cvr_loss = CvrTaskLoss(batch, preds);
  const Tensor ctcvr_loss = models::CtcvrLoss(preds.ctcvr, batch);
  Tensor loss = ops::Add(ctr_loss, ops::Scale(ctcvr_loss, config_.w_ctcvr));
  if (cvr_loss.requires_grad()) {
    loss = ops::Add(loss, ops::Scale(cvr_loss, config_.w_cvr));
  }
  return loss;
}

}  // namespace core
}  // namespace dcmt
