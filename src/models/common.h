#ifndef DCMT_MODELS_COMMON_H_
#define DCMT_MODELS_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "data/batcher.h"
#include "data/schema.h"
#include "models/multi_task_model.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "nn/module.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace dcmt {
namespace models {

/// The shared Embedding Layer of Fig. 3: one deep bag and (if the schema has
/// wide fields) one wide bag, shared by CTR Task and CVR Task.
class SharedEmbeddings : public nn::Module {
 public:
  SharedEmbeddings(const data::FeatureSchema& schema, int dim, Rng* rng);

  /// Concatenated deep embeddings [B x deep_fields*dim].
  Tensor DeepInput(const data::Batch& batch) const;

  /// Concatenated wide embeddings, or an undefined Tensor when the schema
  /// has no wide fields (the paper's degeneration to a pure deep structure).
  Tensor WideInput(const data::Batch& batch) const;

  /// Deep ⊕ wide: DeepInput, followed by WideInput's columns when the schema
  /// has wide fields [B x input_width()]. The input of every baseline.
  Tensor Input(const data::Batch& batch) const;

  int deep_width() const { return deep_bag_->out_features(); }
  int wide_width() const { return wide_bag_ ? wide_bag_->out_features() : 0; }
  int input_width() const { return deep_width() + wide_width(); }
  bool has_wide() const { return wide_bag_ != nullptr; }

 private:
  std::unique_ptr<nn::EmbeddingBag> deep_bag_;
  std::unique_ptr<nn::EmbeddingBag> wide_bag_;
};

/// A deep prediction tower: MLP trunk + linear head producing a [B x 1] logit.
class Tower : public nn::Module {
 public:
  Tower(std::string name, int in_features, const std::vector<int>& hidden_dims,
        Rng* rng);

  /// Returns the pre-sigmoid logit.
  Tensor ForwardLogit(const Tensor& x) const;

  /// Returns sigmoid(logit) and stores the logit in `*logit` so callers can
  /// hand it to the fused SigmoidBce losses (Predictions::*_logit fields).
  Tensor ForwardProb(const Tensor& x, Tensor* logit) const;

 private:
  std::unique_ptr<nn::Mlp> trunk_;
  std::unique_ptr<nn::Linear> head_;
};

/// Softmax-gated mixture of expert outputs for one task (MMoE, PLE):
/// Σ_e softmax(gate(x))[:, e] · expert_outputs[e].
Tensor MixExperts(const std::vector<Tensor>& expert_outputs,
                  const nn::Linear& gate, const Tensor& x);

/// Task-tower widths of the expert models (MMoE, PLE), whose experts are one
/// hidden layer of width hidden_dims[0]: the rest of hidden_dims, or half the
/// expert width (at least 1) when there is no rest.
std::vector<int> ExpertTowerDims(const ModelConfig& config);

// --- Loss helpers shared across the zoo -------------------------------------
//
// When the matching logit field of Predictions is defined, the per-example
// BCE is built with the fused ops::SigmoidBce(logit, label) (one node,
// clamp-free); otherwise with ops::BceLoss(prob, label), so hand-built
// probability-only predictions get the probability-space arithmetic.

/// Per-example CTR BCE [B x 1] (logit-fused when preds.ctr_logit is set).
Tensor CtrExampleLoss(const Predictions& preds, const data::Batch& batch);

/// Per-example CVR BCE [B x 1] against conversion labels (logit-fused when
/// preds.cvr_logit is set). The building block of every CVR-space loss.
Tensor CvrExampleLoss(const Predictions& preds, const data::Batch& batch);

/// Mean BCE of pCTR against click labels over D (Eq. 15, first line).
Tensor CtrLoss(const Predictions& preds, const data::Batch& batch);

/// Mean BCE of pCTCVR against click&conversion labels over D (Eq. 15).
Tensor CtcvrLoss(const Tensor& pctcvr, const data::Batch& batch);

/// Naive CVR loss over the click space O: sum of per-sample BCE over clicked
/// examples divided by the number of clicked examples (Eq. 2). Returns a
/// zero scalar if the batch has no clicks.
Tensor CvrLossClickedOnly(const Predictions& preds, const data::Batch& batch);

/// IPW CVR loss (Eq. 5): (1/B) Σ_O e_i / clip(p̂_i). Propensities are
/// detached (gradients do not flow into the CTR tower through the weights)
/// and clamped to [clip, 1-clip].
Tensor IpwCvrLoss(const Predictions& preds, const Tensor& pctr_detached,
                  const data::Batch& batch, float clip);

/// Doubly robust CVR loss (Eq. 6) plus its imputation task:
/// (1/B) Σ_D [ ê + o·(e − ê)/p̂ ] + (1/B) Σ_O (e − ê)²/p̂, with ê =
/// preds.imputed_error and the same detached, clipped p̂ as IpwCvrLoss.
Tensor DrCvrLoss(const Predictions& preds, const Tensor& pctr_detached,
                 const data::Batch& batch, float clip);

/// The loss of the MTL baselines (cross-stitch, MMoE, PLE, AITM):
/// CtrLoss + w_ctcvr·CtcvrLoss over D, plus w_cvr·CvrLossClickedOnly when
/// the batch has clicks.
Tensor MtlLoss(const Predictions& preds, const data::Batch& batch,
               const ModelConfig& config);

/// Host-side helper: extracts column-0 floats of a [B x 1] tensor.
std::vector<float> ColumnToVector(const Tensor& t);

}  // namespace models
}  // namespace dcmt

#endif  // DCMT_MODELS_COMMON_H_
