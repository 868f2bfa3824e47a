#ifndef DCMT_MODELS_MULTI_TASK_MODEL_H_
#define DCMT_MODELS_MULTI_TASK_MODEL_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "data/batcher.h"
#include "data/schema.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace dcmt {
namespace models {

/// Hyper-parameters shared by every model in the zoo. Defaults follow the
/// paper's settings (Section IV-A2), scaled where DESIGN.md documents it.
struct ModelConfig {
  /// Embedding dimension for every feature (paper Fig. 8(a); paper default 32,
  /// our scaled default 16 — the paper's own sweep peaks at 16).
  int embedding_dim = 16;
  /// Hidden widths of the deep towers (paper: [64,64,32] on AE).
  std::vector<int> hidden_dims = {64, 32};
  /// Number of experts for MMOE.
  int num_experts = 4;
  /// PLE: specific experts per task and shared experts.
  int specific_experts = 2;
  int shared_experts = 2;
  /// Propensity clip: p̂ is clamped to [clip, 1-clip] before any 1/p̂ or
  /// 1/(1-p̂) — the paper's "(0,1)" clipping to avoid NaN loss.
  float propensity_clip = 0.1f;
  /// Weight λ1 of DCMT's counterfactual regularizer.
  float lambda1 = 1e-3f;
  /// Loss weights w^cvr, w^ctcvr of Eq. (14) (paper sets both to 1).
  float w_cvr = 1.0f;
  float w_ctcvr = 1.0f;
  /// ESCM²-only weight of its CTCVR "global risk" term. The ESCM² paper
  /// tunes this auxiliary weight low; with a large weight the CTCVR product
  /// dominates the CVR head over N and the model no longer exhibits the
  /// predict-near-posterior-O behaviour the DCMT paper reports (Fig. 7).
  float escm2_global_risk_weight = 0.1f;
  /// DCMT ablations: hard constraint r̂* = 1 − r̂ (Fig. 8(c)/(d)) and SNIPS
  /// self-normalization (Section III-F).
  bool hard_constraint = false;
  bool self_normalize = true;

  // --- Counterfactual-strategy extensions (the paper's stated future work:
  // "study the effect of different counterfactual strategies"). Defaults
  // reproduce the paper's mechanism exactly. ---

  /// Label smoothing ε for the counterfactual labels r* = 1 − r: the
  /// mirrored positives in N* become 1 − ε. Softens the fake-positive
  /// problem the paper attributes to N* (Section III-C). 0 = paper's exact
  /// mirror labels.
  float counterfactual_label_smoothing = 0.0f;
  /// Target c of the prior constraint r̂ + r̂* ≈ c. The paper's prior is
  /// c = 1 (a conversion decision has exactly two outcomes); other values
  /// explore weaker/stronger priors.
  float counterfactual_prior_sum = 1.0f;
  /// Parameter initialization seed.
  std::uint64_t seed = 7;
};

/// Multi-task predictions on one batch. `cvr_counterfactual` is only defined
/// for the DCMT family (the twin tower's second head), `imputed_error` only
/// for the doubly robust baselines (ESCM²-DR, Multi-DR).
///
/// The `*_logit` fields are optional pre-sigmoid logits recorded by models
/// whose heads produce one. When defined, the shared loss helpers (and the
/// DCMT loss) use the fused ops::SigmoidBce on the logit — one graph node,
/// no probability clamp — instead of BceLoss(prob). When undefined (e.g.
/// hand-built predictions in tests, or the hard-constraint counterfactual
/// head r̂* = 1 − r̂ which has no logit of its own) the losses fall back to
/// the probability-space BCE with numerics identical to before.
struct Predictions {
  Tensor ctr;
  Tensor cvr;
  Tensor ctcvr;
  Tensor cvr_counterfactual;
  Tensor ctr_logit;
  Tensor cvr_logit;
  Tensor cvr_cf_logit;
  /// Doubly robust error imputation ê = softplus(imputation tower) [B x 1],
  /// read by the DR losses. It travels with the predictions of its own
  /// batch, so interleaved or concurrent forwards cannot mix batches.
  Tensor imputed_error;
};

/// Rows per micro-batch at which a taped forward starts to split
/// (MultiTaskModel::Forward, DESIGN.md §9).
inline constexpr int kMicroBatchRows = 256;
/// Most micro-batches one batch splits into.
inline constexpr int kMaxMicroBatches = 4;

/// Number of micro-batches K a taped forward over `rows` rows runs as:
/// min(kMaxMicroBatches, rows / kMicroBatchRows), at least 1. A pure function
/// of the row count, never of the thread count, so training results depend
/// on the batch size but not on the number of threads.
inline int MicroBatchCount(int rows) {
  return std::clamp(rows / kMicroBatchRows, 1, kMaxMicroBatches);
}

/// Interface every CTR/CVR/CTCVR multi-task model implements. A model owns
/// its embeddings and towers; the trainer owns batching and optimization.
class MultiTaskModel : public nn::Module {
 public:
  ~MultiTaskModel() override = default;

  /// Builds the forward graph for one batch. A taped forward over B rows
  /// runs as K = MicroBatchCount(B) contiguous row micro-batches, micro-batch
  /// k owning rows [k·B/K, (k+1)·B/K): each builds its own tape through
  /// ForwardRows on its own pool shard, and ops::JoinMicroBatches joins their
  /// predictions back into full-batch columns, so Loss sees the whole batch.
  /// Every op of a model body is row-local, so the values are the bits of one
  /// ForwardRows over the whole batch; only the order of the parameter
  /// gradient sums changes. With K = 1 or under an InferenceGuard this is
  /// ForwardRows(batch) itself.
  Predictions Forward(const data::Batch& batch);

  /// Builds the scalar training loss from a batch and its predictions.
  /// (L2 regularization is applied by the optimizer as coupled weight decay,
  /// equivalent to the λ2‖θ‖² term of Eq. (14).)
  virtual Tensor Loss(const data::Batch& batch, const Predictions& preds) = 0;

  /// Registry name ("esmm", "dcmt", ...).
  virtual std::string name() const = 0;

 protected:
  /// Tests build the one-piece reference tape of a split forward through it.
  friend class UnsplitForwardForTesting;

  /// The model body: builds the forward graph for `batch` in one piece. Must
  /// be row-local (row i of every prediction depends on row i of the batch
  /// alone) and must not write model state, since Forward runs it on several
  /// micro-batches at once.
  virtual Predictions ForwardRows(const data::Batch& batch) = 0;
};

}  // namespace models
}  // namespace dcmt

#endif  // DCMT_MODELS_MULTI_TASK_MODEL_H_
