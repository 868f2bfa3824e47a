#ifndef DCMT_MODELS_NAIVE_CVR_H_
#define DCMT_MODELS_NAIVE_CVR_H_

#include <memory>
#include <string>

#include "models/common.h"
#include "models/multi_task_model.h"

namespace dcmt {
namespace models {

/// The canonical *biased* estimator every causal CVR paper argues against
/// (Eq. 2 of the DCMT paper): a CVR tower trained by plain BCE on the click
/// space O only, with an independently trained CTR tower (needed for CTCVR
/// ranking). No debiasing of any kind — the reference point for the
/// loss-bias measurements in bench_ablation_bias.
class NaiveCvr : public MultiTaskModel {
 public:
  NaiveCvr(const data::FeatureSchema& schema, const ModelConfig& config);

  Tensor Loss(const data::Batch& batch, const Predictions& preds) override;
  std::string name() const override { return "naive"; }

 protected:
  Predictions ForwardRows(const data::Batch& batch) override;

 private:
  std::unique_ptr<SharedEmbeddings> embeddings_;
  std::unique_ptr<Tower> ctr_tower_;
  std::unique_ptr<Tower> cvr_tower_;
};

}  // namespace models
}  // namespace dcmt

#endif  // DCMT_MODELS_NAIVE_CVR_H_
