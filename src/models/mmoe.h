#ifndef DCMT_MODELS_MMOE_H_
#define DCMT_MODELS_MMOE_H_

#include <memory>
#include <string>
#include <vector>

#include "models/common.h"
#include "models/multi_task_model.h"

namespace dcmt {
namespace models {

/// MMOE (Ma et al., KDD 2018): multi-gate mixture-of-experts. A pool of
/// shared expert MLPs is combined per task by a softmax gate over experts;
/// each task tower consumes its own gated mixture. This is also the paper's
/// online *base model* in the A/B test (Table V).
class Mmoe : public MultiTaskModel {
 public:
  Mmoe(const data::FeatureSchema& schema, const ModelConfig& config);

  Tensor Loss(const data::Batch& batch, const Predictions& preds) override;
  std::string name() const override { return "mmoe"; }

 protected:
  Predictions ForwardRows(const data::Batch& batch) override;

 private:
  ModelConfig config_;
  std::unique_ptr<SharedEmbeddings> embeddings_;
  std::vector<std::unique_ptr<nn::Mlp>> experts_;
  std::unique_ptr<nn::Linear> ctr_gate_;
  std::unique_ptr<nn::Linear> cvr_gate_;
  std::unique_ptr<Tower> ctr_tower_;
  std::unique_ptr<Tower> cvr_tower_;
};

}  // namespace models
}  // namespace dcmt

#endif  // DCMT_MODELS_MMOE_H_
