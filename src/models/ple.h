#ifndef DCMT_MODELS_PLE_H_
#define DCMT_MODELS_PLE_H_

#include <memory>
#include <string>
#include <vector>

#include "models/common.h"
#include "models/multi_task_model.h"

namespace dcmt {
namespace models {

/// PLE (Tang et al., RecSys 2020), single CGC extraction level. Each task
/// owns `specific_experts` private experts and shares `shared_experts` with
/// the other task; a per-task gate mixes [own privates + shared] — the
/// "customized sharing" that avoids negative transfer.
class Ple : public MultiTaskModel {
 public:
  Ple(const data::FeatureSchema& schema, const ModelConfig& config);

  Tensor Loss(const data::Batch& batch, const Predictions& preds) override;
  std::string name() const override { return "ple"; }

 protected:
  Predictions ForwardRows(const data::Batch& batch) override;

 private:
  Tensor TaskMixture(const Tensor& x,
                     const std::vector<std::unique_ptr<nn::Mlp>>& own,
                     const nn::Linear& gate) const;

  ModelConfig config_;
  std::unique_ptr<SharedEmbeddings> embeddings_;
  std::vector<std::unique_ptr<nn::Mlp>> ctr_experts_;
  std::vector<std::unique_ptr<nn::Mlp>> cvr_experts_;
  std::vector<std::unique_ptr<nn::Mlp>> shared_experts_;
  std::unique_ptr<nn::Linear> ctr_gate_;
  std::unique_ptr<nn::Linear> cvr_gate_;
  std::unique_ptr<Tower> ctr_tower_;
  std::unique_ptr<Tower> cvr_tower_;
};

}  // namespace models
}  // namespace dcmt

#endif  // DCMT_MODELS_PLE_H_
