#ifndef DCMT_MODELS_AITM_H_
#define DCMT_MODELS_AITM_H_

#include <memory>
#include <string>

#include "models/common.h"
#include "models/multi_task_model.h"

namespace dcmt {
namespace models {

/// AITM (Xi et al., KDD 2021): adaptive information transfer along the
/// sequential dependence click -> conversion. The CVR tower's representation
/// is fused with information transferred from the CTR tower through a
/// single-head attention (AIT) module over the two "tokens"
/// {transferred info, own representation}; a behavioral-expectation
/// calibrator penalizes pCTCVR exceeding pCTR.
class Aitm : public MultiTaskModel {
 public:
  Aitm(const data::FeatureSchema& schema, const ModelConfig& config);

  Tensor Loss(const data::Batch& batch, const Predictions& preds) override;
  std::string name() const override { return "aitm"; }

 protected:
  Predictions ForwardRows(const data::Batch& batch) override;

 private:
  ModelConfig config_;
  float calibrator_weight_ = 0.6f;
  std::unique_ptr<SharedEmbeddings> embeddings_;
  std::unique_ptr<nn::Mlp> ctr_trunk_;
  std::unique_ptr<nn::Mlp> cvr_trunk_;
  std::unique_ptr<nn::Linear> transfer_;
  std::unique_ptr<nn::Linear> query_;
  std::unique_ptr<nn::Linear> key_;
  std::unique_ptr<nn::Linear> value_;
  std::unique_ptr<nn::Linear> ctr_head_;
  std::unique_ptr<nn::Linear> cvr_head_;
};

}  // namespace models
}  // namespace dcmt

#endif  // DCMT_MODELS_AITM_H_
