#ifndef DCMT_MODELS_ESMM_H_
#define DCMT_MODELS_ESMM_H_

#include <memory>
#include <string>

#include "models/common.h"
#include "models/multi_task_model.h"

namespace dcmt {
namespace models {

/// ESMM (Ma et al., SIGIR 2018): the parallel MTL baseline of Fig. 2(a).
/// Shared embedding bottom, parallel CTR and CVR towers; the CVR head has no
/// direct supervision — it is trained only through the CTCVR product
/// p(t=1|x) = pCTR * pCVR, plus the CTR task, both over the entire space D.
class Esmm : public MultiTaskModel {
 public:
  Esmm(const data::FeatureSchema& schema, const ModelConfig& config);

  Tensor Loss(const data::Batch& batch, const Predictions& preds) override;
  std::string name() const override { return "esmm"; }

 protected:
  Predictions ForwardRows(const data::Batch& batch) override;

 private:
  ModelConfig config_;
  std::unique_ptr<SharedEmbeddings> embeddings_;
  std::unique_ptr<Tower> ctr_tower_;
  std::unique_ptr<Tower> cvr_tower_;
};

}  // namespace models
}  // namespace dcmt

#endif  // DCMT_MODELS_ESMM_H_
