#ifndef DCMT_MODELS_CROSS_STITCH_H_
#define DCMT_MODELS_CROSS_STITCH_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "models/common.h"
#include "models/multi_task_model.h"

namespace dcmt {
namespace models {

/// Cross-Stitch networks (Misra et al., CVPR 2016), applied to CTR/CVR as in
/// the paper's multi-gate MTL baseline group. Two parallel towers whose
/// activations are linearly recombined after every hidden layer by learnable
/// 2x2 stitch units:
///   h_ctr' = s11 * h_ctr + s12 * h_cvr
///   h_cvr' = s21 * h_ctr + s22 * h_cvr
/// Stitch weights initialize to (0.9 own / 0.1 other).
class CrossStitch : public MultiTaskModel {
 public:
  CrossStitch(const data::FeatureSchema& schema, const ModelConfig& config);

  Tensor Loss(const data::Batch& batch, const Predictions& preds) override;
  std::string name() const override { return "cross-stitch"; }

 protected:
  Predictions ForwardRows(const data::Batch& batch) override;

 private:
  ModelConfig config_;
  std::unique_ptr<SharedEmbeddings> embeddings_;
  std::vector<std::unique_ptr<nn::Linear>> ctr_layers_;
  std::vector<std::unique_ptr<nn::Linear>> cvr_layers_;
  // Per hidden layer: s11, s12, s21, s22 as [1 x 1] parameters.
  std::vector<std::array<Tensor, 4>> stitches_;
  std::unique_ptr<nn::Linear> ctr_head_;
  std::unique_ptr<nn::Linear> cvr_head_;
};

}  // namespace models
}  // namespace dcmt

#endif  // DCMT_MODELS_CROSS_STITCH_H_
