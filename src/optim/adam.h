#ifndef DCMT_OPTIM_ADAM_H_
#define DCMT_OPTIM_ADAM_H_

#include <cstdint>
#include <vector>

#include "optim/optimizer.h"

namespace dcmt {
namespace optim {

/// Complete serializable Adam state; restoring it resumes the exact update
/// sequence.
struct AdamState {
  std::int64_t step = 0;
  float lr = 0.0f;
  /// First/second moments, one vector per parameter in registration order.
  std::vector<std::vector<float>> m;
  std::vector<std::vector<float>> v;
};

/// Adam (Kingma & Ba, 2015) — the optimizer the paper trains every model
/// with (lr 1e-3). Weight decay here is coupled L2 (added to the gradient),
/// matching the λ2‖θ‖² term of the paper's Eq. (14); the trainer passes the
/// paper's λ2 directly as `weight_decay`.
class Adam : public Optimizer {
 public:
  Adam(std::vector<Tensor> params, float lr = 1e-3f, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f);

  void Step() override;

  void set_lr(float lr) { lr_ = lr; }

  /// Copies out the full optimizer state for checkpointing.
  AdamState ExportState() const;

  /// Restores a state captured by ExportState(). All-or-nothing: the moment
  /// shapes must match this optimizer's parameters exactly, otherwise the
  /// call returns false and the optimizer is left unchanged.
  bool ImportState(const AdamState& state);

 private:
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  float weight_decay_;
  std::int64_t step_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

}  // namespace optim
}  // namespace dcmt

#endif  // DCMT_OPTIM_ADAM_H_
