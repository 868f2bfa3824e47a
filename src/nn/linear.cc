#include "nn/linear.h"

#include "nn/init.h"
#include "tensor/ops.h"

namespace dcmt {
namespace nn {

Linear::Linear(std::string name, int in_features, int out_features, Rng* rng,
               const std::string& activation_hint)
    : in_features_(in_features), out_features_(out_features) {
  Tensor w = activation_hint == "relu" ? HeNormal(in_features, out_features, rng)
                                       : XavierUniform(in_features, out_features, rng);
  weight_ = RegisterParameter(name + ".weight", w);
  bias_ = RegisterParameter(name + ".bias",
                            Tensor::Zeros(1, out_features, /*requires_grad=*/true));
}

Tensor Linear::Forward(const Tensor& x) const {
  return ops::Dense(x, weight_, bias_, /*relu=*/false);
}

Tensor Linear::ForwardRelu(const Tensor& x) const {
  return ops::Dense(x, weight_, bias_, /*relu=*/true);
}

}  // namespace nn
}  // namespace dcmt
