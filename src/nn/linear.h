#ifndef DCMT_NN_LINEAR_H_
#define DCMT_NN_LINEAR_H_

#include <string>

#include "nn/module.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace dcmt {
namespace nn {

/// Fully connected affine layer: y = x W + b, with W [in x out], b [1 x out].
/// This is also the paper's "generalized linear structure" φ(x; θ) for the
/// wide part when out == 1.
class Linear : public Module {
 public:
  /// `activation_hint` selects the initializer: "relu" -> He, else Xavier.
  Linear(std::string name, int in_features, int out_features, Rng* rng,
         const std::string& activation_hint = "sigmoid");

  /// Applies the layer to a [batch x in] activation: x W + b as one fused
  /// ops::Dense node, bit-identical to Add(MatMul(x, W), b).
  Tensor Forward(const Tensor& x) const;

  /// relu(x W + b) as one fused ops::Dense node, bit-identical to
  /// Relu(Forward(x)) without the intermediate pre-activation tensor.
  Tensor ForwardRelu(const Tensor& x) const;

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }
  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

 private:
  int in_features_;
  int out_features_;
  Tensor weight_;
  Tensor bias_;
};

}  // namespace nn
}  // namespace dcmt

#endif  // DCMT_NN_LINEAR_H_
