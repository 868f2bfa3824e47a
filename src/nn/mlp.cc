#include "nn/mlp.h"

#include <cstdio>
#include <cstdlib>

#include "tensor/ops.h"

namespace dcmt {
namespace nn {

Mlp::Mlp(std::string name, int in_features, std::vector<int> hidden_dims,
         Rng* rng, Activation activation)
    : activation_(activation) {
  if (hidden_dims.empty()) {
    std::fprintf(stderr, "Mlp requires at least one hidden layer\n");
    std::abort();
  }
  int in = in_features;
  const std::string hint = activation == Activation::kRelu ? "relu" : "sigmoid";
  for (std::size_t i = 0; i < hidden_dims.size(); ++i) {
    auto layer = std::make_unique<Linear>(
        name + ".layer" + std::to_string(i), in, hidden_dims[i], rng, hint);
    RegisterChild(*layer);
    in = hidden_dims[i];
    layers_.push_back(std::move(layer));
  }
}

Tensor Mlp::Forward(const Tensor& x) const {
  Tensor h = x;
  for (const auto& layer : layers_) {
    switch (activation_) {
      case Activation::kRelu:
        h = layer->ForwardRelu(h);
        break;
      case Activation::kTanh:
        h = ops::Tanh(layer->Forward(h));
        break;
      case Activation::kSigmoid:
        h = ops::Sigmoid(layer->Forward(h));
        break;
    }
  }
  return h;
}

int Mlp::out_features() const { return layers_.back()->out_features(); }

}  // namespace nn
}  // namespace dcmt
