#include "serve/frozen_model.h"

#include <utility>

#include "core/registry.h"
#include "models/common.h"
#include "nn/serialize.h"
#include "tensor/tensor.h"

namespace dcmt {
namespace serve {

FrozenModel::FrozenModel(std::unique_ptr<models::MultiTaskModel> model,
                         data::FeatureSchema schema)
    : owned_(std::move(model)),
      model_(owned_.get()),
      schema_(std::move(schema)) {}

FrozenModel FrozenModel::View(models::MultiTaskModel* model,
                              const data::FeatureSchema& schema) {
  return FrozenModel(model, schema);
}

std::unique_ptr<FrozenModel> FrozenModel::Load(
    const std::string& name, const data::FeatureSchema& schema,
    const models::ModelConfig& config, const std::string& checkpoint_path,
    core::FileSystem* fs) {
  auto model = core::CreateModel(name, schema, config);
  if (!nn::LoadParameters(model.get(), checkpoint_path, fs)) return nullptr;
  return std::make_unique<FrozenModel>(std::move(model), schema);
}

ScoreColumns FrozenModel::ScoreBatch(const data::Batch& batch) const {
  InferenceGuard guard;
  const models::Predictions preds = model_->Forward(batch);
  ScoreColumns scores;
  scores.pctr = models::ColumnToVector(preds.ctr);
  scores.pcvr = models::ColumnToVector(preds.cvr);
  scores.pctcvr = models::ColumnToVector(preds.ctcvr);
  return scores;
}

ScoreColumns FrozenModel::ScoreExamples(
    const std::vector<data::Example>& examples) const {
  if (examples.empty()) return {};
  data::BatchBuilder builder(schema_, static_cast<int>(examples.size()));
  for (const data::Example& example : examples) builder.Add(example);
  return ScoreBatch(builder.Finish());
}

}  // namespace serve
}  // namespace dcmt
