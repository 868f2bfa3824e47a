#include "serve/frozen_model.h"

#include <numeric>
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
      schema_(std::move(schema)) {
  IndexEmbeddingTables();
}

void FrozenModel::IndexEmbeddingTables() {
  // SharedEmbeddings registers its tables as "embed.deep.fieldN" then
  // "embed.wide.fieldN" (models/common.cc); collect them in that order so
  // the table index is schema field order, deep fields first. Parameter
  // names are unique per module, so a linear scan per field suffices (the
  // table list is built once per FrozenModel).
  embedding_tables_.clear();
  auto find_table = [this](const std::string& name, Tensor* out) {
    for (const Tensor& p : model_->parameters()) {
      if (p.name() == name) {
        *out = p;
        return true;
      }
    }
    return false;
  };
  auto collect = [&](const char* kind, std::size_t fields) {
    for (std::size_t f = 0; f < fields; ++f) {
      Tensor table;
      if (!find_table(std::string("embed.") + kind + ".field" +
                          std::to_string(f),
                      &table)) {
        return;
      }
      embedding_tables_.push_back(table);
    }
  };
  collect("deep", schema_.deep_fields.size());
  collect("wide", schema_.wide_fields.size());
}

int FrozenModel::EmbeddingTableRows(int table) const {
  if (table < 0 || table >= EmbeddingTableCount()) return 0;
  return embedding_tables_[static_cast<std::size_t>(table)].rows();
}

int FrozenModel::EmbeddingTableDim(int table) const {
  if (table < 0 || table >= EmbeddingTableCount()) return 0;
  return embedding_tables_[static_cast<std::size_t>(table)].cols();
}

bool FrozenModel::EmbeddingRow(int table, int id,
                               std::vector<float>* out) const {
  if (table < 0 || table >= EmbeddingTableCount()) return false;
  const Tensor& t = embedding_tables_[static_cast<std::size_t>(table)];
  if (id < 0 || id >= t.rows()) return false;
  out->resize(static_cast<std::size_t>(t.cols()));
  for (int c = 0; c < t.cols(); ++c) {
    (*out)[static_cast<std::size_t>(c)] = t.at(id, c);
  }
  return true;
}

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
  std::vector<std::int64_t> indices(examples.size());
  std::iota(indices.begin(), indices.end(), 0);
  const data::Batch batch = data::MakeBatch(
      examples, indices, 0, static_cast<int>(examples.size()), schema_);
  return ScoreBatch(batch);
}

}  // namespace serve
}  // namespace dcmt
