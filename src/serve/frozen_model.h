#ifndef DCMT_SERVE_FROZEN_MODEL_H_
#define DCMT_SERVE_FROZEN_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/io.h"
#include "data/batcher.h"
#include "data/example.h"
#include "data/schema.h"
#include "models/multi_task_model.h"

namespace dcmt {
namespace serve {

/// Per-row serving scores, column layout (index i = request row i).
struct ScoreColumns {
  std::vector<float> pctr;
  std::vector<float> pcvr;
  std::vector<float> pctcvr;
};

/// An immutable serving snapshot of a zoo model (DESIGN.md §13).
///
/// Scoring runs the model's own Forward under an InferenceGuard, so the
/// serving path executes the exact training kernels — tape-free, but
/// arithmetically the same code. Because every forward op computes each
/// output row independently with a fixed inner loop order, scores are
/// bit-identical to the taped Forward at any thread count and under any
/// micro-batch composition; the parity suite (serve_test, models_test)
/// asserts this for all 13 zoo variants.
///
/// FrozenModel is immutable after construction and therefore safe to score
/// from multiple threads *sequentially per call site*. With the pool wider
/// than one thread, a forward GEMM larger than one matmul grain (2^19
/// multiply-adds; a 256-row batch's first tower layer is 3.5 grains) fans
/// out across core::ThreadPool; smaller products and the elementwise
/// ops run on the calling thread, as does every chunk of a call that finds
/// the pool busy with another caller's job (DESIGN.md §9). A
/// serve-no-backward lint rule keeps this subsystem free of tape mutation.
class FrozenModel {
 public:
  /// Freezes an owned model (e.g. freshly trained in-process).
  FrozenModel(std::unique_ptr<models::MultiTaskModel> model,
              data::FeatureSchema schema);

  /// Non-owning view over a live model (e.g. an A/B bucket's); the model
  /// must outlive the view and must not be trained while scoring.
  static FrozenModel View(models::MultiTaskModel* model,
                          const data::FeatureSchema& schema);

  /// Builds the named zoo variant and loads a v2 checkpoint into it via
  /// nn::LoadParameters. Returns null when the checkpoint does not match
  /// the architecture (the module is validated before any mutation).
  /// `fs` defaults to the real file system.
  static std::unique_ptr<FrozenModel> Load(const std::string& name,
                                           const data::FeatureSchema& schema,
                                           const models::ModelConfig& config,
                                           const std::string& checkpoint_path,
                                           core::FileSystem* fs = nullptr);

  /// Scores one assembled batch; returned columns have batch.size entries.
  ScoreColumns ScoreBatch(const data::Batch& batch) const;

  /// Convenience: assembles a batch from `examples` (labels ignored) and
  /// scores it.
  ScoreColumns ScoreExamples(const std::vector<data::Example>& examples) const;

  const data::FeatureSchema& schema() const { return schema_; }
  /// Registry name of the underlying model ("dcmt", "esmm", ...).
  std::string name() const { return model_->name(); }

  // --- Embedding-table geometry and row access (DESIGN.md §16) -------------
  // The sharded serving tier replicates the MLP towers per engine but
  // consistent-hash-shards the embedding rows; these accessors are the row
  // store it shards. Tables are indexed deep fields first, then wide fields
  // (the SharedEmbeddings registration order). Zero tables means the
  // underlying variant does not use the shared embedding layer.

  int EmbeddingTableCount() const {
    return static_cast<int>(embedding_tables_.size());
  }
  /// Vocabulary size (row count) of `table`; 0 when out of range.
  int EmbeddingTableRows(int table) const;
  /// Embedding dimension of `table`; 0 when out of range.
  int EmbeddingTableDim(int table) const;
  /// Copies one embedding row; false when (table, id) is out of range.
  bool EmbeddingRow(int table, int id, std::vector<float>* out) const;

 private:
  FrozenModel(models::MultiTaskModel* model, data::FeatureSchema schema)
      : model_(model), schema_(std::move(schema)) {
    IndexEmbeddingTables();
  }

  /// Collects the shared embedding tables ("embed.deep.fieldN" /
  /// "embed.wide.fieldN" parameters) in deep-then-wide field order.
  void IndexEmbeddingTables();

  std::unique_ptr<models::MultiTaskModel> owned_;
  models::MultiTaskModel* model_ = nullptr;  // == owned_.get() when owning
  data::FeatureSchema schema_;
  std::vector<Tensor> embedding_tables_;  // shared handles into the model
};

}  // namespace serve
}  // namespace dcmt

#endif  // DCMT_SERVE_FROZEN_MODEL_H_
