#ifndef DCMT_DATA_DATASET_H_
#define DCMT_DATA_DATASET_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data/example.h"
#include "data/schema.h"

namespace dcmt {
namespace data {

/// Aggregate label statistics of a dataset (the numbers in the paper's
/// Table II).
struct DatasetStats {
  std::int64_t exposures = 0;
  std::int64_t clicks = 0;
  std::int64_t conversions = 0;         // observed (in O)
  std::int64_t oracle_conversions = 0;  // potential (in D; simulation oracle)
  std::int64_t fake_negatives = 0;      // non-click with oracle_conversion == 1
  double click_rate = 0.0;              // clicks / exposures
  double cvr_given_click = 0.0;         // conversions / clicks
  double ctcvr_rate = 0.0;              // conversions / exposures
};

/// An in-memory exposure log plus its feature schema.
class Dataset {
 public:
  Dataset() = default;
  Dataset(std::string name, FeatureSchema schema, std::vector<Example> examples)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        examples_(std::move(examples)) {}

  const std::string& name() const { return name_; }
  const FeatureSchema& schema() const { return schema_; }
  const std::vector<Example>& examples() const { return examples_; }
  std::int64_t size() const { return static_cast<std::int64_t>(examples_.size()); }
  bool empty() const { return examples_.empty(); }

  /// Computes Table-II style statistics in one pass.
  DatasetStats Stats() const;

  /// Splits off the first `head_count` examples into the first return value;
  /// the remainder goes to the second. Order-preserving.
  std::pair<Dataset, Dataset> SplitAt(std::int64_t head_count) const;

  /// Number of distinct user_index / item_index values present.
  std::int64_t DistinctUsers() const;
  std::int64_t DistinctItems() const;

 private:
  std::string name_;
  FeatureSchema schema_;
  std::vector<Example> examples_;
};

}  // namespace data
}  // namespace dcmt

#endif  // DCMT_DATA_DATASET_H_
