#include "data/dataset.h"

#include <unordered_set>

namespace dcmt {
namespace data {

DatasetStats Dataset::Stats() const {
  DatasetStats s;
  s.exposures = size();
  for (const Example& e : examples_) {
    s.clicks += e.click;
    s.conversions += e.conversion;
    s.oracle_conversions += e.oracle_conversion;
    if (e.click == 0 && e.oracle_conversion == 1) ++s.fake_negatives;
  }
  if (s.exposures > 0) {
    s.click_rate = static_cast<double>(s.clicks) / s.exposures;
    s.ctcvr_rate = static_cast<double>(s.conversions) / s.exposures;
  }
  if (s.clicks > 0) {
    s.cvr_given_click = static_cast<double>(s.conversions) / s.clicks;
  }
  return s;
}

std::pair<Dataset, Dataset> Dataset::SplitAt(std::int64_t head_count) const {
  if (head_count < 0) head_count = 0;
  if (head_count > size()) head_count = size();
  std::vector<Example> head(examples_.begin(), examples_.begin() + head_count);
  std::vector<Example> tail(examples_.begin() + head_count, examples_.end());
  return {Dataset(name_ + ".head", schema_, std::move(head)),
          Dataset(name_ + ".tail", schema_, std::move(tail))};
}

std::int64_t Dataset::DistinctUsers() const {
  std::unordered_set<std::int32_t> seen;
  for (const Example& e : examples_) seen.insert(e.user_index);
  return static_cast<std::int64_t>(seen.size());
}

std::int64_t Dataset::DistinctItems() const {
  std::unordered_set<std::int32_t> seen;
  for (const Example& e : examples_) seen.insert(e.item_index);
  return static_cast<std::int64_t>(seen.size());
}

}  // namespace data
}  // namespace dcmt
