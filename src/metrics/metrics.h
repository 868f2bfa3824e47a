#ifndef DCMT_METRICS_METRICS_H_
#define DCMT_METRICS_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace dcmt {
namespace metrics {

/// Area under the ROC curve, computed exactly via the rank statistic with
/// midrank tie handling. `labels[i]` in {0,1}. Returns 0.5 when either class
/// is absent (undefined AUC, conventional fallback).
double Auc(const std::vector<float>& scores, const std::vector<std::uint8_t>& labels);

/// Mean binary cross-entropy (log loss) with predictions clamped to
/// [eps, 1-eps].
double LogLoss(const std::vector<float>& predictions,
               const std::vector<std::uint8_t>& labels, double eps = 1e-7);

/// Mean of a prediction vector.
double MeanValue(const std::vector<float>& values);

/// Group AUC (GAUC): impression-weighted mean of per-group AUC, the
/// intra-user ranking metric industrial CTR/CVR systems report. Groups with
/// a single class are skipped (their AUC is undefined). Returns 0.5 if no
/// group has both classes.
double GroupAuc(const std::vector<float>& scores,
                const std::vector<std::uint8_t>& labels,
                const std::vector<std::int32_t>& group_ids);

/// Area under the precision-recall curve (average precision formulation).
/// More informative than ROC AUC under the extreme class imbalance of CVR
/// data. Returns the positive rate when scores are uninformative ties.
double PrAuc(const std::vector<float>& scores,
             const std::vector<std::uint8_t>& labels);

/// Sample mean and (population=false) standard deviation of repeated runs.
struct Summary {
  double mean = 0.0;
  double stddev = 0.0;
  int count = 0;
};
Summary Summarize(const std::vector<double>& values);

/// Equal-width histogram over [lo, hi] for rendering the paper's Figure 7
/// prediction-distribution plots.
class Histogram {
 public:
  Histogram(int bins, float lo, float hi);

  /// Finite values are clamped into [lo, hi] and binned; non-finite values
  /// (NaN, ±inf) are tallied in nonfinite() and excluded from the bins,
  /// total() and Mean().
  void Add(float value);
  void AddAll(const std::vector<float>& values);

  int bins() const { return static_cast<int>(counts_.size()); }
  std::int64_t count(int bin) const { return counts_[static_cast<std::size_t>(bin)]; }
  std::int64_t total() const { return total_; }
  std::int64_t nonfinite() const { return nonfinite_; }
  /// Center of a bin.
  float BinCenter(int bin) const;
  /// Mean of all added values.
  double Mean() const;

  /// Renders an ASCII bar chart, one row per bin, `width` chars at the mode.
  /// `marks` are (value, label) pairs rendered as annotated rows (used to
  /// mark the posterior CVR levels in Fig. 7).
  std::string Render(int width = 50,
                     const std::vector<std::pair<float, std::string>>& marks = {}) const;

 private:
  float lo_;
  float hi_;
  std::vector<std::int64_t> counts_;
  std::int64_t total_ = 0;
  std::int64_t nonfinite_ = 0;
  double sum_ = 0.0;
};

}  // namespace metrics
}  // namespace dcmt

#endif  // DCMT_METRICS_METRICS_H_
