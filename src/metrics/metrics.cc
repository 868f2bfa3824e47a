#include "metrics/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <unordered_map>

namespace dcmt {
namespace metrics {

double Auc(const std::vector<float>& scores,
           const std::vector<std::uint8_t>& labels) {
  if (scores.size() != labels.size()) {
    std::fprintf(stderr, "Auc: size mismatch\n");
    std::abort();
  }
  const std::size_t n = scores.size();
  std::int64_t positives = 0;
  for (std::uint8_t y : labels) positives += y;
  const std::int64_t negatives = static_cast<std::int64_t>(n) - positives;
  if (positives == 0 || negatives == 0) return 0.5;

  // Rank-sum (Mann-Whitney U) with midranks for ties.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] < scores[b];
  });

  double rank_sum_pos = 0.0;
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && scores[order[j + 1]] == scores[order[i]]) ++j;
    // Tie block [i, j]: midrank (1-based ranks).
    const double midrank = 0.5 * (static_cast<double>(i + 1) + static_cast<double>(j + 1));
    for (std::size_t k = i; k <= j; ++k) {
      if (labels[order[k]] == 1) rank_sum_pos += midrank;
    }
    i = j + 1;
  }
  const double u = rank_sum_pos - static_cast<double>(positives) *
                                      (static_cast<double>(positives) + 1.0) / 2.0;
  return u / (static_cast<double>(positives) * static_cast<double>(negatives));
}

double LogLoss(const std::vector<float>& predictions,
               const std::vector<std::uint8_t>& labels, double eps) {
  if (predictions.size() != labels.size() || predictions.empty()) {
    std::fprintf(stderr, "LogLoss: bad sizes\n");
    std::abort();
  }
  double total = 0.0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    const double p = std::clamp(static_cast<double>(predictions[i]), eps, 1.0 - eps);
    total += labels[i] == 1 ? -std::log(p) : -std::log(1.0 - p);
  }
  return total / static_cast<double>(predictions.size());
}

double MeanValue(const std::vector<float>& values) {
  if (values.empty()) return 0.0;
  double acc = 0.0;
  for (float v : values) acc += v;
  return acc / static_cast<double>(values.size());
}

double GroupAuc(const std::vector<float>& scores,
                const std::vector<std::uint8_t>& labels,
                const std::vector<std::int32_t>& group_ids) {
  if (scores.size() != labels.size() || scores.size() != group_ids.size()) {
    std::fprintf(stderr, "GroupAuc: size mismatch\n");
    std::abort();
  }
  // Bucket indices per group.
  std::unordered_map<std::int32_t, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < group_ids.size(); ++i) {
    groups[group_ids[i]].push_back(i);
  }
  double weighted = 0.0;
  std::int64_t weight_total = 0;
  for (const auto& [group, indices] : groups) {
    std::int64_t positives = 0;
    for (std::size_t i : indices) positives += labels[i];
    if (positives == 0 || positives == static_cast<std::int64_t>(indices.size())) {
      continue;  // AUC undefined for single-class groups
    }
    std::vector<float> s;
    std::vector<std::uint8_t> y;
    s.reserve(indices.size());
    y.reserve(indices.size());
    for (std::size_t i : indices) {
      s.push_back(scores[i]);
      y.push_back(labels[i]);
    }
    weighted += Auc(s, y) * static_cast<double>(indices.size());
    weight_total += static_cast<std::int64_t>(indices.size());
  }
  return weight_total == 0 ? 0.5 : weighted / static_cast<double>(weight_total);
}

double PrAuc(const std::vector<float>& scores,
             const std::vector<std::uint8_t>& labels) {
  if (scores.size() != labels.size() || scores.empty()) {
    std::fprintf(stderr, "PrAuc: bad sizes\n");
    std::abort();
  }
  std::int64_t total_positives = 0;
  for (std::uint8_t y : labels) total_positives += y;
  if (total_positives == 0) return 0.0;

  // Average precision: sum over positives of precision at their rank,
  // descending by score; ties share the tie block's average precision.
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] > scores[b];
  });
  double ap = 0.0;
  std::int64_t tp = 0;
  std::size_t i = 0;
  const std::size_t n = order.size();
  while (i < n) {
    std::size_t j = i;
    std::int64_t block_pos = labels[order[i]];
    while (j + 1 < n && scores[order[j + 1]] == scores[order[i]]) {
      ++j;
      block_pos += labels[order[j]];
    }
    // Within a tie block, treat positives as uniformly spread: precision at
    // the end of the block applied to all block positives.
    const std::int64_t rank_end = static_cast<std::int64_t>(j) + 1;
    tp += block_pos;
    if (block_pos > 0) {
      ap += static_cast<double>(block_pos) *
            (static_cast<double>(tp) / static_cast<double>(rank_end));
    }
    i = j + 1;
  }
  return ap / static_cast<double>(total_positives);
}

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.count = static_cast<int>(values.size());
  if (values.empty()) return s;
  s.mean = std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
  if (values.size() > 1) {
    double sq = 0.0;
    for (double v : values) sq += (v - s.mean) * (v - s.mean);
    s.stddev = std::sqrt(sq / static_cast<double>(values.size() - 1));
  }
  return s;
}

Histogram::Histogram(int bins, float lo, float hi) : lo_(lo), hi_(hi) {
  if (bins <= 0 || !(hi > lo)) {
    std::fprintf(stderr, "Histogram: bad arguments\n");
    std::abort();
  }
  counts_.assign(static_cast<std::size_t>(bins), 0);
}

void Histogram::Add(float value) {
  if (!std::isfinite(value)) {
    // NaN/±inf would poison sum_ and, worse, make the float→int conversion
    // below undefined behaviour. Tally them separately instead.
    ++nonfinite_;
    return;
  }
  // Clamp in float space *before* converting: casting an out-of-range float
  // (e.g. 1e30 scaled by the bin count) to int is UB, not a saturation.
  float t = (value - lo_) / (hi_ - lo_);
  t = std::clamp(t, 0.0f, 1.0f);
  int b = static_cast<int>(t * static_cast<float>(counts_.size()));
  b = std::min(b, static_cast<int>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(b)];
  ++total_;
  sum_ += value;
}

void Histogram::AddAll(const std::vector<float>& values) {
  for (float v : values) Add(v);
}

float Histogram::BinCenter(int bin) const {
  const float w = (hi_ - lo_) / static_cast<float>(counts_.size());
  return lo_ + (static_cast<float>(bin) + 0.5f) * w;
}

double Histogram::Mean() const {
  return total_ == 0 ? 0.0 : sum_ / static_cast<double>(total_);
}

std::string Histogram::Render(
    int width, const std::vector<std::pair<float, std::string>>& marks) const {
  std::int64_t peak = 1;
  for (std::int64_t c : counts_) peak = std::max(peak, c);
  std::ostringstream out;
  const float bin_width = (hi_ - lo_) / static_cast<float>(counts_.size());
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const float bin_lo = lo_ + static_cast<float>(b) * bin_width;
    const float bin_hi = bin_lo + bin_width;
    char head[48];
    std::snprintf(head, sizeof(head), "[%.3f,%.3f) %8lld |", bin_lo, bin_hi,
                  static_cast<long long>(counts_[b]));
    out << head;
    const int bar = static_cast<int>(
        static_cast<double>(counts_[b]) / static_cast<double>(peak) * width);
    for (int i = 0; i < bar; ++i) out << '#';
    const bool last_bin = b + 1 == counts_.size();
    for (const auto& [value, label] : marks) {
      // Add clamps values at hi_ into the last bin, so the last bin's mark
      // interval is closed ([bin_lo, hi_], using hi_ itself to dodge any
      // rounding in bin_lo + bin_width) where the others are half-open.
      const bool in_bin = last_bin ? (value >= bin_lo && value <= hi_)
                                   : (value >= bin_lo && value < bin_hi);
      if (in_bin) out << "   <-- " << label;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace metrics
}  // namespace dcmt
