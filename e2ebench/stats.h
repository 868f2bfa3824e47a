#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

// Statistics and input generators of the end-to-end benchmark. Header-only
// and free of library dependencies, so the self-test checks exactly the code
// the workloads run.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace e2ebench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A percentile together with the evidence behind it. `ok` is true only
/// when at least `min_beyond` samples rank above the reported one: a p99
/// from 500 samples (5 beyond) is not a p99 and is refused.
struct Quantile {
  bool ok = false;
  double value = 0.0;
  std::int64_t samples = 0;
  std::int64_t beyond = 0;
};

inline constexpr std::int64_t kMinSamplesBeyond = 10;

/// Nearest-rank quantile q in (0, 1] of `values`.
inline Quantile TailQuantile(std::vector<double> values, double q,
                             std::int64_t min_beyond = kMinSamplesBeyond) {
  Quantile out;
  out.samples = static_cast<std::int64_t>(values.size());
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::int64_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::int64_t index =
      std::clamp<std::int64_t>(rank - 1, 0, out.samples - 1);
  out.value = values[static_cast<std::size_t>(index)];
  out.beyond = out.samples - 1 - index;
  out.ok = out.beyond >= min_beyond;
  return out;
}

/// Median of a small sample (set-up repeats, stage passes); 0 when empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

inline double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum;
}

/// SplitMix64: the keyed generator behind every benchmark input, so one
/// workload seed fixes the schedule, users, items and labels.
inline std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class KeyedRng {
 public:
  explicit KeyedRng(std::uint64_t seed) : state_(Mix64(seed)) {}
  std::uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    return Mix64(state_);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double Uniform() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }
  std::uint64_t Bounded(std::uint64_t bound) { return Next() % bound; }

 private:
  std::uint64_t state_;
};

/// Open-loop arrival schedule: send offsets (ns from the start of the
/// window) of a Poisson process at `rate_per_s` covering `seconds`.
inline std::vector<std::int64_t> PoissonSchedule(std::uint64_t seed,
                                                 double rate_per_s,
                                                 double seconds) {
  KeyedRng rng(seed);
  std::vector<std::int64_t> offsets;
  offsets.reserve(static_cast<std::size_t>(rate_per_s * seconds * 1.05) + 16);
  const double mean_gap_ns = 1e9 / rate_per_s;
  const double end_ns = seconds * 1e9;
  double t = 0.0;
  for (;;) {
    // 1 - U lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.Uniform()) * mean_gap_ns;
    if (t >= end_ns) break;
    offsets.push_back(static_cast<std::int64_t>(t));
  }
  return offsets;
}

/// Zipf(s) over {0, ..., n-1}: rank 0 is the most popular.
class ZipfSampler {
 public:
  ZipfSampler(int n, double s) {
    cdf_.reserve(static_cast<std::size_t>(n));
    double total = 0.0;
    for (int k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  int Sample(KeyedRng* rng) const {
    const double u = rng->Uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<int>(std::min<std::ptrdiff_t>(
        it - cdf_.begin(), static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_STATS_H_
