#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

/// One metric the benchmark prints. The catalog below is the single source
/// of the names and units; BENCHMARK.json must list the same ones (checked
/// by e2ebench/test_e2ebench.py).
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  // "lower" or "higher"
};

/// Printed with --trace 0, on every workload.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Printed with --trace 1, on every workload.
const std::vector<MetricSpec>& PerLayerMetrics();

const std::vector<std::string>& WorkloadNames();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for shards and checkpoints; removed afterwards.
  std::string workdir;
  /// Where the traced run writes its spans (JSON lines).
  std::string trace_path;
};

struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Thread counts per stage, for the fingerprint line.
  std::map<std::string, int> threads;
};

/// Runs one workload. Returns false (with `*error`) when the workload could
/// not run at all; failed checks are counted in the result instead.
bool RunWorkload(const Options& options, Result* result, std::string* error);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
