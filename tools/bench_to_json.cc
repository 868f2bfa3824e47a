// bench_to_json — condenses google-benchmark JSON output into the repo's
// machine-readable perf trajectory file (BENCH_engine.json).
//
//   bench_parallel_scaling --benchmark_out=raw.json --benchmark_out_format=json
//   bench_obs_overhead --benchmark_out=obs.json --benchmark_out_format=json
//   bench_to_json raw.json [obs.json ...] BENCH_engine.json
//
// Any number of input files may be given; the last argument is the output.
// The output records ns/op per (benchmark, thread count) plus per-family
// speedups relative to the 1-thread run, so future PRs can diff engine
// performance without re-parsing google-benchmark's verbose format. Rows
// carrying an on_vs_off_pct counter (bench_obs_overhead) additionally land in
// an "obs_overhead" section: the enabled/disabled overhead in percent — the
// ≤2% obs-on budget of DESIGN.md §12.
//
// The parser is deliberately minimal: it understands exactly the regular
// subset of JSON that google-benchmark emits (one "name"/"real_time"/
// "time_unit" triple per benchmark object) and fails loudly on anything
// else, rather than pulling in a JSON dependency.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
// Only reads hardware_concurrency() for bench metadata; no threads made.
// dcmt-lint: allow(concurrency) — metadata read only.
#include <thread>
#include <vector>

namespace {

struct BenchEntry {
  std::string family;  // e.g. "BM_DcmtTrainStep"
  int threads = 1;     // trailing /N argument (1 if absent)
  double ns_per_op = 0.0;
  bool has_obs_pct = false;  // row carries an on_vs_off_pct counter
  double obs_pct = 0.0;
};

/// Extracts the quoted string value following `"key":` at or after `pos`
/// within the same object; returns empty if absent before `limit`.
std::string FindStringValue(const std::string& text, std::size_t pos,
                            std::size_t limit, const char* key) {
  const std::string needle = std::string("\"") + key + "\"";
  const std::size_t k = text.find(needle, pos);
  if (k == std::string::npos || k >= limit) return "";
  std::size_t q1 = text.find('"', text.find(':', k + needle.size()));
  if (q1 == std::string::npos) return "";
  std::size_t q2 = text.find('"', q1 + 1);
  if (q2 == std::string::npos) return "";
  return text.substr(q1 + 1, q2 - q1 - 1);
}

double FindNumberValue(const std::string& text, std::size_t pos,
                       std::size_t limit, const char* key, bool* found) {
  *found = false;
  const std::string needle = std::string("\"") + key + "\"";
  const std::size_t k = text.find(needle, pos);
  if (k == std::string::npos || k >= limit) return 0.0;
  const std::size_t colon = text.find(':', k + needle.size());
  if (colon == std::string::npos) return 0.0;
  *found = true;
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

double ToNanoseconds(double value, const std::string& unit) {
  if (unit == "ns" || unit.empty()) return value;
  if (unit == "us") return value * 1e3;
  if (unit == "ms") return value * 1e6;
  if (unit == "s") return value * 1e9;
  std::fprintf(stderr, "bench_to_json: unknown time_unit '%s'\n", unit.c_str());
  std::exit(1);
}

/// Splits "BM_Foo/4/real_time" into family "BM_Foo" and threads 4. Numeric
/// path segments are treated as the thread argument (the scaling benches
/// have exactly one); "real_time"/"process_time" suffixes are dropped.
void ParseName(const std::string& name, BenchEntry* entry) {
  std::stringstream ss(name);
  std::string segment;
  bool first = true;
  while (std::getline(ss, segment, '/')) {
    if (first) {
      entry->family = segment;
      first = false;
    } else if (!segment.empty() &&
               segment.find_first_not_of("0123456789") == std::string::npos) {
      entry->threads = std::atoi(segment.c_str());
    }
  }
}

/// Parses one google-benchmark JSON file, appending its measurement rows.
/// Returns false (after printing a diagnostic) on unreadable/malformed input.
bool ParseBenchmarkFile(const char* path, std::vector<BenchEntry>* entries) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_to_json: cannot read %s\n", path);
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  // Only objects inside the "benchmarks" array carry a "name"; context
  // objects do not, so scanning for "name" keys visits exactly the entries.
  std::size_t pos = text.find("\"benchmarks\"");
  if (pos == std::string::npos) {
    std::fprintf(stderr, "bench_to_json: no \"benchmarks\" array in %s\n", path);
    return false;
  }
  while ((pos = text.find("\"name\"", pos)) != std::string::npos) {
    const std::size_t object_end = text.find('}', pos);
    const std::size_t limit =
        object_end == std::string::npos ? text.size() : object_end;
    BenchEntry entry;
    ParseName(FindStringValue(text, pos, limit, "name"), &entry);
    bool found = false;
    const double real_time = FindNumberValue(text, pos, limit, "real_time", &found);
    const std::string unit = FindStringValue(text, pos, limit, "time_unit");
    if (found && !entry.family.empty()) {
      entry.ns_per_op = ToNanoseconds(real_time, unit);
      entry.obs_pct = FindNumberValue(text, pos, limit, "on_vs_off_pct",
                                      &entry.has_obs_pct);
      // google-benchmark repeats aggregate rows (mean/median/stddev) reuse
      // the name with a suffix; keep only plain measurement rows.
      if (FindStringValue(text, pos, limit, "run_type") != "aggregate") {
        entries->push_back(entry);
      }
    }
    pos = limit;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: bench_to_json <google-benchmark.json>... <out.json>\n");
    return 2;
  }
  std::vector<BenchEntry> entries;
  for (int i = 1; i + 1 < argc; ++i) {
    if (!ParseBenchmarkFile(argv[i], &entries)) return 1;
  }
  if (entries.empty()) {
    std::fprintf(stderr, "bench_to_json: no benchmark entries parsed\n");
    return 1;
  }

  // family -> threads -> mean ns/op. Repeated measurements of the same
  // (family, threads) key — e.g. --benchmark_repetitions with random
  // interleaving, which bench_serve uses to defeat in-process ordering
  // bias — average instead of last-wins.
  std::map<std::string, std::map<int, std::pair<double, int>>> sums;
  for (const BenchEntry& e : entries) {
    auto& slot = sums[e.family][e.threads];
    slot.first += e.ns_per_op;
    ++slot.second;
  }
  std::map<std::string, std::map<int, double>> families;
  for (const auto& [family, by_threads] : sums) {
    for (const auto& [threads, sum_count] : by_threads) {
      families[family][threads] = sum_count.first / sum_count.second;
    }
  }

  const char* out_path = argv[argc - 1];
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_to_json: cannot write %s\n", out_path);
    return 1;
  }
  // dcmt-lint: allow(concurrency) — metadata read, no thread is created.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  out << "{\n";
  out << "  \"generated_by\": \"tools/bench_to_json\",\n";
  out << "  \"hardware_threads\": " << hw << ",\n";
  out << "  \"benchmarks\": {\n";
  bool first_family = true;
  for (const auto& [family, by_threads] : families) {
    if (!first_family) out << ",\n";
    first_family = false;
    out << "    \"" << family << "\": {\n";
    out << "      \"ns_per_op\": {";
    bool first = true;
    for (const auto& [threads, ns] : by_threads) {
      if (!first) out << ", ";
      first = false;
      char num[64];
      std::snprintf(num, sizeof(num), "%.1f", ns);
      out << "\"" << threads << "\": " << num;
    }
    out << "}";
    const auto t1 = by_threads.find(1);
    if (t1 != by_threads.end() && by_threads.size() > 1) {
      out << ",\n      \"speedup_vs_1thread\": {";
      first = true;
      for (const auto& [threads, ns] : by_threads) {
        if (threads == 1 || ns <= 0.0) continue;
        if (!first) out << ", ";
        first = false;
        char num[64];
        std::snprintf(num, sizeof(num), "%.2f", t1->second / ns);
        out << "\"" << threads << "\": " << num;
      }
      out << "}";
    }
    out << "\n    }";
  }
  out << "\n  }";

  // Obs on-vs-off overhead rows, averaged over repetitions like ns_per_op.
  std::map<std::string, std::pair<double, int>> obs_pcts;
  for (const BenchEntry& e : entries) {
    if (!e.has_obs_pct) continue;
    auto& slot = obs_pcts[e.family + "/" + std::to_string(e.threads)];
    slot.first += e.obs_pct;
    ++slot.second;
  }
  bool first_obs = true;
  for (const auto& [key, sum_count] : obs_pcts) {
    out << (first_obs ? ",\n  \"obs_overhead\": {\n" : ",\n");
    first_obs = false;
    char num[64];
    std::snprintf(num, sizeof(num), "%.2f", sum_count.first / sum_count.second);
    out << "    \"" << key << "\": {\"on_vs_off_pct\": " << num << "}";
  }
  if (!first_obs) out << "\n  }";

  out << "\n}\n";
  std::printf("bench_to_json: wrote %zu entries (%zu families) to %s\n",
              entries.size(), families.size(), out_path);
  return 0;
}
