// End-to-end benchmark binary. Usually started through run.py:
//
//   e2ebench --workload <train_eval|serve_open|serve_bulk> --seed <n>
//            --seconds <s> --trace <0|1> [--workdir <dir>] [--trace-out <file>]
//   e2ebench --selftest        checks of the statistics and input generators
//   e2ebench --list-metrics    the metric catalog as JSON
//
// The last line of standard output is the result:
//   {"correct": ..., "attempted": n, "failed": n, "metrics": {...}}
// preceded by one fingerprint line (hardware, compiler, build, threads).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>

#include "stats.h"
#include "workloads.h"

namespace e2ebench {
namespace {

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif
#ifndef E2EBENCH_COMPILER
#define E2EBENCH_COMPILER "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <train_eval|serve_open|"
               "serve_bulk> --seed <n> --seconds <s> --trace <0|1> "
               "[--workdir <dir>] [--trace-out <file>] | --selftest | "
               "--list-metrics\n",
               why);
  return 2;
}

bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end == nullptr || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

void PrintCatalog() {
  const auto print = [](const char* key, const std::vector<MetricSpec>& specs) {
    std::printf("\"%s\": [", key);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}",
                  i ? ", " : "", specs[i].name, specs[i].unit, specs[i].better);
    }
    std::printf("]");
  };
  std::printf("{\"workloads\": [");
  for (std::size_t i = 0; i < WorkloadNames().size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", WorkloadNames()[i].c_str());
  }
  std::printf("], ");
  print("end_to_end", EndToEndMetrics());
  std::printf(", ");
  print("per_layer", PerLayerMetrics());
  std::printf("}\n");
}

// --- Self-test ---------------------------------------------------------------------

int failures = 0;
int checks = 0;

void Check(bool ok, const char* what) {
  ++checks;
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

int SelfTest() {
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const Quantile p50 = TailQuantile(hundred, 0.50);
  Check(p50.ok && p50.value == 50.0 && p50.beyond == 50 && p50.samples == 100,
        "p50 of 1..100 is 50 with 50 beyond");
  const Quantile p90 = TailQuantile(hundred, 0.90);
  Check(p90.ok && p90.value == 90.0 && p90.beyond == 10, "p90 of 100 has 10 beyond");
  const Quantile p99 = TailQuantile(hundred, 0.99);
  Check(!p99.ok && p99.beyond == 1, "p99 of 100 samples is refused");
  std::vector<double> many;
  for (int i = 0; i < 1000; ++i) many.push_back(999 - i);  // unsorted input
  const Quantile p99k = TailQuantile(many, 0.99);
  Check(p99k.ok && p99k.value == 989.0 && p99k.beyond == 10,
        "p99 of 1000 samples has exactly 10 beyond");
  many.pop_back();
  Check(!TailQuantile(many, 0.99).ok, "p99 of 999 samples is refused");
  Check(!TailQuantile({}, 0.5).ok && TailQuantile({}, 0.5).samples == 0,
        "empty input is refused");
  Check(Median({3.0, 1.0, 2.0}) == 2.0 && Median({4.0, 1.0, 2.0, 3.0}) == 2.5,
        "median of odd and even samples");

  const std::vector<std::int64_t> a = PoissonSchedule(7, 100000.0, 1.0);
  const std::vector<std::int64_t> b = PoissonSchedule(7, 100000.0, 1.0);
  const std::vector<std::int64_t> c = PoissonSchedule(8, 100000.0, 1.0);
  Check(a == b, "the Poisson schedule is identical for a given seed");
  Check(a != c, "another seed gives another schedule");
  Check(a.size() > 99000 && a.size() < 101000, "100k/s for 1 s sends about 100k");
  bool monotone = !a.empty() && a.front() >= 0 && a.back() < 1000000000;
  for (std::size_t i = 1; i < a.size(); ++i) monotone = monotone && a[i] >= a[i - 1];
  Check(monotone, "send offsets are ordered and inside the window");

  const ZipfSampler zipf(100, 1.1);
  KeyedRng r1(3), r2(3);
  std::vector<int> counts(100, 0);
  bool same = true;
  for (int i = 0; i < 20000; ++i) {
    const int u = zipf.Sample(&r1);
    same = same && u == zipf.Sample(&r2);
    if (u >= 0 && u < 100) ++counts[static_cast<std::size_t>(u)];
  }
  Check(same, "Zipf draws are identical for a given seed");
  Check(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[99],
        "Zipf rank 0 is the most popular");

  std::set<std::string> names;
  for (const auto* specs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& s : *specs) Check(names.insert(s.name).second, s.name);
  }
  Check(names.count("setup_s") == 1, "setup_s is an end-to-end metric");

  std::printf("selftest: %d of %d checks passed\n", checks - failures, checks);
  return failures == 0 ? 0 : 1;
}

// --- Result ------------------------------------------------------------------------

bool PrintMetrics(const std::vector<MetricSpec>& specs, const Result& result) {
  std::string out = "{";
  char buf[128];
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = result.metrics.find(specs[i].name);
    if (it == result.metrics.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "e2ebench: metric %s missing or not finite\n", specs[i].name);
      return false;
    }
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", specs[i].name, it->second, specs[i].unit);
    out += buf;
  }
  out += "}";
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              result.failed == 0 && result.attempted > 0 ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), out.c_str());
  return true;
}

void PrintFingerprint(const Options& o, const Result& result) {
  __builtin_cpu_init();
  std::string threads;
  for (const auto& [stage, n] : result.threads) {
    threads += (threads.empty() ? "" : ", ") + ("\"" + stage + "\": " + std::to_string(n));
  }
  std::printf(
      "{\"fingerprint\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"avx512f\": %s, \"avx512vnni\": %s, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"ndebug\": %s, "
      "\"sanitized\": %s, \"threads\": {%s}}}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, std::thread::hardware_concurrency(),
      __builtin_cpu_supports("avx512f") ? "true" : "false",
      __builtin_cpu_supports("avx512vnni") ? "true" : "false", E2EBENCH_COMPILER,
      E2EBENCH_BUILD_TYPE, kNdebug ? "true" : "false", kSanitized ? "true" : "false",
      threads.c_str());
}

int Main(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") return SelfTest();
    if (flag == "--list-metrics") {
      PrintCatalog();
      return 0;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseNumber(value, &number) && number >= 0) {
      o.seed = static_cast<std::uint64_t>(number);
      have_seed = true;
    } else if (flag == "--seconds" && ParseNumber(value, &number) && number > 0) {
      o.seconds = number;
      have_seconds = true;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      o.trace = value == "1";
      have_trace = true;
    } else if (flag == "--workdir") {
      o.workdir = value;
    } else if (flag == "--trace-out") {
      o.trace_path = value;
    } else {
      return Usage(("bad flag or value: " + flag + " " + value).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (std::string(E2EBENCH_BUILD_TYPE) != "Release" || !kNdebug || kSanitized) {
    std::fprintf(stderr,
                 "e2ebench: refusing to measure a %s build (NDEBUG %s, sanitizers %s); "
                 "build with CMAKE_BUILD_TYPE=Release and no sanitizer\n",
                 E2EBENCH_BUILD_TYPE, kNdebug ? "on" : "off", kSanitized ? "on" : "off");
    return 3;
  }
  if (o.workdir.empty()) o.workdir = "e2ebench-work";
  Result result;
  std::string error;
  if (!RunWorkload(o, &result, &error)) {
    std::fprintf(stderr, "e2ebench: %s\n", error.c_str());
    return 1;
  }
  PrintFingerprint(o, result);
  std::fflush(stdout);
  return PrintMetrics(o.trace ? PerLayerMetrics() : EndToEndMetrics(), result) ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
