// Closed-loop load benchmark for the sharded serving router (DESIGN.md §16).
//
// A small client fleet drives serve::Router the way search traffic drives a
// pCTR/pCVR tier: user ids drawn from a Zipf distribution (a few hot users
// dominate, loading their engines unevenly), request rate modulated by
// a compressed diurnal curve (sinusoidal peak/trough around the base rate),
// and each client running a closed loop — its next request is issued only
// after the previous response lands, so latency feedback throttles offered
// load exactly like a real upstream with bounded concurrency. A hot model
// swap lands mid-run to keep the measured path honest about version churn.
//
// The run happens once, lazily; per-request latencies feed both the
// dcmt_router_bench_latency_seconds obs histogram and the three quantile
// benchmarks below. Each BM_RouterClosedLoop{P50,P99,P999} entry reports its
// quantile as manual time from a single iteration, so tools/bench_to_json
// folds all three into BENCH_engine.json with no aggregate-parsing support.
// The clients and the engines' dispatchers share the host's cores, so the
// tail quantiles measure scheduler behaviour as much as router behaviour;
// compare them only between runs on one host (README "Serving tier").

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/dcmt.h"
#include "core/obs.h"
#include "core/thread_pool.h"
#include "data/generator.h"
#include "data/profiles.h"
#include "serve/frozen_model.h"
#include "serve/router.h"
#include "tensor/random.h"

namespace dcmt {
namespace {

constexpr int kClients = 4;
constexpr int kRequestsPerClient = 400;
constexpr double kZipfExponent = 1.1;
constexpr double kDiurnalPeriodRequests = 200.0;  // one "day" per 200 requests

data::SyntheticLogGenerator& Generator() {
  static data::SyntheticLogGenerator generator([] {
    data::DatasetProfile profile = data::AeEsProfile();
    profile.train_exposures = 4096;
    return profile;
  }());
  return generator;
}

/// Precomputed Zipf CDF over the user population: sampling is one uniform
/// draw + binary search, cheap enough for the client hot loop.
class ZipfSampler {
 public:
  ZipfSampler(int population, double exponent) {
    cdf_.reserve(static_cast<std::size_t>(population));
    double total = 0.0;
    for (int k = 0; k < population; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  int Sample(Rng* rng) const {
    const double u = static_cast<double>(rng->Uniform());
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<int>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct ClosedLoopResult {
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  double p999_seconds = 0.0;
  std::int64_t completed = 0;
  std::int64_t dropped = 0;  // non-kOk responses (must stay 0)
};

std::unique_ptr<serve::FrozenModel> MakeVersion(int seed) {
  models::ModelConfig config;
  config.seed = seed;
  return std::make_unique<serve::FrozenModel>(
      std::make_unique<core::Dcmt>(Generator().Schema(), config),
      Generator().Schema());
}

/// Runs the closed loop once and caches the latency quantiles for the three
/// reporting benchmarks.
const ClosedLoopResult& RunClosedLoopOnce() {
  static const ClosedLoopResult result = [] {
    core::ThreadPool::Global().SetNumThreads(1);
    serve::RouterConfig config;
    config.num_engines = 2;
    config.engine.max_batch = 32;
    serve::Router router(MakeVersion(1), config);
    const ZipfSampler zipf(Generator().profile().num_users, kZipfExponent);
    obs::Histogram latency = obs::Registry::Global().histogram(
        "dcmt_router_bench_latency_seconds", 64, 0.0, 0.25);

    std::vector<std::vector<double>> latencies(kClients);
    std::atomic<std::int64_t> dropped{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(static_cast<std::uint64_t>(c) * 7919 + 1);
        std::vector<double>& mine = latencies[static_cast<std::size_t>(c)];
        mine.reserve(kRequestsPerClient);
        for (int i = 0; i < kRequestsPerClient; ++i) {
          // Diurnal trough: off-peak, the client idles between requests
          // (peak factor 1.0 -> no pause; trough -> ~200us pause).
          const double phase =
              2.0 * M_PI * static_cast<double>(i) / kDiurnalPeriodRequests;
          const double offpeak = 0.5 * (1.0 - std::sin(phase));
          const auto pause =
              std::chrono::microseconds(static_cast<int>(200.0 * offpeak));
          if (pause.count() > 0) std::this_thread::sleep_for(pause);
          const int user = zipf.Sample(&rng);
          const int item = static_cast<int>(
              rng.NextBounded(static_cast<std::uint64_t>(
                  Generator().profile().num_items)));
          const data::Example row = Generator().MakeExample(user, item, 0);
          const auto start = std::chrono::steady_clock::now();
          const serve::Score score = router.Submit(row).get();
          const double seconds =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
          if (!score.ok()) {
            dropped.fetch_add(1);
            continue;
          }
          mine.push_back(seconds);
          latency.Observe(seconds);
        }
      });
    }
    // Hot swap mid-run: the measured distribution includes version churn.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::unique_ptr<const serve::FrozenModel> retired =
        router.Swap(MakeVersion(2));
    for (std::thread& client : clients) client.join();
    router.Shutdown();

    std::vector<double> all;
    for (const auto& part : latencies) {
      all.insert(all.end(), part.begin(), part.end());
    }
    std::sort(all.begin(), all.end());
    auto quantile = [&](double q) {
      if (all.empty()) return 0.0;
      const std::size_t index = std::min(
          all.size() - 1,
          static_cast<std::size_t>(q * static_cast<double>(all.size())));
      return all[index];
    };
    ClosedLoopResult r;
    r.completed = static_cast<std::int64_t>(all.size());
    r.dropped = dropped.load();
    r.p50_seconds = quantile(0.50);
    r.p99_seconds = quantile(0.99);
    r.p999_seconds = quantile(0.999);
    return r;
  }();
  return result;
}

/// Reports one precomputed quantile as manual time so bench_to_json's
/// real_time field carries the quantile directly.
void ReportQuantile(benchmark::State& state, double seconds) {
  const ClosedLoopResult& result = RunClosedLoopOnce();
  for (auto _ : state) {
    state.SetIterationTime(seconds);
  }
  state.counters["completed"] =
      static_cast<double>(result.completed);
  state.counters["dropped"] = static_cast<double>(result.dropped);
}

void BM_RouterClosedLoopP50(benchmark::State& state) {
  ReportQuantile(state, RunClosedLoopOnce().p50_seconds);
}
BENCHMARK(BM_RouterClosedLoopP50)->Iterations(1)->UseManualTime();

void BM_RouterClosedLoopP99(benchmark::State& state) {
  ReportQuantile(state, RunClosedLoopOnce().p99_seconds);
}
BENCHMARK(BM_RouterClosedLoopP99)->Iterations(1)->UseManualTime();

void BM_RouterClosedLoopP999(benchmark::State& state) {
  ReportQuantile(state, RunClosedLoopOnce().p999_seconds);
}
BENCHMARK(BM_RouterClosedLoopP999)->Iterations(1)->UseManualTime();

}  // namespace
}  // namespace dcmt

BENCHMARK_MAIN();
