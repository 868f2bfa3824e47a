// Tests for dcmt::obs (DESIGN.md §12): registry handle semantics, exact
// sharded aggregation under pool concurrency, histogram binning and
// non-finite handling, the Prometheus text exposition, trace span buffers,
// the tier-1 determinism contract — two identical training runs export
// identical metrics modulo timing-derived values — and the per-op backward
// profiler in Tensor::Backward.

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dcmt.h"
#include "core/obs.h"
#include "core/thread_pool.h"
#include "data/generator.h"
#include "data/profiles.h"
#include "eval/trainer.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace dcmt {
namespace {

/// Every obs test owns the global registry for its (per-ctest) process:
/// enable recording, zero all cells, and disable again on the way out.
class ObsTestBase : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::Global().ResetForTesting();
    obs::SetEnabled(true);
  }
  void TearDown() override {
    obs::SetEnabled(false);
    core::ThreadPool::Global().SetNumThreads(1);
  }
};

using ObsCounterTest = ObsTestBase;
using ObsGaugeTest = ObsTestBase;
using ObsSumTest = ObsTestBase;
using ObsHistogramTest = ObsTestBase;
using ObsPrometheusTest = ObsTestBase;
using ObsTraceTest = ObsTestBase;
using ObsDeterminismTest = ObsTestBase;
using ObsProfilerTest = ObsTestBase;

TEST_F(ObsCounterTest, DisabledRecordingIsANoOp) {
  obs::Counter c = obs::Registry::Global().counter("obs_test_disabled_total");
  obs::Gauge g = obs::Registry::Global().gauge("obs_test_disabled_gauge");
  obs::Sum s = obs::Registry::Global().sum("obs_test_disabled_sum");
  obs::Histogram h =
      obs::Registry::Global().histogram("obs_test_disabled_hist", 4, 0.0, 1.0);
  obs::SetEnabled(false);
  c.Inc(5);
  g.Set(3.25);
  s.Add(1.5);
  h.Observe(0.5);
  { obs::TraceSpan span("obs_test/disabled"); }
  EXPECT_EQ(c.value(), 0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_DOUBLE_EQ(s.value(), 0.0);
  EXPECT_EQ(h.total(), 0);
  EXPECT_EQ(obs::Registry::Global().RenderTraceJson(), "");
  // Re-enabling makes the same handles live again.
  obs::SetEnabled(true);
  c.Inc(2);
  EXPECT_EQ(c.value(), 2);
}

TEST_F(ObsCounterTest, HandlesAreCreateOrGet) {
  obs::Counter a = obs::Registry::Global().counter("obs_test_shared_total");
  obs::Counter b = obs::Registry::Global().counter("obs_test_shared_total");
  a.Inc(3);
  b.Inc(4);
  EXPECT_EQ(a.value(), 7);
  EXPECT_EQ(b.value(), 7);
}

TEST_F(ObsCounterTest, ShardedCountsAreExactUnderPoolConcurrency) {
  core::ThreadPool::Global().SetNumThreads(4);
  obs::Counter c = obs::Registry::Global().counter("obs_test_parallel_total");
  obs::Sum s = obs::Registry::Global().sum("obs_test_parallel_sum");
  constexpr std::int64_t kIters = 200000;
  core::ParallelFor(0, kIters, 1, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      c.Inc();
      s.Add(0.5);
    }
  });
  // Integer adds are exact regardless of which worker hit which shard slot.
  EXPECT_EQ(c.value(), kIters);
  EXPECT_DOUBLE_EQ(s.value(), 0.5 * static_cast<double>(kIters));
}

TEST_F(ObsGaugeTest, LastWriteWins) {
  obs::Gauge g = obs::Registry::Global().gauge("obs_test_gauge");
  g.Set(1.0);
  g.Set(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), -2.5);
}

TEST_F(ObsHistogramTest, BinsClampAndCountNonFinite) {
  obs::Histogram h =
      obs::Registry::Global().histogram("obs_test_hist", 4, 0.0, 1.0);
  h.Observe(0.1);   // bin 0
  h.Observe(0.6);   // bin 2
  h.Observe(1.0);   // clamps into last bin
  h.Observe(-5.0);  // clamps into first bin
  h.Observe(1e300); // clamps into last bin without UB
  h.Observe(std::numeric_limits<double>::quiet_NaN());
  h.Observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.bins(), 4);
  EXPECT_EQ(h.count(0), 2);
  EXPECT_EQ(h.count(1), 0);
  EXPECT_EQ(h.count(2), 1);
  EXPECT_EQ(h.count(3), 2);
  EXPECT_EQ(h.total(), 5);
  EXPECT_EQ(h.nonfinite(), 2);
}

TEST(ObsHistogramDeathTest, GeometryOutsideTheCapIsFatalAndNamesTheLimit) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(obs::Registry::Global().histogram("obs_test_hist_wide", 65, 0.0, 1.0),
               "bins must be in \\[1, 64\\]");
  EXPECT_DEATH(obs::Registry::Global().histogram("obs_test_hist_none", 0, 0.0, 1.0),
               "bins must be in \\[1, 64\\]");
  EXPECT_DEATH(obs::Registry::Global().histogram("obs_test_hist_flat", 4, 1.0, 1.0),
               "hi must exceed lo");
}

TEST_F(ObsPrometheusTest, RenderIsSortedTypedAndCumulative) {
  obs::Registry& registry = obs::Registry::Global();
  registry.counter("obs_test_z_total").Inc(9);
  registry.counter("obs_test_a_total").Inc(1);
  registry.gauge("obs_test_m_gauge").Set(0.5);
  obs::Histogram h = registry.histogram("obs_test_render_hist", 2, 0.0, 1.0);
  h.Observe(0.25);
  h.Observe(0.25);
  h.Observe(0.75);
  h.Observe(std::numeric_limits<double>::quiet_NaN());
  const std::string text = registry.RenderPrometheus();

  // Kind lines and sample lines.
  EXPECT_NE(text.find("# TYPE obs_test_a_total counter"), std::string::npos);
  EXPECT_NE(text.find("obs_test_a_total 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_m_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("obs_test_m_gauge 0.5"), std::string::npos);
  // Histogram buckets are cumulative and end at +Inf == _count.
  EXPECT_NE(text.find("obs_test_render_hist_bucket{le=\"0.5\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_render_hist_bucket{le=\"1\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_render_hist_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_render_hist_count 3"), std::string::npos);
  EXPECT_NE(text.find("obs_test_render_hist_nonfinite_total 1"),
            std::string::npos);
  // Sorted by metric name: a_total before m_gauge before z_total.
  EXPECT_LT(text.find("obs_test_a_total"), text.find("obs_test_m_gauge"));
  EXPECT_LT(text.find("obs_test_m_gauge"), text.find("obs_test_z_total"));
}

TEST_F(ObsPrometheusTest, LabeledSeriesShareOneTypeLine) {
  obs::Registry& registry = obs::Registry::Global();
  registry.sum("obs_test_labeled_total{bucket=\"a\"}").Add(1.0);
  registry.sum("obs_test_labeled_total{bucket=\"b\"}").Add(2.0);
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("obs_test_labeled_total{bucket=\"a\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_labeled_total{bucket=\"b\"} 2"),
            std::string::npos);
  // One TYPE line for the base family, not one per label set.
  const std::string type_line = "# TYPE obs_test_labeled_total counter";
  const std::size_t first = text.find(type_line);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find(type_line, first + 1), std::string::npos);
}

TEST_F(ObsPrometheusTest, ExportIsStableAcrossRenderCalls) {
  obs::Registry& registry = obs::Registry::Global();
  registry.counter("obs_test_stable_total").Inc(3);
  EXPECT_EQ(registry.RenderPrometheus(), registry.RenderPrometheus());
}

TEST_F(ObsTraceTest, SpansCarrySequenceAndArgs) {
  {
    obs::TraceSpan outer("obs_test/outer", "items", 7);
    obs::TraceSpan inner("obs_test/inner");
  }
  {
    obs::TraceSpan late("obs_test/late");
    late.SetArg("bytes", 42);
  }
  const std::string json = obs::Registry::Global().RenderTraceJson();
  // Destruction order: inner closes before outer.
  const std::size_t inner_pos = json.find("\"name\":\"obs_test/inner\"");
  const std::size_t outer_pos = json.find("\"name\":\"obs_test/outer\"");
  const std::size_t late_pos = json.find("\"name\":\"obs_test/late\"");
  ASSERT_NE(inner_pos, std::string::npos);
  ASSERT_NE(outer_pos, std::string::npos);
  ASSERT_NE(late_pos, std::string::npos);
  EXPECT_LT(inner_pos, outer_pos);
  EXPECT_LT(outer_pos, late_pos);
  EXPECT_NE(json.find("\"args\":{\"items\":7}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"bytes\":42}"), std::string::npos);
  EXPECT_NE(json.find("\"seq\":0"), std::string::npos);
  EXPECT_NE(json.find("\"seq\":1"), std::string::npos);
  EXPECT_NE(json.find("\"seq\":2"), std::string::npos);
}

TEST_F(ObsTraceTest, ResetClearsSpansAndValues) {
  obs::Counter c = obs::Registry::Global().counter("obs_test_reset_total");
  c.Inc(5);
  { obs::TraceSpan span("obs_test/reset"); }
  obs::Registry::Global().ResetForTesting();
  EXPECT_EQ(c.value(), 0);  // live handles stay valid, cells are zeroed
  EXPECT_EQ(obs::Registry::Global().RenderTraceJson(), "");
}

// --- The determinism contract, in-process. ---------------------------------

data::DatasetProfile ObsProfile() {
  data::DatasetProfile p;
  p.name = "obs";
  p.num_users = 60;
  p.num_items = 90;
  p.train_exposures = 1200;
  p.test_exposures = 200;
  p.target_click_rate = 0.2;
  p.target_cvr_given_click = 0.25;
  p.seed = 31;
  return p;
}

/// Projects a Prometheus export onto its deterministic content: drops the
/// timing-derived metrics, which by convention are the only names containing
/// "seconds" or "per_second" (same filter tier-1 uses, see run_tier1.sh).
std::string DropTimingMetrics(const std::string& text) {
  std::string kept;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    if (line.find("seconds") == std::string::npos &&
        line.find("per_second") == std::string::npos) {
      kept += line + "\n";
    }
    start = end + 1;
  }
  return kept;
}

/// Zeroes the wall-clock fields of a trace export (the sed filter tier-1
/// applies, in-process).
std::string ZeroTraceTimestamps(const std::string& json) {
  std::string out = json;
  for (const std::string key : {"\"ts_ns\":", "\"dur_ns\":"}) {
    for (std::size_t at = out.find(key); at != std::string::npos;
         at = out.find(key, at + 1)) {
      const std::size_t digits = at + key.size();
      std::size_t end = digits;
      while (end < out.size() && out[end] >= '0' && out[end] <= '9') ++end;
      if (end > digits) out.replace(digits, end - digits, "0");
    }
  }
  return out;
}

struct ObsRunExports {
  std::string metrics;
  std::string trace;
};

ObsRunExports TrainOnceAndExport(const data::Dataset& train) {
  obs::Registry::Global().ResetForTesting();
  models::ModelConfig mc;
  mc.embedding_dim = 4;
  mc.hidden_dims = {8};
  mc.seed = 3;
  eval::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 128;
  tc.validation_fraction = 0.25;
  tc.seed = 9;
  core::Dcmt model(train.schema(), mc);
  eval::Train(&model, train, tc);
  ObsRunExports out;
  out.metrics = obs::Registry::Global().RenderPrometheus();
  out.trace = obs::Registry::Global().RenderTraceJson();
  return out;
}

TEST_F(ObsDeterminismTest, TrainingExportsAreIdenticalModuloTiming) {
  core::ThreadPool::Global().SetNumThreads(2);
  const data::Dataset train =
      data::SyntheticLogGenerator(ObsProfile()).GenerateTrain();
  const ObsRunExports first = TrainOnceAndExport(train);
  const ObsRunExports second = TrainOnceAndExport(train);

  // The runs trained and recorded real values...
  EXPECT_NE(first.metrics.find("dcmt_train_steps_total"), std::string::npos);
  EXPECT_NE(first.trace.find("train/epoch"), std::string::npos);
  // ...and the deterministic projections agree exactly.
  EXPECT_EQ(DropTimingMetrics(first.metrics), DropTimingMetrics(second.metrics));
  EXPECT_EQ(ZeroTraceTimestamps(first.trace), ZeroTraceTimestamps(second.trace));
}

// --- Built-in backward profiler (Tensor::Backward). ------------------------

const char kMatMulBackwardSeconds[] =
    "dcmt_op_backward_seconds_total{op=\"matmul\"}";

/// One backward pass through a MatMul big enough to take measurable time.
void RunMatMulBackward() {
  Rng rng(5);
  Tensor a = Tensor::Uniform(256, 48, -1.0f, 1.0f, &rng, true);
  Tensor b = Tensor::Uniform(48, 32, -1.0f, 1.0f, &rng, true);
  ops::Sum(ops::MatMul(a, b)).Backward();
}

TEST_F(ObsProfilerTest, DisabledBackwardRecordsNothing) {
  obs::SetEnabled(false);
  RunMatMulBackward();
  EXPECT_DOUBLE_EQ(obs::Registry::Global().sum(kMatMulBackwardSeconds).value(),
                   0.0);
  EXPECT_DOUBLE_EQ(obs::Registry::Global()
                       .sum("dcmt_op_backward_seconds_total{op=\"sum\"}")
                       .value(),
                   0.0);
}

TEST_F(ObsProfilerTest, EnabledBackwardReportsMatMulSeconds) {
  RunMatMulBackward();
  const std::string text = obs::Registry::Global().RenderPrometheus();
  EXPECT_NE(text.find(kMatMulBackwardSeconds), std::string::npos);
  EXPECT_NE(text.find("dcmt_op_backward_seconds_total{op=\"sum\"}"),
            std::string::npos);
  EXPECT_GT(obs::Registry::Global().sum(kMatMulBackwardSeconds).value(), 0.0);
  // Timing-derived, so the deterministic projection drops it.
  EXPECT_EQ(DropTimingMetrics(text).find("dcmt_op_backward"),
            std::string::npos);
}

}  // namespace
}  // namespace dcmt
