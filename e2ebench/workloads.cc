// The workloads of the end-to-end benchmark and the stages they share.
//
//   train_eval  streaming DCMT training (one epoch per cycle, checkpoint at
//               epoch end) followed by eval::Predict + eval::ComputeMetrics.
//   serve_open  open-loop Poisson traffic through serve::Router with hot
//               swaps every 0.5 s.
//
// Untraced runs report the end-to-end metrics. A traced run (--trace 1)
// times the calls into each layer from this file, turns dcmt::obs on to read
// the counters the layers export, and covers every layer on every workload:
// serve_open trains its model versions in set-up, and each traced run ends
// with short probes of the stages its workload does not load (the router on
// train_eval; bulk scoring through Engine::ScoreAll on both).

#include "workloads.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <thread>

#include "core/obs.h"
#include "core/registry.h"
#include "core/thread_pool.h"
#include "data/generator.h"
#include "data/profiles.h"
#include "data/stream.h"
#include "eval/evaluator.h"
#include "eval/trainer.h"
#include "models/multi_task_model.h"
#include "optim/adam.h"
#include "serve/engine.h"
#include "serve/frozen_model.h"
#include "serve/router.h"
#include "stats.h"

namespace e2ebench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
      {"rows_per_s", "rows/s", "higher"},
      {"p50_us", "us", "lower"},
      {"p90_us", "us", "lower"},
      {"cvr_auc", "auc", "higher"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"data.gen_s", "s", "lower"},
      {"data.next_ms", "ms", "lower"},
      {"models.forward_ms", "ms", "lower"},
      {"models.loss_ms", "ms", "lower"},
      {"tensor.backward_ms", "ms", "lower"},
      {"optim.clip_ms", "ms", "lower"},
      {"optim.adam_ms", "ms", "lower"},
      {"train.step_ms.p50", "ms", "lower"},
      {"train.step_ms.p90", "ms", "lower"},
      {"eval.predict_s", "s", "lower"},
      {"metrics.compute_s", "s", "lower"},
      {"ckpt.save_ms", "ms", "lower"},
      {"pool.dispatches", "count", "lower"},
      {"pool.inline_runs", "count", "lower"},
      {"trace.overhead_pct", "%", "lower"},
      {"router.submit_us.p50", "us", "lower"},
      {"router.submit_us.p99", "us", "lower"},
      {"cache.hit_ratio", "ratio", "higher"},
      {"cache.invalidations", "count", "lower"},
      {"router.swap_ms.max", "ms", "lower"},
      {"engine.batch_mean", "rows", "higher"},
      {"engine.flush_deadline_share", "ratio", "lower"},
      {"engine.max_queue_depth", "count", "lower"},
      {"engine.score_us_per_batch", "us", "lower"},
      {"engine.queue_wait_us.p50", "us", "lower"},
      {"engine.overhead_ratio", "ratio", "lower"},
      {"frozen.rows_per_s", "rows/s", "higher"},
      {"loadgen.late_us.p99", "us", "lower"},
  };
  return specs;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"train_eval", "serve_open"};
  return names;
}

namespace {

namespace fs = std::filesystem;
using dcmt::data::Example;
using dcmt::data::StreamingDataset;
using dcmt::data::SyntheticLogGenerator;
using dcmt::models::MultiTaskModel;
using dcmt::serve::FrozenModel;

// --- Sizes ------------------------------------------------------------------
constexpr const char* kModelName = "dcmt";
constexpr int kBatchRows = 1024;
constexpr int kPrefetchDepth = 2;
constexpr std::int64_t kShardRows = 65536;
constexpr int kSetupRepeats = 3;
constexpr int kTrainEvalSetupRepeats = 5;  // its set-up is short and noisy

// train_eval: one epoch per cycle; at least kMinCycles cycles, and more
// until the window is over.
constexpr std::int64_t kTrainRows = 400000;
constexpr std::int64_t kTestRows = 600000;
constexpr int kMinCycles = 3;
constexpr std::size_t kStepsPerGroup = 100;

// Serving model versions: A is trained in set-up, B is A refreshed with a
// few more steps on a later log (the publish path of continual training).
constexpr std::int64_t kServeTrainRows = 131072;
constexpr std::int64_t kServeRefreshRows = 16384;
constexpr std::int64_t kGateRows = 32768;
constexpr double kGateMinAuc = 0.55;

// serve_open.
// 50k req/s is about a quarter of the router's knee on a quiet host. The
// host's speed swings by up to 40% between runs; at 100k req/s a slow spell
// pushed the router near saturation and the tail figures swung tenfold.
constexpr double kOpenRatePerS = 50000.0;
constexpr double kSwapEveryS = 0.5;
// Latency percentiles are taken per 20 ms of the schedule (1000 requests, 100
// beyond the p90) and reported as the median over windows: a host stall of a
// few ms then spoils one window instead of shifting the whole figure. The
// pooled p99 goes to stderr.
constexpr std::int64_t kLatencyWindowNs = 20000000;
constexpr double kZipfExponent = 1.1;
constexpr int kNumPositions = 10;
// The generator fell behind its schedule when a tenth of the requests went
// out more than 1 ms late; rarer delays are host stalls, charged to latency.
constexpr double kMaxLateP90Us = 1000.0;
constexpr int kCollectorNapUs = 10;  // collector waiting for the sender
constexpr std::int64_t kStartMarginNs = 2000000;  // schedule starts 2 ms out

// Bulk probe: candidate lists through Engine::ScoreAll.
constexpr int kListRows = 4096;
constexpr int kNumLists = 32;
constexpr int kBulkMaxBatch = 256;
constexpr int kChunkRows = 256;
constexpr std::size_t kVerifyGroupRows = 64 * kChunkRows;

// Short stages a traced run adds for the layers its workload does not load.
constexpr double kProbeSeconds = 2.0;

// Model configuration seeds (parameter init, shuffling) and the log the
// served model versions are trained on are fixed: they configure the system
// under test. The workload seed draws its inputs: the train_eval logs, the
// open-loop traffic and the candidate lists.
constexpr std::uint64_t kConfigSeed = 2023;

// Keys of the derived seeds; every input is a function of (seed, key).
enum SeedKey : std::uint64_t {
  kTrainStream = 1,
  kTestStream,
  kRefreshStream,
  kModelInit,
  kShuffle,
  kRefreshShuffle,
  kSchedule,
  kRequestDraws,
  kListDraws,
};

std::uint64_t Derive(std::uint64_t seed, SeedKey key) {
  return Mix64(seed ^ Mix64(0x65326562656e6368ULL + key));
}

int HardwareThreads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// Pool width of bulk scoring and of every FrozenModel reference pass: one
/// core stays free for the thread submitting the rows.
int BulkThreads() { return std::max(1, HardwareThreads() - 1); }

/// Lets short sleeps of the calling thread end on time (Linux timer slack
/// is 50 us by default).
void SetTimerSlack() { prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL); }

void SetThreads(int n) { dcmt::core::ThreadPool::Global().SetNumThreads(n); }

double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

bool SameBits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

// --- Failure accounting -------------------------------------------------------

/// Operations attempted and failed. Each failed check is one failed
/// operation; the first few are described on stderr.
class Checks {
 public:
  void Count(std::int64_t ops, std::int64_t bad, const char* what) {
    attempted_ += ops;
    failed_ += bad;
    if (bad > 0 && reported_++ < 20) {
      std::fprintf(stderr, "e2ebench: FAILED %s (%lld of %lld)\n", what,
                   static_cast<long long>(bad), static_cast<long long>(ops));
    }
  }
  bool Expect(bool ok, const char* what) {
    Count(1, ok ? 0 : 1, what);
    return ok;
  }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  int reported_ = 0;
};

// --- Spans ---------------------------------------------------------------------

/// In-memory span log of the traced run, written out once at the end. A
/// span's parent is the index of the span that caused it (-1 for roots);
/// spans of one request or step share `id`.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t id;
  std::int64_t parent;
};

class SpanLog {
 public:
  std::int64_t Add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t id = -1,
                   std::int64_t parent = -1) {
    spans_.push_back({name, start_ns, end_ns, id, parent});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void SetEnd(std::int64_t index, std::int64_t end_ns) {
    spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
  }
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
          << ",\"dur_ns\":" << (s.end_ns - s.start_ns) << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

/// Deltas of the obs counters the traced run reads.
struct ObsCounters {
  std::int64_t pool_dispatches = 0;
  std::int64_t pool_inline_runs = 0;
  std::int64_t ckpt_saves = 0;
  double ckpt_save_s = 0.0;
  std::int64_t serve_batches = 0;
  double serve_score_s = 0.0;

  static ObsCounters Read() {
    dcmt::obs::Registry& r = dcmt::obs::Registry::Global();
    ObsCounters c;
    c.pool_dispatches = r.counter("dcmt_pool_dispatch_total").value();
    c.pool_inline_runs = r.counter("dcmt_pool_inline_runs_total").value();
    c.ckpt_saves = r.counter("dcmt_checkpoint_saves_total").value();
    c.ckpt_save_s = r.sum("dcmt_checkpoint_save_seconds_total").value();
    c.serve_batches = r.counter("dcmt_serve_batches_total").value();
    c.serve_score_s = r.sum("dcmt_serve_score_seconds_total").value();
    return c;
  }
  ObsCounters Minus(const ObsCounters& before) const {
    ObsCounters d;
    d.pool_dispatches = pool_dispatches - before.pool_dispatches;
    d.pool_inline_runs = pool_inline_runs - before.pool_inline_runs;
    d.ckpt_saves = ckpt_saves - before.ckpt_saves;
    d.ckpt_save_s = ckpt_save_s - before.ckpt_save_s;
    d.serve_batches = serve_batches - before.serve_batches;
    d.serve_score_s = serve_score_s - before.serve_score_s;
    return d;
  }
};

/// Turns dcmt::obs on for its lifetime and reports the counter deltas.
class ObsWindow {
 public:
  ObsWindow() : before_(ObsCounters::Read()) { dcmt::obs::SetEnabled(true); }
  ~ObsWindow() { dcmt::obs::SetEnabled(false); }
  ObsWindow(const ObsWindow&) = delete;
  ObsWindow& operator=(const ObsWindow&) = delete;
  ObsCounters Delta() const { return ObsCounters::Read().Minus(before_); }

 private:
  ObsCounters before_;
};

// --- Models and data ------------------------------------------------------------

dcmt::data::DatasetProfile Profile() { return dcmt::data::AeEsProfile(); }

std::unique_ptr<MultiTaskModel> NewModel(const dcmt::data::FeatureSchema& schema,
                                         std::uint64_t seed) {
  dcmt::models::ModelConfig config;
  config.seed = seed;
  return dcmt::core::CreateModel(kModelName, schema, config);
}

std::unique_ptr<MultiTaskModel> CloneModel(const MultiTaskModel& from,
                                           const dcmt::data::FeatureSchema& schema) {
  std::unique_ptr<MultiTaskModel> to = NewModel(schema, 0);
  const auto& src = from.parameters();
  const auto& dst = to->parameters();
  for (std::size_t i = 0; i < src.size(); ++i) {
    const std::vector<float> values = src[i].ToVector();
    dcmt::Tensor p = dst[i];  // shared handle
    std::copy(values.begin(), values.end(), p.data());
  }
  return to;
}

std::uint64_t ParameterChecksum(const MultiTaskModel& model) {
  std::uint64_t h = 0;
  for (const dcmt::Tensor& p : model.parameters()) {
    for (float v : p.ToVector()) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      h = Mix64(h ^ bits);
    }
  }
  return h;
}

std::unique_ptr<const FrozenModel> Freeze(const MultiTaskModel& model,
                                          const dcmt::data::FeatureSchema& schema) {
  return std::make_unique<FrozenModel>(CloneModel(model, schema), schema);
}

/// A train split on disk (streamed) plus an in-RAM test split.
struct Corpus {
  StreamingDataset train;
  dcmt::data::Dataset test;
  double gen_s = 0.0;
};

bool GenerateCorpus(SyntheticLogGenerator* gen, const std::string& dir,
                    std::int64_t train_rows, std::uint64_t train_stream,
                    std::int64_t test_rows, std::uint64_t test_stream,
                    Corpus* out, std::string* error) {
  dcmt::data::ShardWriterConfig config;
  config.rows_per_shard = kShardRows;
  const std::int64_t t0 = NowNs();
  if (!gen->GenerateToShards(dir + "/train", train_rows, train_stream, config,
                             error) ||
      !gen->GenerateToShards(dir + "/test", test_rows, test_stream, config,
                             error)) {
    return false;
  }
  out->gen_s = Seconds(NowNs() - t0);
  StreamingDataset test;
  return StreamingDataset::Open(dir + "/train", {}, &out->train, error) &&
         StreamingDataset::Open(dir + "/test", {}, &test, error) &&
         test.Materialize(&out->test, error);
}

/// Label sums of a corpus: equal across set-up repeats, or generation is
/// not deterministic.
std::uint64_t CorpusChecksum(const Corpus& corpus) {
  std::uint64_t h = Mix64(static_cast<std::uint64_t>(corpus.train.size()));
  for (const dcmt::data::ShardInfo& s : corpus.train.manifest().shards) {
    h = Mix64(h ^ static_cast<std::uint64_t>(s.clicks * 1000003 + s.conversions));
  }
  for (const Example& e : corpus.test.examples()) {
    h = Mix64(h ^ (static_cast<std::uint64_t>(e.user_index) << 8) ^
              (e.click * 2u + e.conversion));
  }
  return h;
}

// --- Training -------------------------------------------------------------------

/// BatchSource decorator that stamps every Next() call: the gap between two
/// calls is one training step including its wait for input.
class TimedSource : public dcmt::data::BatchSource {
 public:
  explicit TimedSource(dcmt::data::BatchSource* inner) : inner_(inner) {}
  bool Next(dcmt::data::Batch* batch) override {
    const std::int64_t now = NowNs();
    if (last_ns_ >= 0) step_ns.push_back(static_cast<double>(now - last_ns_));
    const bool more = inner_->Next(batch);
    last_ns_ = more ? now : -1;
    return more;
  }
  void Rewind() override { inner_->Rewind(); }
  std::int64_t batches_per_epoch() const override {
    return inner_->batches_per_epoch();
  }
  std::int64_t size() const override { return inner_->size(); }
  const dcmt::data::FeatureSchema& schema() const override {
    return inner_->schema();
  }
  dcmt::data::BatcherState SaveState() const override {
    return inner_->SaveState();
  }
  bool RestoreState(const dcmt::data::BatcherState& state) override {
    return inner_->RestoreState(state);
  }
  bool ok() const override { return inner_->ok(); }
  std::string error() const override { return inner_->error(); }

  std::vector<double> step_ns;

 private:
  dcmt::data::BatchSource* inner_;
  std::int64_t last_ns_ = -1;
};

/// Mean per-step time of each public call of a train step (traced loop).
struct StepLayers {
  double next_ns = 0, zero_ns = 0, forward_ns = 0, loss_ns = 0,
         backward_ns = 0, clip_ns = 0, adam_ns = 0;
};

struct TrainRun {
  std::vector<double> step_loss;
  std::vector<double> step_ns;
  std::int64_t rows = 0;
  double seconds = 0.0;  // TrainFromSource's own clock, or the traced loop
  bool source_ok = true;
  StepLayers layers;     // traced loop only (sums, ns)
};

enum class TrainMode { kTrainer, kTraced };

/// One epoch over `data` (or `halt_steps` steps). kTrainer goes through
/// eval::TrainFromSource with an epoch-end checkpoint in `ckpt_dir`;
/// kTraced repeats the trainer's step through the same public calls and
/// records a span around each into `spans`.
TrainRun TrainOnce(MultiTaskModel* model, const StreamingDataset& data,
                   std::uint64_t shuffle_seed, const std::string& ckpt_dir,
                   std::int64_t halt_steps, TrainMode mode, SpanLog* spans) {
  TrainRun run;
  dcmt::eval::TrainConfig config;
  config.epochs = 1;
  config.batch_size = kBatchRows;
  config.seed = shuffle_seed;
  config.checkpoint_dir = ckpt_dir;
  config.halt_after_steps = halt_steps;
  config.record_step_loss = true;
  dcmt::Rng shuffle_rng(config.seed);
  dcmt::data::StreamingBatcher batcher(&data, config.batch_size, &shuffle_rng,
                                       kPrefetchDepth);
  if (mode == TrainMode::kTrainer) {
    TimedSource source(&batcher);
    const dcmt::eval::TrainHistory history =
        dcmt::eval::TrainFromSource(model, &source, &shuffle_rng, config);
    run.step_loss = history.step_loss;
    run.step_ns = std::move(source.step_ns);
    run.seconds = history.seconds;
    run.source_ok = source.ok();
  } else {
    // Mirrors eval::TrainLoop's step exactly; only the timing differs.
    dcmt::optim::Adam adam(model->parameters(), config.learning_rate, 0.9f,
                           0.999f, 1e-8f, config.weight_decay);
    const std::int64_t t0 = NowNs();
    dcmt::data::Batch batch;
    for (std::int64_t step = 0;; ++step) {
      if (halt_steps > 0 && step >= halt_steps) break;
      std::int64_t t = NowNs();
      const std::int64_t step_start = t;
      const std::int64_t root = spans->Add("train.step", t, t, step);
      const auto mark = [&](const char* name, double* sum) {
        const std::int64_t now = NowNs();
        spans->Add(name, t, now, step, root);
        *sum += static_cast<double>(now - t);
        t = now;
      };
      const bool more = batcher.Next(&batch);
      mark("data.next", &run.layers.next_ns);
      if (!more) {
        spans->SetEnd(root, t);
        break;
      }
      adam.ZeroGrad();
      mark("optim.zero_grad", &run.layers.zero_ns);
      dcmt::models::Predictions preds = model->Forward(batch);
      mark("models.forward", &run.layers.forward_ns);
      dcmt::Tensor loss = model->Loss(batch, preds);
      mark("models.loss", &run.layers.loss_ns);
      loss.Backward();
      mark("tensor.backward", &run.layers.backward_ns);
      if (config.grad_clip > 0.0f) adam.ClipGradNorm(config.grad_clip);
      mark("optim.clip", &run.layers.clip_ns);
      adam.Step();
      mark("optim.step", &run.layers.adam_ns);
      run.step_loss.push_back(static_cast<double>(loss.item()));
      spans->SetEnd(root, t);
      run.step_ns.push_back(static_cast<double>(t - step_start));
    }
    run.seconds = Seconds(NowNs() - t0);
    run.source_ok = batcher.ok();
  }
  run.rows = std::min<std::int64_t>(
      data.size(), static_cast<std::int64_t>(run.step_loss.size()) * kBatchRows);
  return run;
}

// --- Serving inputs ---------------------------------------------------------------

/// Open-loop traffic: a Poisson send schedule, Zipf users, uniform items and
/// positions, and labels rolled from the generator's ground truth (for the
/// served CVR-AUC). Built before timing; the sender only assembles rows.
struct Traffic {
  std::vector<std::int64_t> offset_ns;
  std::vector<std::int32_t> user;
  std::vector<std::int32_t> item;
  std::vector<std::uint8_t> position;
  std::vector<std::uint8_t> click;
  std::vector<std::uint8_t> conversion;
  std::vector<std::uint8_t> oracle;
  std::size_t size() const { return offset_ns.size(); }
  Example Row(const SyntheticLogGenerator& gen, std::size_t i) const {
    return gen.MakeExample(user[i], item[i], position[i]);
  }
};

/// Rolls click / conversion labels for a row from its true propensities.
void RollLabels(KeyedRng* rng, Example* e) {
  e->click = rng->Uniform() < e->true_ctr ? 1 : 0;
  e->oracle_conversion = rng->Uniform() < e->true_cvr ? 1 : 0;
  e->conversion = (e->click && e->oracle_conversion) ? 1 : 0;
}

Traffic MakeTraffic(const SyntheticLogGenerator& gen, std::uint64_t seed,
                    double seconds) {
  Traffic t;
  t.offset_ns = PoissonSchedule(Derive(seed, kSchedule), kOpenRatePerS, seconds);
  const std::size_t n = t.offset_ns.size();
  t.user.resize(n);
  t.item.resize(n);
  t.position.resize(n);
  t.click.resize(n);
  t.conversion.resize(n);
  t.oracle.resize(n);
  const ZipfSampler zipf(gen.profile().num_users, kZipfExponent);
  KeyedRng rng(Derive(seed, kRequestDraws));
  for (std::size_t i = 0; i < n; ++i) {
    t.user[i] = zipf.Sample(&rng);
    t.item[i] = static_cast<std::int32_t>(
        rng.Bounded(static_cast<std::uint64_t>(gen.profile().num_items)));
    t.position[i] = static_cast<std::uint8_t>(rng.Bounded(kNumPositions));
    Example e = t.Row(gen, i);
    RollLabels(&rng, &e);
    t.click[i] = e.click;
    t.conversion[i] = e.conversion;
    t.oracle[i] = e.oracle_conversion;
  }
  return t;
}

/// Bulk candidate lists: one user against kListRows uniform items each.
/// Users are uniform, not Zipf: with few lists, repeated heavy users would
/// make the served CVR-AUC swing with the seed.
std::vector<std::vector<Example>> MakeLists(const SyntheticLogGenerator& gen,
                                            std::uint64_t seed) {
  KeyedRng rng(Derive(seed, kListDraws));
  std::vector<std::vector<Example>> lists(kNumLists);
  for (auto& list : lists) {
    const int user = static_cast<int>(
        rng.Bounded(static_cast<std::uint64_t>(gen.profile().num_users)));
    list.reserve(kListRows);
    for (int r = 0; r < kListRows; ++r) {
      const int item = static_cast<int>(
          rng.Bounded(static_cast<std::uint64_t>(gen.profile().num_items)));
      Example e = gen.MakeExample(user, item, r % kNumPositions);
      RollLabels(&rng, &e);
      list.push_back(std::move(e));
    }
  }
  return lists;
}

/// CVR-AUC on clicked rows (and the time eval::ComputeMetrics took).
struct Quality {
  double cvr_auc = 0.0;
  double compute_s = 0.0;
};

Quality ComputeQuality(const dcmt::eval::PredictionLog& log) {
  const std::int64_t t0 = NowNs();
  const dcmt::eval::EvalResult result = dcmt::eval::ComputeMetrics(log);
  return {result.cvr_auc_clicked, Seconds(NowNs() - t0)};
}

void AppendScore(const dcmt::serve::Score& s, const Example& e,
                 dcmt::eval::PredictionLog* log) {
  log->ctr.push_back(s.pctr);
  log->cvr.push_back(s.pcvr);
  log->ctcvr.push_back(s.pctcvr);
  log->click.push_back(e.click);
  log->conversion.push_back(e.conversion);
  log->oracle_conversion.push_back(e.oracle_conversion);
  log->user_index.push_back(e.user_index);
}

/// FrozenModel::ScoreExamples over `rows` in kChunkRows chunks. Returns the
/// seconds spent scoring (row assembly excluded).
double ScoreChunked(const FrozenModel& model, const std::vector<Example>& rows,
                    dcmt::serve::ScoreColumns* out) {
  double seconds = 0.0;
  out->pctr.clear();
  out->pcvr.clear();
  out->pctcvr.clear();
  std::vector<Example> chunk;
  for (std::size_t first = 0; first < rows.size(); first += kChunkRows) {
    const std::size_t last = std::min(rows.size(), first + kChunkRows);
    chunk.assign(rows.begin() + static_cast<std::ptrdiff_t>(first),
                 rows.begin() + static_cast<std::ptrdiff_t>(last));
    const std::int64_t t0 = NowNs();
    const dcmt::serve::ScoreColumns c = model.ScoreExamples(chunk);
    seconds += Seconds(NowNs() - t0);
    out->pctr.insert(out->pctr.end(), c.pctr.begin(), c.pctr.end());
    out->pcvr.insert(out->pcvr.end(), c.pcvr.begin(), c.pcvr.end());
    out->pctcvr.insert(out->pctcvr.end(), c.pctcvr.begin(), c.pctcvr.end());
  }
  return seconds;
}

bool SameScore(const dcmt::serve::Score& s, const dcmt::serve::ScoreColumns& c,
               std::size_t i) {
  return SameBits(s.pctr, c.pctr[i]) && SameBits(s.pcvr, c.pcvr[i]) &&
         SameBits(s.pctcvr, c.pctcvr[i]);
}

// --- Open-loop serving through serve::Router ----------------------------------------

struct OpenLoopRun {
  std::vector<double> latency_us;  // OK responses, from the scheduled send
  std::vector<double> late_us;     // how late the generator sent each request
  std::vector<double> submit_us;   // traced: the Router::Submit call
  std::vector<double> queue_wait_us;
  // Latency percentiles of each kLatencyWindowNs of the schedule.
  std::vector<double> window_p50_us;
  std::vector<double> window_p90_us;
  std::int64_t ok = 0;
  double window_s = 0.0;
  std::vector<double> swap_ms;
  dcmt::serve::RouterStats stats;
  ObsCounters obs;
  Quality quality;
};

/// Sends `traffic` on its schedule from one sender thread; one collector per
/// engine stamps each result when it becomes ready; one swapper thread
/// alternates versions A and B every kSwapEveryS. After the window
/// every response is checked against a direct FrozenModel score of each
/// version that was live while it was in flight.
OpenLoopRun RunOpenLoop(const SyntheticLogGenerator& gen, const Traffic& traffic,
                        const MultiTaskModel& a, const MultiTaskModel& b,
                        bool traced, SpanLog* spans, Checks* checks) {
  const dcmt::data::FeatureSchema schema = gen.Schema();
  OpenLoopRun run;
  SetThreads(1);
  std::unique_ptr<const FrozenModel> version_a = Freeze(a, schema);
  std::unique_ptr<const FrozenModel> spare = Freeze(b, schema);
  // Live version after s swaps: versions[s % 2].
  const FrozenModel* versions[2] = {version_a.get(), spare.get()};

  std::unique_ptr<ObsWindow> obs_window;
  if (traced) obs_window = std::make_unique<ObsWindow>();
  dcmt::serve::Router router(std::move(version_a), dcmt::serve::RouterConfig{});

  const std::size_t n = traffic.size();
  std::vector<std::future<dcmt::serve::Score>> futures(n);
  std::vector<dcmt::serve::Score> scores(n);
  std::vector<std::int32_t> swaps_before(n), swaps_after(n);
  std::vector<std::int64_t> done_ns(n), late_ns(n);
  std::vector<std::int64_t> submit_ns(traced ? n : 0);
  std::atomic<std::size_t> published{0};
  std::atomic<int> swaps_started{0};
  std::atomic<int> swaps_done{0};
  std::atomic<bool> sending{true};
  std::vector<int> engine_of(n);
  for (std::size_t i = 0; i < n; ++i) engine_of[i] = router.EngineFor(traffic.user[i]);
  const std::int64_t t0 = NowNs() + kStartMarginNs;
  const std::int64_t last_send = t0 + (n > 0 ? traffic.offset_ns.back() : 0);

  // One collector per engine. An engine fulfils its requests in queue order,
  // so each collector blocks on its engine's oldest request and stamps it the
  // moment it is ready; the rest of that batch is ready right after. Blocking
  // (not spinning) leaves the cores to the sender and the dispatchers.
  const auto collect = [&](int engine) {
    SetTimerSlack();
    for (std::size_t i = 0; i < n; ++i) {
      if (engine_of[i] != engine) continue;
      while (published.load(std::memory_order_acquire) <= i) {
        std::this_thread::sleep_for(std::chrono::microseconds(kCollectorNapUs));
      }
      futures[i].wait();
      done_ns[i] = NowNs();
      scores[i] = futures[i].get();
      swaps_after[i] = swaps_started.load(std::memory_order_acquire);
    }
  };
  std::vector<std::thread> collectors;
  for (int e = 0; e < router.num_engines(); ++e) collectors.emplace_back(collect, e);
  std::thread swapper([&] {
    for (int k = 1;; ++k) {
      const std::int64_t at =
          t0 + static_cast<std::int64_t>(k * kSwapEveryS * 1e9);
      if (at >= last_send) return;
      for (std::int64_t now = NowNs(); now < at; now = NowNs()) {
        if (!sending.load(std::memory_order_acquire)) return;
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(std::min<std::int64_t>(at - now, 1000000)));
      }
      swaps_started.store(k, std::memory_order_release);
      const std::int64_t s0 = NowNs();
      spare = router.Swap(std::move(spare));
      run.swap_ms.push_back(static_cast<double>(NowNs() - s0) * 1e-6);
      swaps_done.store(k, std::memory_order_release);
    }
  });

  for (std::size_t i = 0; i < n; ++i) {
    const Example row = traffic.Row(gen, i);
    const std::int64_t due = t0 + traffic.offset_ns[i];
    std::int64_t now = NowNs();
    while (now < due) now = NowNs();
    late_ns[i] = now - due;
    swaps_before[i] = swaps_done.load(std::memory_order_acquire);
    futures[i] = router.Submit(row);
    if (traced) submit_ns[i] = NowNs() - now;
    published.store(i + 1, std::memory_order_release);
  }
  sending.store(false, std::memory_order_release);
  swapper.join();
  for (std::thread& c : collectors) c.join();
  router.Shutdown();
  run.stats = router.stats();
  if (obs_window != nullptr) {
    run.obs = obs_window->Delta();
    obs_window.reset();
  }

  // --- Results and their check (after the timed window). ---
  std::int64_t not_ok = 0;
  std::int64_t last_done = t0;
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < n; ++i) {
    run.late_us.push_back(static_cast<double>(late_ns[i]) * 1e-3);
    if (!scores[i].ok()) {
      ++not_ok;
      continue;
    }
    ++run.ok;
    last_done = std::max(last_done, done_ns[i]);
    const double latency_us =
        static_cast<double>(done_ns[i] - (t0 + traffic.offset_ns[i])) * 1e-3;
    run.latency_us.push_back(latency_us);
    const auto w = static_cast<std::size_t>(traffic.offset_ns[i] / kLatencyWindowNs);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(latency_us);
  }
  run.window_s = Seconds(last_done - t0);
  for (const std::vector<double>& w : windows) {
    const Quantile p90 = TailQuantile(w, 0.90);
    if (!p90.ok) continue;  // a short final window
    run.window_p50_us.push_back(TailQuantile(w, 0.50).value);
    run.window_p90_us.push_back(p90.value);
  }
  checks->Expect(!run.window_p90_us.empty(), "serve_open: no window with a valid p90");
  checks->Count(static_cast<std::int64_t>(n), not_ok, "serve_open: response not OK");
  // A send delayed by a slow Submit is charged to latency, which runs from
  // the scheduled send. The run fails only when the generator itself fell
  // behind its schedule.
  checks->Expect(TailQuantile(run.late_us, 0.90).value <= kMaxLateP90Us,
                 "serve_open: generator fell behind (late p90 above 1 ms)");

  SetThreads(BulkThreads());
  std::vector<std::uint8_t> matched(n, 0);
  for (int parity = 0; parity < 2; ++parity) {
    std::vector<std::size_t> ids;
    std::vector<Example> rows;
    dcmt::serve::ScoreColumns ref;
    const auto flush = [&] {
      ScoreChunked(*versions[parity], rows, &ref);
      for (std::size_t j = 0; j < ids.size(); ++j) {
        if (SameScore(scores[ids[j]], ref, j)) matched[ids[j]] = 1;
      }
      ids.clear();
      rows.clear();
    };
    for (std::size_t i = 0; i < n; ++i) {
      if (!scores[i].ok() || matched[i]) continue;
      const bool live = swaps_after[i] > swaps_before[i] ||
                        swaps_before[i] % 2 == parity;
      if (!live) continue;
      ids.push_back(i);
      rows.push_back(traffic.Row(gen, i));
      if (rows.size() == kVerifyGroupRows) flush();
    }
    if (!rows.empty()) flush();
  }
  std::int64_t mismatched = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (scores[i].ok() && !matched[i]) ++mismatched;
  }
  checks->Count(run.ok, mismatched,
                "serve_open: response differs from every live version");

  dcmt::eval::PredictionLog log;
  for (std::size_t i = 0; i < n; ++i) {
    if (!scores[i].ok()) continue;
    Example e;
    e.click = traffic.click[i];
    e.conversion = traffic.conversion[i];
    e.oracle_conversion = traffic.oracle[i];
    e.user_index = traffic.user[i];
    AppendScore(scores[i], e, &log);
  }
  run.quality = ComputeQuality(log);

  if (traced) {
    const double score_us =
        run.obs.serve_batches > 0
            ? run.obs.serve_score_s * 1e6 / static_cast<double>(run.obs.serve_batches)
            : 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double submit_us = static_cast<double>(submit_ns[i]) * 1e-3;
      run.submit_us.push_back(submit_us);
      if (!scores[i].ok()) continue;
      const std::int64_t due = t0 + traffic.offset_ns[i];
      run.queue_wait_us.push_back(
          static_cast<double>(done_ns[i] - due) * 1e-3 - submit_us - score_us);
    }
    // Request spans for the first requests only: the trace file stays small.
    const std::size_t kept = std::min<std::size_t>(n, 20000);
    for (std::size_t i = 0; i < kept; ++i) {
      const std::int64_t due = t0 + traffic.offset_ns[i];
      const std::int64_t sent = due + late_ns[i];
      const auto id = static_cast<std::int64_t>(i);
      const std::int64_t root = spans->Add("serve.request", due, done_ns[i], id);
      spans->Add("router.submit", sent, sent + submit_ns[i], id, root);
    }
  }
  return run;
}

// --- Bulk scoring through serve::Engine::ScoreAll ---------------------------------

struct BulkRun {
  double frozen_rows_per_s = 0.0;
  double overhead_ratio = 0.0;
};

/// Traced runs' bulk probe: scores the candidate lists round-robin through
/// Engine::ScoreAll (max_batch 256, pool at nproc - 1) for `seconds`, every
/// list at least once. After each list the same rows are scored through
/// FrozenModel::ScoreExamples on the calling thread, so the engine and the
/// model are timed over the same stretch of the run; every engine score must
/// equal that reference bit for bit (DESIGN.md §13).
BulkRun RunBulk(const SyntheticLogGenerator& gen, const MultiTaskModel& model,
                const std::vector<std::vector<Example>>& lists, double seconds,
                SpanLog* spans, Checks* checks) {
  SetThreads(BulkThreads());
  const std::unique_ptr<const FrozenModel> frozen = Freeze(model, gen.Schema());
  dcmt::serve::EngineConfig config;
  config.max_batch = kBulkMaxBatch;
  dcmt::serve::Engine engine(frozen.get(), config);
  std::vector<double> engine_us;
  std::vector<double> reference_us;
  std::int64_t rows = 0;
  std::int64_t not_ok = 0;
  std::int64_t mismatches = 0;
  const std::int64_t start = NowNs();
  for (std::int64_t k = 0;; ++k) {
    if (k >= static_cast<std::int64_t>(lists.size()) &&
        Seconds(NowNs() - start) >= seconds) {
      break;
    }
    const std::size_t l = static_cast<std::size_t>(k) % lists.size();
    const std::int64_t s0 = NowNs();
    const std::vector<dcmt::serve::Score> scores = engine.ScoreAll(lists[l]);
    const std::int64_t s1 = NowNs();
    spans->Add("engine.score_all", s0, s1, k);
    engine_us.push_back(static_cast<double>(s1 - s0) * 1e-3);
    dcmt::serve::ScoreColumns ref;
    reference_us.push_back(ScoreChunked(*frozen, lists[l], &ref) * 1e6);
    rows += static_cast<std::int64_t>(scores.size());
    for (std::size_t i = 0; i < scores.size(); ++i) {
      if (!scores[i].ok()) {
        ++not_ok;
      } else if (!SameScore(scores[i], ref, i)) {
        ++mismatches;
      }
    }
  }
  engine.Shutdown();
  checks->Count(rows, not_ok, "bulk: score not OK");
  checks->Count(rows, mismatches, "bulk: ScoreAll differs from FrozenModel::ScoreExamples");
  BulkRun run;
  run.frozen_rows_per_s = kListRows / (Median(reference_us) * 1e-6);
  run.overhead_ratio = Median(engine_us) / Median(reference_us);
  return run;
}

// --- Shared workload pieces -----------------------------------------------------

using Metrics = std::map<std::string, double>;

/// A reported percentile; a refused one (fewer than ten samples beyond it)
/// is a failed operation. The sample count goes to stderr.
double Pct(const std::vector<double>& values, double q, const char* name,
           Checks* checks) {
  const Quantile r = TailQuantile(values, q);
  std::fprintf(stderr, "e2ebench: %s = %.6g from %lld samples (%lld beyond)\n",
               name, r.value, static_cast<long long>(r.samples),
               static_cast<long long>(r.beyond));
  checks->Expect(r.ok, "percentile has fewer than ten samples beyond it");
  return r.value;
}

void CheckTrainRun(const TrainRun& run, const char* what, Checks* checks) {
  std::int64_t nonfinite = 0;
  for (double loss : run.step_loss) {
    if (!std::isfinite(loss)) ++nonfinite;
  }
  checks->Count(static_cast<std::int64_t>(run.step_loss.size()), nonfinite, what);
  checks->Expect(run.source_ok && !run.step_loss.empty(),
                 "batch source failed or produced no batch");
}

/// The traced run's two extra passes over a training that `reference`
/// already ran untraced: the span-timed public-call loop (whose per-step
/// losses must equal the reference's bit for bit) and a TrainFromSource pass
/// with dcmt::obs on, for the pool and checkpoint counters.
struct TracedTraining {
  TrainRun traced;
  ObsCounters obs;
};

TracedTraining TraceTraining(const StreamingDataset& data, std::uint64_t init_seed,
                             std::uint64_t shuffle_seed, const std::string& ckpt_dir,
                             const TrainRun& reference, SpanLog* spans,
                             Checks* checks) {
  TracedTraining out;
  std::unique_ptr<MultiTaskModel> model = NewModel(data.schema(), init_seed);
  out.traced = TrainOnce(model.get(), data, shuffle_seed, "", 0,
                         TrainMode::kTraced, spans);
  checks->Expect(out.traced.step_loss == reference.step_loss,
                 "traced train loop's losses differ from TrainFromSource");
  model = NewModel(data.schema(), init_seed);
  ObsWindow window;
  TrainOnce(model.get(), data, shuffle_seed, ckpt_dir, 0, TrainMode::kTrainer,
            nullptr);
  out.obs = window.Delta();
  return out;
}

void PutTrainLayers(const TracedTraining& t, Metrics* m, Checks* checks) {
  const double steps = static_cast<double>(std::max<std::size_t>(
      1, t.traced.step_loss.size()));
  const StepLayers& l = t.traced.layers;
  const auto per_step_ms = [&](double ns) { return ns / steps * 1e-6; };
  (*m)["data.next_ms"] = per_step_ms(l.next_ns);
  (*m)["models.forward_ms"] = per_step_ms(l.forward_ns);
  (*m)["models.loss_ms"] = per_step_ms(l.loss_ns);
  (*m)["tensor.backward_ms"] = per_step_ms(l.backward_ns);
  (*m)["optim.clip_ms"] = per_step_ms(l.clip_ns);
  (*m)["optim.adam_ms"] = per_step_ms(l.zero_ns + l.adam_ns);
  (*m)["train.step_ms.p50"] =
      Pct(t.traced.step_ns, 0.50, "train.step_ns.p50", checks) * 1e-6;
  (*m)["train.step_ms.p90"] =
      Pct(t.traced.step_ns, 0.90, "train.step_ns.p90", checks) * 1e-6;
  (*m)["ckpt.save_ms"] =
      t.obs.ckpt_saves > 0
          ? t.obs.ckpt_save_s * 1e3 / static_cast<double>(t.obs.ckpt_saves)
          : 0.0;
  checks->Expect(t.obs.ckpt_saves > 0, "no checkpoint was saved");
}

/// Thread-pool counters over the traced run's obs windows: the training
/// pass plus, on the serving workloads, the main serving stage.
void PutPoolLayers(const ObsCounters& train, const ObsCounters& serve, Metrics* m) {
  (*m)["pool.dispatches"] =
      static_cast<double>(train.pool_dispatches + serve.pool_dispatches);
  (*m)["pool.inline_runs"] =
      static_cast<double>(train.pool_inline_runs + serve.pool_inline_runs);
}

/// Router, cache, engine and load-generator layers. The engine.* batch
/// figures come from the router's engines; overhead_ratio and the FrozenModel
/// rate from the bulk probe.
void PutServingLayers(const OpenLoopRun& open, const BulkRun& bulk, Metrics* m,
                      Checks* checks) {
  (*m)["router.submit_us.p50"] = Pct(open.submit_us, 0.50, "router.submit_us.p50", checks);
  (*m)["router.submit_us.p99"] = Pct(open.submit_us, 0.99, "router.submit_us.p99", checks);
  const auto& cache = open.stats.cache;
  (*m)["cache.hit_ratio"] =
      static_cast<double>(cache.hits) /
      static_cast<double>(std::max<std::int64_t>(1, cache.hits + cache.misses));
  (*m)["cache.invalidations"] = static_cast<double>(cache.invalidations);
  (*m)["router.swap_ms.max"] =
      open.swap_ms.empty() ? 0.0
                           : *std::max_element(open.swap_ms.begin(), open.swap_ms.end());
  checks->Expect(!open.swap_ms.empty(), "no hot swap happened");
  (*m)["loadgen.late_us.p99"] = Pct(open.late_us, 0.99, "loadgen.late_us.p99", checks);
  (*m)["engine.queue_wait_us.p50"] =
      Pct(open.queue_wait_us, 0.50, "engine.queue_wait_us.p50", checks);
  (*m)["engine.overhead_ratio"] = bulk.overhead_ratio;
  (*m)["frozen.rows_per_s"] = bulk.frozen_rows_per_s;

  dcmt::serve::EngineStats total;
  const ObsCounters& obs = open.obs;
  for (const dcmt::serve::EngineStats& e : open.stats.per_engine) {
    total.batches += e.batches;
    total.scored += e.scored;
    total.flushed_deadline += e.flushed_deadline;
    total.max_queue_depth = std::max(total.max_queue_depth, e.max_queue_depth);
  }
  const double batches = static_cast<double>(std::max<std::int64_t>(1, total.batches));
  (*m)["engine.batch_mean"] = static_cast<double>(total.scored) / batches;
  (*m)["engine.flush_deadline_share"] =
      static_cast<double>(total.flushed_deadline) / batches;
  (*m)["engine.max_queue_depth"] = static_cast<double>(total.max_queue_depth);
  (*m)["engine.score_us_per_batch"] =
      obs.serve_batches > 0
          ? obs.serve_score_s * 1e6 / static_cast<double>(obs.serve_batches)
          : 0.0;
}

/// Serving set-up: model version A trained on a fresh log and gated on a
/// held-out split, version B = A refreshed on a later log, plus the traffic
/// and candidate lists.
struct ServingSetup {
  std::unique_ptr<SyntheticLogGenerator> gen;
  Corpus corpus;
  StreamingDataset refresh;
  std::unique_ptr<MultiTaskModel> a;
  std::unique_ptr<MultiTaskModel> b;
  TrainRun train_a;
  double predict_s = 0.0;
  Traffic traffic;
  std::vector<std::vector<Example>> lists;
};

bool GenerateRefreshLog(SyntheticLogGenerator* gen, const std::string& dir,
                        std::uint64_t seed, StreamingDataset* out,
                        std::string* error) {
  dcmt::data::ShardWriterConfig config;
  config.rows_per_shard = kShardRows;
  return gen->GenerateToShards(dir, kServeRefreshRows, Derive(seed, kRefreshStream),
                               config, error) &&
         StreamingDataset::Open(dir, {}, out, error);
}

/// Version B: a copy of `a` trained one more epoch on the refresh log.
std::unique_ptr<MultiTaskModel> Refresh(const MultiTaskModel& a,
                                        const StreamingDataset& refresh,
                                        std::uint64_t seed, const std::string& ckpt_dir,
                                        Checks* checks) {
  std::unique_ptr<MultiTaskModel> b = CloneModel(a, refresh.schema());
  const TrainRun run = TrainOnce(b.get(), refresh, Derive(seed, kRefreshShuffle),
                                 ckpt_dir, 0, TrainMode::kTrainer, nullptr);
  CheckTrainRun(run, "refresh: non-finite step loss", checks);
  return b;
}

bool SetUpServing(std::uint64_t input_seed, const std::string& dir,
                  double traffic_seconds, ServingSetup* s, Checks* checks,
                  std::string* error) {
  const std::uint64_t seed = kConfigSeed;
  s->gen = std::make_unique<SyntheticLogGenerator>(Profile());
  if (!GenerateCorpus(s->gen.get(), dir, kServeTrainRows,
                      Derive(seed, kTrainStream), kGateRows,
                      Derive(seed, kTestStream), &s->corpus, error) ||
      !GenerateRefreshLog(s->gen.get(), dir + "/refresh", seed, &s->refresh, error)) {
    return false;
  }
  const dcmt::data::FeatureSchema& schema = s->corpus.train.schema();
  SetThreads(HardwareThreads());
  s->a = NewModel(schema, Derive(seed, kModelInit));
  s->train_a = TrainOnce(s->a.get(), s->corpus.train, Derive(seed, kShuffle),
                         dir + "/ckpt_a", 0, TrainMode::kTrainer, nullptr);
  CheckTrainRun(s->train_a, "serving set-up: non-finite step loss", checks);

  const std::int64_t t0 = NowNs();
  const dcmt::eval::PredictionLog gate = dcmt::eval::Predict(s->a.get(), s->corpus.test);
  s->predict_s = Seconds(NowNs() - t0);
  const double gate_auc = dcmt::eval::ComputeMetrics(gate).cvr_auc_clicked;
  checks->Expect(gate_auc >= kGateMinAuc, "serving set-up: version A failed its AUC gate");

  s->b = Refresh(*s->a, s->refresh, seed, dir + "/ckpt_b", checks);
  if (traffic_seconds > 0.0) {
    s->traffic = MakeTraffic(*s->gen, input_seed, traffic_seconds);
  }
  s->lists = MakeLists(*s->gen, input_seed);
  return true;
}

/// Runs `setup` kSetupRepeats times into fresh directories and keeps the
/// last; returns the median wall time. `checksum` of every repeat must agree.
template <typename State, typename SetupFn, typename ChecksumFn>
bool RepeatSetup(const std::string& workdir, int repeats, SetupFn setup,
                 ChecksumFn checksum, State* state, double* median_s,
                 Checks* checks) {
  std::vector<double> times;
  std::uint64_t first = 0;
  for (int r = 0; r < repeats; ++r) {
    const std::string dir = workdir + "/setup" + std::to_string(r);
    if (r > 0) fs::remove_all(workdir + "/setup" + std::to_string(r - 1));
    *state = State{};
    const std::int64_t t0 = NowNs();
    if (!setup(dir, state)) return false;
    times.push_back(Seconds(NowNs() - t0));
    const std::uint64_t sum = checksum(*state);
    if (r == 0) first = sum;
    checks->Expect(sum == first, "set-up is not deterministic across repeats");
  }
  *median_s = Median(times);
  return true;
}

/// Throughput as the median over consecutive groups of `group` items (steps,
/// lists) of rows / seconds, so one disturbed second moves it little. A
/// trailing group shorter than half of `group` is dropped.
double MedianGroupRate(const std::vector<double>& item_ns,
                       const std::vector<double>& item_rows, std::size_t group) {
  std::vector<double> rates;
  for (std::size_t first = 0; first < item_ns.size(); first += group) {
    const std::size_t last = std::min(item_ns.size(), first + group);
    if (2 * (last - first) < group) break;
    double ns = 0.0, rows = 0.0;
    for (std::size_t i = first; i < last; ++i) {
      ns += item_ns[i];
      rows += item_rows[i];
    }
    rates.push_back(rows / (ns * 1e-9));
  }
  return Median(rates);
}

// --- train_eval ---------------------------------------------------------------------

struct TrainEvalSetup {
  std::unique_ptr<SyntheticLogGenerator> gen;
  Corpus corpus;
};

bool TrainEval(const Options& o, Result* result, SpanLog* spans, Checks* checks,
               std::string* error) {
  Metrics& m = result->metrics;
  const int threads = HardwareThreads();
  result->threads["train"] = threads;
  result->threads["eval"] = threads;
  SetThreads(threads);
  TrainEvalSetup setup;
  double setup_s = 0.0;
  const auto set_up = [&](const std::string& dir, TrainEvalSetup* s) {
    s->gen = std::make_unique<SyntheticLogGenerator>(Profile());
    return GenerateCorpus(s->gen.get(), dir, kTrainRows, Derive(o.seed, kTrainStream),
                          kTestRows, Derive(o.seed, kTestStream), &s->corpus, error);
  };
  const auto checksum = [](const TrainEvalSetup& s) { return CorpusChecksum(s.corpus); };
  if (!RepeatSetup(o.workdir, o.trace ? 1 : kTrainEvalSetupRepeats, set_up, checksum, &setup,
                   &setup_s, checks)) {
    return false;
  }
  const StreamingDataset& train = setup.corpus.train;
  const dcmt::data::Dataset& test = setup.corpus.test;
  const std::uint64_t init = Derive(kConfigSeed, kModelInit);
  const std::uint64_t shuffle = Derive(kConfigSeed, kShuffle);

  if (o.trace) {
    m["data.gen_s"] = setup.corpus.gen_s;
    std::unique_ptr<MultiTaskModel> model = NewModel(train.schema(), init);
    const TrainRun reference = TrainOnce(model.get(), train, shuffle,
                                         o.workdir + "/ckpt_ref", 0,
                                         TrainMode::kTrainer, nullptr);
    CheckTrainRun(reference, "train_eval: non-finite step loss", checks);
    const TracedTraining t = TraceTraining(train, init, shuffle, o.workdir + "/ckpt_obs",
                                           reference, spans, checks);
    PutTrainLayers(t, &m, checks);
    PutPoolLayers(t.obs, {}, &m);
    m["trace.overhead_pct"] = (Sum(t.traced.step_ns) / Sum(reference.step_ns) - 1.0) * 100.0;
    const std::int64_t t0 = NowNs();
    const dcmt::eval::PredictionLog log = dcmt::eval::Predict(model.get(), test);
    const std::int64_t t1 = NowNs();
    spans->Add("eval.predict", t0, t1);
    m["eval.predict_s"] = Seconds(t1 - t0);
    m["metrics.compute_s"] = ComputeQuality(log).compute_s;

    // Probes: publish the trained model and drive the serving layers briefly.
    StreamingDataset refresh;
    if (!GenerateRefreshLog(setup.gen.get(), o.workdir + "/refresh", o.seed, &refresh,
                            error)) {
      return false;
    }
    const std::unique_ptr<MultiTaskModel> b =
        Refresh(*model, refresh, o.seed, o.workdir + "/ckpt_b", checks);
    const Traffic traffic = MakeTraffic(*setup.gen, o.seed, kProbeSeconds);
    const std::vector<std::vector<Example>> lists = MakeLists(*setup.gen, o.seed);
    const OpenLoopRun open = RunOpenLoop(*setup.gen, traffic, *model, *b, true, spans, checks);
    const BulkRun bulk = RunBulk(*setup.gen, *model, lists, kProbeSeconds, spans, checks);
    PutServingLayers(open, bulk, &m, checks);
    result->threads["probe_router"] = 1;
    result->threads["probe_bulk"] = BulkThreads();
    return true;
  }

  std::vector<double> step_ns;
  std::vector<double> step_rows;
  std::vector<double> reference_loss;
  dcmt::eval::PredictionLog first;
  double auc = 0.0;
  const std::int64_t start = NowNs();
  for (int cycle = 0;; ++cycle) {
    if (cycle >= kMinCycles && Seconds(NowNs() - start) >= o.seconds) {
      break;
    }
    std::unique_ptr<MultiTaskModel> model = NewModel(train.schema(), init);
    const std::string ckpt = o.workdir + "/ckpt" + std::to_string(cycle);
    const TrainRun run = TrainOnce(model.get(), train, shuffle, ckpt, 0,
                                   TrainMode::kTrainer, nullptr);
    CheckTrainRun(run, "train_eval: non-finite step loss", checks);
    checks->Expect(fs::exists(ckpt + "/train_state.ckpt"), "train_eval: no checkpoint");
    if (cycle == 0) reference_loss = run.step_loss;
    checks->Expect(run.step_loss == reference_loss,
                   "train_eval: losses differ between identical cycles");
    step_ns.insert(step_ns.end(), run.step_ns.begin(), run.step_ns.end());
    for (std::int64_t k = 0, left = run.rows; k < static_cast<std::int64_t>(run.step_ns.size());
         ++k, left -= kBatchRows) {
      step_rows.push_back(static_cast<double>(std::min<std::int64_t>(left, kBatchRows)));
    }
    fs::remove_all(ckpt);

    dcmt::eval::PredictionLog log = dcmt::eval::Predict(model.get(), test);
    if (cycle > 0) {
      // Identical cycles must predict identically (and so share the AUC).
      checks->Expect(log.ctr == first.ctr && log.cvr == first.cvr &&
                         log.ctcvr == first.ctcvr,
                     "train_eval: predictions differ between identical cycles");
      continue;
    }
    first = std::move(log);
    auc = ComputeQuality(first).cvr_auc;
    // Train/serve parity: the served scores of the trained model equal the
    // evaluator's, bit for bit (DESIGN.md §13).
    const FrozenModel view = FrozenModel::View(model.get(), train.schema());
    dcmt::serve::ScoreColumns served;
    ScoreChunked(view, test.examples(), &served);
    std::int64_t mismatches = 0;
    for (std::size_t i = 0; i < served.pctr.size(); ++i) {
      if (!SameBits(served.pctr[i], first.ctr[i]) ||
          !SameBits(served.pcvr[i], first.cvr[i]) ||
          !SameBits(served.pctcvr[i], first.ctcvr[i])) {
        ++mismatches;
      }
    }
    checks->Count(test.size(), mismatches, "train_eval: served score differs from Predict");
  }
  m["rows_per_s"] = MedianGroupRate(step_ns, step_rows, kStepsPerGroup);
  for (double& ns : step_ns) ns *= 1e-3;  // -> us
  m["setup_s"] = setup_s;
  m["p50_us"] = Pct(step_ns, 0.50, "train step us p50", checks);
  m["p90_us"] = Pct(step_ns, 0.90, "train step us p90", checks);
  m["cvr_auc"] = auc;
  return true;
}

// --- serve_open --------------------------------------------------------------------

bool ServeOpen(const Options& o, Result* result, SpanLog* spans, Checks* checks,
               std::string* error) {
  Metrics& m = result->metrics;
  result->threads["setup"] = HardwareThreads();
  result->threads["verify"] = BulkThreads();
  result->threads["router"] = 1;
  ServingSetup s;
  double setup_s = 0.0;
  const auto set_up = [&](const std::string& dir, ServingSetup* state) {
    return SetUpServing(o.seed, dir, o.seconds, state, checks, error);
  };
  const auto checksum = [](const ServingSetup& state) {
    return Mix64(ParameterChecksum(*state.a)) ^ ParameterChecksum(*state.b) ^
           CorpusChecksum(state.corpus);
  };
  if (!RepeatSetup(o.workdir, o.trace ? 1 : kSetupRepeats, set_up, checksum, &s,
                   &setup_s, checks)) {
    return false;
  }

  if (!o.trace) {
    const OpenLoopRun open = RunOpenLoop(*s.gen, s.traffic, *s.a, *s.b, false, spans,
                                         checks);
    m["setup_s"] = setup_s;
    m["rows_per_s"] = static_cast<double>(open.ok) / open.window_s;
    // Median over 20 ms windows of each window's percentile.
    m["p50_us"] = Median(open.window_p50_us);
    m["p90_us"] = Median(open.window_p90_us);
    m["cvr_auc"] = open.quality.cvr_auc;
    std::fprintf(stderr,
                 "e2ebench: request p90 over %zu windows of 20 ms; pooled p99 %.1f us; "
                 "generator late p99 %.3f us\n",
                 open.window_p90_us.size(), TailQuantile(open.latency_us, 0.99).value,
                 TailQuantile(open.late_us, 0.99).value);
    return true;
  }

  m["data.gen_s"] = s.corpus.gen_s;
  m["eval.predict_s"] = s.predict_s;
  SetThreads(HardwareThreads());
  const TracedTraining t =
      TraceTraining(s.corpus.train, Derive(kConfigSeed, kModelInit),
                    Derive(kConfigSeed, kShuffle), o.workdir + "/ckpt_obs", s.train_a,
                    spans, checks);
  PutTrainLayers(t, &m, checks);
  const OpenLoopRun plain = RunOpenLoop(*s.gen, s.traffic, *s.a, *s.b, false, spans,
                                        checks);
  const OpenLoopRun open = RunOpenLoop(*s.gen, s.traffic, *s.a, *s.b, true, spans,
                                       checks);
  const BulkRun bulk = RunBulk(*s.gen, *s.a, s.lists, kProbeSeconds, spans, checks);
  PutServingLayers(open, bulk, &m, checks);
  PutPoolLayers(t.obs, open.obs, &m);
  m["metrics.compute_s"] = open.quality.compute_s;
  m["trace.overhead_pct"] =
      (Median(open.latency_us) / Median(plain.latency_us) - 1.0) * 100.0;
  return true;
}

}  // namespace

bool RunWorkload(const Options& options, Result* result, std::string* error) {
  std::error_code ec;
  fs::remove_all(options.workdir, ec);
  if (!fs::create_directories(options.workdir, ec)) {
    *error = "cannot create work directory " + options.workdir;
    return false;
  }
  SpanLog spans;
  Checks checks;
  bool ran = false;
  if (options.workload == "train_eval") {
    ran = TrainEval(options, result, &spans, &checks, error);
  } else if (options.workload == "serve_open") {
    ran = ServeOpen(options, result, &spans, &checks, error);
  } else {
    *error = "unknown workload '" + options.workload + "'";
  }
  fs::remove_all(options.workdir, ec);
  if (!ran) return false;
  if (!options.trace) result->metrics["peak_rss_mb"] = PeakRssMb();
  if (options.trace && !options.trace_path.empty() && !spans.Write(options.trace_path)) {
    *error = "cannot write trace " + options.trace_path;
    return false;
  }
  result->attempted = checks.attempted();
  result->failed = checks.failed();
  return true;
}

}  // namespace e2ebench
