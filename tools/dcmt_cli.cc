// dcmt_cli — command-line front end to the library: generate synthetic
// exposure logs, train any registered model, evaluate, and batch-predict,
// all through CSV files and binary checkpoints.
//
// Subcommands:
//   dcmt_cli generate --profile=ae-es --split=train --out=train.csv
//   dcmt_cli gen-shards --profile=ae-es --split=train --out-dir=shards/
//                       [--exposures=10000000 --shard-rows=262144]
//       streams the synthetic log straight to a sharded on-disk dataset
//       (DESIGN.md §15) without ever materializing it: RSS stays bounded by
//       one shard regardless of --exposures.
//   dcmt_cli train    --model=dcmt --train=train.csv --ckpt=dcmt.ckpt
//                     [--epochs=4 --lr=0.01 --lambda1=1.0 --val-fraction=0.1]
//                     [--checkpoint-dir=ckpts --checkpoint-every=500 --resume=1]
//                     [--metrics-out=metrics.prom --trace-out=trace.jsonl]
//       or, out-of-core: --train-shards=shards/ [--stream=1 --prefetch-depth=2]
//       trains from a shard directory through a StreamingBatcher
//       (--stream=0 materializes the shards but keeps the identical
//       shard-planned batch order — the equivalence baseline).
//       [--steps=N] halts after N optimizer steps; [--loss-trace-out=f]
//       writes one per-step loss per line (%.17g) for bit-exactness diffs.
//   dcmt_cli evaluate --model=dcmt --ckpt=dcmt.ckpt --test=test.csv
//                     [--metrics-out=- --trace-out=trace.jsonl]
//   dcmt_cli predict  --model=dcmt --ckpt=dcmt.ckpt --input=test.csv
//                     --out=preds.csv
//   dcmt_cli check-graph [--model=all] [--batch=64]
//       statically validates the autograd tape of one model (or every
//       registered model) on a synthetic batch before any training is spent
//       on it; also reachable as `dcmt_cli --check-graph`.
//   dcmt_cli serve-bench [--model=dcmt --ckpt=dcmt.ckpt] [--requests=20000]
//                        [--max-batch=256 --threads=N]
//                        [--metrics-out=metrics.prom]
//       loadgen against the serve::Engine micro-batcher: freezes the model
//       (from a checkpoint, or fresh-initialized when --ckpt is omitted),
//       replays a deterministic synthetic request stream, and reports
//       throughput plus the engine's batching counters.
//   dcmt_cli router-bench [--model=dcmt --ckpt=dcmt.ckpt] [--engines=2]
//                         [--requests=2000 --clients=4 --max-batch=32]
//                         [--zipf-s=1.1 --swap=1 --overload=1]
//                         [--metrics-out=metrics.prom]
//       closed-loop loadgen against the sharded serve::Router (DESIGN.md
//       §16): Zipf users over consistent-hash engine routing, diurnal
//       pacing, a hot model swap mid-run (exits nonzero unless drop-free),
//       and a bounded-queue overload burst (exits nonzero unless shed).
//   dcmt_cli continual --work-dir=cont/ [--profile=ae-es --model=dcmt]
//                      [--days=7 --pvs=400 --candidates=30 --exposed=10
//                       --first-screen=5 --pretrain=6000]
//                      [--refresh=never|daily|intra --segments=2 --warm=1]
//                      [--lag-max=2 --lag-geom-p=0.55 --lag-uniform-w=0.25]
//                      [--drift=0 --epochs=2 --batch=256 --lr=0.01]
//                      [--engines=2 --rows-per-shard=4096 --prefetch=2]
//                      [--users=0 --items=0] [--sweep=0]
//                      [--metrics-out=metrics.prom]
//       runs the continual-training cycle (DESIGN.md §17): day-by-day
//       serving through the router, delayed-feedback logging, as-of
//       re-labelling, warm-started retraining, hot republish; prints the
//       per-day and staleness tables. --sweep=1 crosses refresh cadence
//       {never,daily,intra} x lag {0,--lag-max} into work-dir subdirs.
//
// The checkpoint format is architecture-checked: loading with mismatched
// --model or hyper-parameters fails loudly instead of mispredicting.

#include <algorithm>
// dcmt-lint: allow(concurrency) — router-bench counts drops across clients.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
// dcmt-lint: allow(concurrency) — router-bench holds future score tokens.
#include <future>
#include <memory>
#include <string>
// dcmt-lint: allow(concurrency) — router-bench drives a real client fleet.
#include <thread>
#include <vector>

#include "core/obs.h"
#include "core/registry.h"
#include "core/thread_pool.h"
#include "data/batcher.h"
#include "data/csv.h"
#include "data/profiles.h"
#include "data/shard.h"
#include "data/stream.h"
#include "eval/continual.h"
#include "eval/evaluator.h"
#include "eval/flags.h"
#include "eval/trainer.h"
#include "nn/graph_check.h"
#include "nn/serialize.h"
#include "serve/engine.h"
#include "serve/frozen_model.h"
#include "serve/router.h"
#include "tensor/random.h"

namespace {

using namespace dcmt;

int Usage() {
  std::fprintf(
      stderr,
      "usage: dcmt_cli "
      "<generate|gen-shards|train|evaluate|predict|check-graph|serve-bench|"
      "router-bench|continual> [--flags]\n"
      "run a subcommand with a bogus flag to list its options\n");
  return 2;
}

/// The int value of --`name`, which must be at least `min` (a count, a
/// batch size, a queue bound or a width). Anything smaller exits 2 the way
/// a value that does not parse does, instead of being clamped or reaching
/// a library abort.
int IntFlagAtLeast(const eval::Flags& flags, const std::string& name,
                   int min) {
  const int value = flags.GetInt(name);
  if (value < min) {
    std::fprintf(stderr,
                 "invalid value for --%s: '%s' (must be at least %d)\n",
                 name.c_str(), flags.Get(name).c_str(), min);
    std::exit(2);
  }
  return value;
}

/// The double value of --`name`, which must be positive and finite (a
/// learning rate). Zero, a negative value, nan and inf exit 2.
double PositiveFiniteFlag(const eval::Flags& flags, const std::string& name) {
  const double value = flags.GetDouble(name);
  if (!(value > 0.0) || !std::isfinite(value)) {
    std::fprintf(stderr,
                 "invalid value for --%s: '%s' (must be positive and finite)\n",
                 name.c_str(), flags.Get(name).c_str());
    std::exit(2);
  }
  return value;
}

/// The double value of --`name`, which must lie in [0, 1) (a held-out
/// fraction). Anything else, nan included, exits 2.
double FractionFlag(const eval::Flags& flags, const std::string& name) {
  const double value = flags.GetDouble(name);
  if (!(value >= 0.0 && value < 1.0)) {
    std::fprintf(stderr, "invalid value for --%s: '%s' (must be in [0, 1))\n",
                 name.c_str(), flags.Get(name).c_str());
    std::exit(2);
  }
  return value;
}

/// Applies the shared --threads flag (0 = DCMT_THREADS env / hardware
/// default) before any tensor work runs.
void ApplyThreadsFlag(const eval::Flags& flags) {
  core::ThreadPool::Global().SetNumThreads(flags.GetInt("threads"));
}

/// Turns recording on when either observability output is requested
/// (--metrics-out/--trace-out, "-" = stdout for the metrics dump). Call
/// before the subcommand does any instrumented work.
void ApplyObsFlags(const eval::Flags& flags) {
  if (!flags.Get("metrics-out").empty() || !flags.Get("trace-out").empty()) {
    obs::SetEnabled(true);
  }
}

/// Writes the Prometheus-style metrics dump and/or the JSON-lines trace the
/// run accumulated. Returns 0, or 1 if an output path is unwritable.
int WriteObsOutputs(const eval::Flags& flags) {
  const std::string metrics_out = flags.Get("metrics-out");
  const std::string trace_out = flags.Get("trace-out");
  if (!metrics_out.empty() &&
      !obs::Registry::Global().WriteMetricsFile(metrics_out)) {
    std::fprintf(stderr, "cannot write metrics to %s\n", metrics_out.c_str());
    return 1;
  }
  if (!trace_out.empty() && !obs::Registry::Global().WriteTraceFile(trace_out)) {
    std::fprintf(stderr, "cannot write trace to %s\n", trace_out.c_str());
    return 1;
  }
  return 0;
}

models::ModelConfig ModelConfigFromFlags(const eval::Flags& flags) {
  models::ModelConfig config;
  config.embedding_dim = IntFlagAtLeast(flags, "embedding-dim", 1);
  config.lambda1 = static_cast<float>(flags.GetDouble("lambda1"));
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
  return config;
}

int Generate(int argc, char** argv) {
  const eval::Flags flags(argc, argv,
                          {{"profile", "ae-es"}, {"split", "train"}, {"out", ""}});
  if (flags.Get("out").empty()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 2;
  }
  data::SyntheticLogGenerator generator(data::ProfileByName(flags.Get("profile")));
  const data::Dataset dataset = flags.Get("split") == "test"
                                    ? generator.GenerateTest()
                                    : generator.GenerateTrain();
  if (!data::WriteCsv(dataset, flags.Get("out"))) {
    std::fprintf(stderr, "generate: cannot write %s\n", flags.Get("out").c_str());
    return 1;
  }
  const data::DatasetStats stats = dataset.Stats();
  std::printf("wrote %lld exposures (%lld clicks, %lld conversions) to %s\n",
              static_cast<long long>(stats.exposures),
              static_cast<long long>(stats.clicks),
              static_cast<long long>(stats.conversions), flags.Get("out").c_str());
  return 0;
}

int GenShardsCmd(int argc, char** argv) {
  const eval::Flags flags(argc, argv,
                          {{"profile", "ae-es"},
                           {"split", "train"},
                           {"exposures", "0"},
                           {"shard-rows", "262144"},
                           {"out-dir", ""}});
  if (flags.Get("out-dir").empty()) {
    std::fprintf(stderr, "gen-shards: --out-dir is required\n");
    return 2;
  }
  data::SyntheticLogGenerator generator(data::ProfileByName(flags.Get("profile")));
  const bool test_split = flags.Get("split") == "test";
  // Stream ids match GenerateTrain()/GenerateTest(), so a shard directory
  // holds exactly the rows the in-RAM split would — bit for bit.
  const std::uint64_t stream = test_split ? 2 : 1;
  std::int64_t count = flags.GetInt("exposures");
  if (count <= 0) {
    count = test_split ? generator.profile().test_exposures
                       : generator.profile().train_exposures;
  }
  data::ShardWriterConfig config;
  config.rows_per_shard = IntFlagAtLeast(flags, "shard-rows", 1);
  std::string error;
  if (!generator.GenerateToShards(flags.Get("out-dir"), count, stream, config,
                                  &error)) {
    std::fprintf(stderr, "gen-shards: %s\n", error.c_str());
    return 1;
  }
  data::ShardManifest manifest;
  if (!data::ReadManifest(nullptr, flags.Get("out-dir"), &manifest, &error)) {
    std::fprintf(stderr, "gen-shards: written directory fails validation: %s\n",
                 error.c_str());
    return 1;
  }
  std::int64_t clicks = 0;
  std::int64_t conversions = 0;
  for (const data::ShardInfo& shard : manifest.shards) {
    clicks += shard.clicks;
    conversions += shard.conversions;
  }
  std::printf(
      "wrote %lld exposures (%lld clicks, %lld conversions) as %zu shards "
      "to %s\n",
      static_cast<long long>(manifest.total_rows()),
      static_cast<long long>(clicks), static_cast<long long>(conversions),
      manifest.shards.size(), flags.Get("out-dir").c_str());
  return 0;
}

/// Writes one "%.17g" loss per line — enough digits to round-trip a double,
/// so diffing two trace files proves (or refutes) bit-identical training.
bool WriteLossTrace(const std::string& path, const std::vector<double>& losses) {
  std::ofstream out(path);
  if (!out) return false;
  for (const double loss : losses) {
    char line[48];
    std::snprintf(line, sizeof(line), "%.17g\n", loss);
    out << line;
  }
  return out.good();
}

int TrainCmd(int argc, char** argv) {
  const eval::Flags flags(argc, argv,
                          {{"model", "dcmt"},
                           {"train", ""},
                           {"train-shards", ""},
                           {"stream", "1"},
                           {"prefetch-depth", "2"},
                           {"ckpt", ""},
                           {"epochs", "4"},
                           {"batch", "1024"},
                           {"lr", "0.01"},
                           {"lambda1", "1.0"},
                           {"embedding-dim", "16"},
                           {"weight-decay", "0.0001"},
                           {"val-fraction", "0"},
                           {"patience", "0"},
                           {"seed", "7"},
                           {"threads", "0"},
                           {"steps", "0"},
                           {"loss-trace-out", ""},
                           {"checkpoint-dir", ""},
                           {"checkpoint-every", "0"},
                           {"resume", "0"},
                           {"metrics-out", ""},
                           {"trace-out", ""}});
  const bool from_shards = !flags.Get("train-shards").empty();
  if (flags.Get("ckpt").empty() ||
      from_shards == !flags.Get("train").empty()) {
    std::fprintf(stderr,
                 "train: --ckpt and exactly one of --train / --train-shards "
                 "are required\n");
    return 2;
  }
  ApplyThreadsFlag(flags);
  ApplyObsFlags(flags);

  eval::TrainConfig config;
  config.epochs = IntFlagAtLeast(flags, "epochs", 1);
  config.batch_size = IntFlagAtLeast(flags, "batch", 1);
  const int prefetch_depth = IntFlagAtLeast(flags, "prefetch-depth", 0);
  config.learning_rate = static_cast<float>(PositiveFiniteFlag(flags, "lr"));
  config.weight_decay = static_cast<float>(flags.GetDouble("weight-decay"));
  config.validation_fraction = FractionFlag(flags, "val-fraction");
  config.early_stopping_patience = flags.GetInt("patience");
  config.verbose = true;
  config.halt_after_steps = flags.GetInt("steps");
  config.record_step_loss = !flags.Get("loss-trace-out").empty();
  // Crash-safe training state: with --checkpoint-dir the trainer rewrites
  // <dir>/train_state.ckpt atomically as it goes, and --resume=1 picks a run
  // back up bit-exactly after a crash (at the same fixed thread count).
  config.checkpoint_dir = flags.Get("checkpoint-dir");
  config.checkpoint_every = flags.GetInt("checkpoint-every");
  config.resume = flags.GetInt("resume") != 0;
  if (config.resume && config.checkpoint_dir.empty()) {
    std::fprintf(stderr, "train: --resume requires --checkpoint-dir\n");
    return 2;
  }

  std::unique_ptr<models::MultiTaskModel> model;
  eval::TrainHistory history;
  if (from_shards) {
    // Out-of-core path (DESIGN.md §15): batches stream from the shard
    // directory; only the current + prefetched shards are ever decoded.
    if (config.validation_fraction > 0.0) {
      std::fprintf(stderr,
                   "train: --val-fraction requires an in-RAM --train set "
                   "(a shard stream has no tail to hold out)\n");
      return 2;
    }
    data::StreamingDataset dataset;
    std::string error;
    if (!data::StreamingDataset::Open(flags.Get("train-shards"), {}, &dataset,
                                      &error)) {
      std::fprintf(stderr, "train: %s\n", error.c_str());
      return 1;
    }
    model = core::CreateModel(flags.Get("model"), dataset.schema(),
                              ModelConfigFromFlags(flags));
    Rng shuffle_rng(config.seed);
    if (flags.GetInt("stream") != 0) {
      data::StreamingBatcher batcher(&dataset, config.batch_size, &shuffle_rng,
                                     prefetch_depth);
      history = eval::TrainFromSource(model.get(), &batcher, &shuffle_rng,
                                      config);
    } else {
      // Equivalence baseline: materialize the shards but keep the identical
      // shard-planned epoch order, so the loss trace must match --stream=1.
      data::Dataset materialized;
      if (!dataset.Materialize(&materialized, &error)) {
        std::fprintf(stderr, "train: %s\n", error.c_str());
        return 1;
      }
      data::Batcher batcher(&materialized, config.batch_size, &shuffle_rng,
                            dataset.ShardRowCounts());
      history = eval::TrainFromSource(model.get(), &batcher, &shuffle_rng,
                                      config);
    }
  } else {
    data::Dataset train;
    if (!data::ReadCsv(flags.Get("train"), &train)) {
      std::fprintf(stderr, "train: cannot read %s\n", flags.Get("train").c_str());
      return 1;
    }
    model = core::CreateModel(flags.Get("model"), train.schema(),
                              ModelConfigFromFlags(flags));
    history = eval::Train(model.get(), train, config);
  }

  if (!history.error.empty()) {
    std::fprintf(stderr, "train: %s; no checkpoint written\n",
                 history.error.c_str());
    return 1;
  }
  if (!nn::SaveParameters(*model, flags.Get("ckpt"))) {
    std::fprintf(stderr, "train: cannot write checkpoint %s\n",
                 flags.Get("ckpt").c_str());
    return 1;
  }
  if (config.record_step_loss &&
      !WriteLossTrace(flags.Get("loss-trace-out"), history.step_loss)) {
    std::fprintf(stderr, "train: cannot write loss trace %s\n",
                 flags.Get("loss-trace-out").c_str());
    return 1;
  }
  std::printf("trained %s for %lld steps (%.1fs, final epoch %d); checkpoint %s\n",
              model->name().c_str(), static_cast<long long>(history.steps),
              history.seconds, history.final_epoch, flags.Get("ckpt").c_str());
  return WriteObsOutputs(flags);
}

int EvaluateCmd(int argc, char** argv) {
  const eval::Flags flags(argc, argv,
                          {{"model", "dcmt"},
                           {"ckpt", ""},
                           {"test", ""},
                           {"lambda1", "1.0"},
                           {"embedding-dim", "16"},
                           {"seed", "7"},
                           {"threads", "0"},
                           {"metrics-out", ""},
                           {"trace-out", ""}});
  if (flags.Get("ckpt").empty() || flags.Get("test").empty()) {
    std::fprintf(stderr, "evaluate: --ckpt and --test are required\n");
    return 2;
  }
  ApplyThreadsFlag(flags);
  ApplyObsFlags(flags);
  data::Dataset test;
  if (!data::ReadCsv(flags.Get("test"), &test)) {
    std::fprintf(stderr, "evaluate: cannot read %s\n", flags.Get("test").c_str());
    return 1;
  }
  auto model =
      core::CreateModel(flags.Get("model"), test.schema(), ModelConfigFromFlags(flags));
  if (!nn::LoadParameters(model.get(), flags.Get("ckpt"))) {
    std::fprintf(stderr,
                 "evaluate: checkpoint %s does not match model '%s' "
                 "(architecture or hyper-parameters differ)\n",
                 flags.Get("ckpt").c_str(), flags.Get("model").c_str());
    return 1;
  }
  const eval::EvalResult r = eval::Evaluate(model.get(), test);
  std::printf("CVR AUC (clicked)  %.4f\n", r.cvr_auc_clicked);
  std::printf("CVR PR-AUC         %.4f\n", r.cvr_pr_auc_clicked);
  std::printf("CTCVR AUC          %.4f\n", r.ctcvr_auc);
  std::printf("CTCVR GAUC         %.4f\n", r.ctcvr_gauc);
  std::printf("CTR AUC            %.4f\n", r.ctr_auc);
  std::printf("CVR AUC (oracle D) %.4f\n", r.cvr_auc_oracle);
  std::printf("mean pCVR over D   %.4f\n", r.mean_cvr_pred);
  return WriteObsOutputs(flags);
}

int PredictCmd(int argc, char** argv) {
  const eval::Flags flags(argc, argv,
                          {{"model", "dcmt"},
                           {"ckpt", ""},
                           {"input", ""},
                           {"out", ""},
                           {"lambda1", "1.0"},
                           {"embedding-dim", "16"},
                           {"seed", "7"},
                           {"threads", "0"}});
  if (flags.Get("ckpt").empty() || flags.Get("input").empty() ||
      flags.Get("out").empty()) {
    std::fprintf(stderr, "predict: --ckpt, --input and --out are required\n");
    return 2;
  }
  ApplyThreadsFlag(flags);
  data::Dataset input;
  if (!data::ReadCsv(flags.Get("input"), &input)) {
    std::fprintf(stderr, "predict: cannot read %s\n", flags.Get("input").c_str());
    return 1;
  }
  auto model =
      core::CreateModel(flags.Get("model"), input.schema(), ModelConfigFromFlags(flags));
  if (!nn::LoadParameters(model.get(), flags.Get("ckpt"))) {
    std::fprintf(stderr, "predict: checkpoint mismatch for model '%s'\n",
                 flags.Get("model").c_str());
    return 1;
  }
  const eval::PredictionLog log = eval::Predict(model.get(), input);
  std::ofstream out(flags.Get("out"));
  if (!out) {
    std::fprintf(stderr, "predict: cannot write %s\n", flags.Get("out").c_str());
    return 1;
  }
  out << "pctr,pcvr,pctcvr\n";
  for (std::size_t i = 0; i < log.cvr.size(); ++i) {
    char line[96];
    std::snprintf(line, sizeof(line), "%.6g,%.6g,%.6g\n", log.ctr[i], log.cvr[i],
                  log.ctcvr[i]);
    out << line;
  }
  std::printf("wrote %zu predictions to %s\n", log.cvr.size(),
              flags.Get("out").c_str());
  return 0;
}

/// Builds each requested model on a synthetic batch, constructs one
/// forward/loss tape, and runs nn::CheckGraph over it — catching shape
/// bugs, missing backward closures, and unreachable parameters without
/// spending a single optimizer step. Returns 0 only if every model's tape
/// validates.
int CheckGraphCmd(int argc, char** argv) {
  const eval::Flags flags(argc, argv,
                          {{"model", "all"},
                           {"profile", "ae-es"},
                           {"batch", "64"},
                           {"embedding-dim", "16"},
                           {"lambda1", "1.0"},
                           {"seed", "7"}});
  data::DatasetProfile profile = data::ProfileByName(flags.Get("profile"));
  const int batch_size = IntFlagAtLeast(flags, "batch", 1);
  // A few batches worth of exposures is plenty: the tape's structure does
  // not depend on the batch contents, only on the schema and model.
  profile.train_exposures = std::max(batch_size, 64);
  profile.test_exposures = 1;
  data::SyntheticLogGenerator generator(profile);
  const data::Dataset dataset = generator.GenerateTrain();
  const data::Batch batch = data::MakeContiguousBatch(
      dataset, 0,
      static_cast<int>(std::min<std::int64_t>(batch_size, dataset.size())));

  std::vector<std::string> names;
  if (flags.Get("model") == "all") {
    names = core::ExtendedModelNames();
  } else {
    names.push_back(flags.Get("model"));
  }

  int failures = 0;
  for (const std::string& name : names) {
    auto model =
        core::CreateModel(name, dataset.schema(), ModelConfigFromFlags(flags));
    const models::Predictions preds = model->Forward(batch);
    const Tensor loss = model->Loss(batch, preds);
    const nn::GraphCheckResult result =
        nn::CheckGraph(loss, model->parameters());
    if (result.ok()) {
      std::printf("check-graph %-12s OK (%d nodes, %zu params)\n", name.c_str(),
                  result.nodes_visited, model->parameters().size());
    } else {
      ++failures;
      std::printf("check-graph %-12s FAILED\n%s", name.c_str(),
                  result.Report().c_str());
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "check-graph: %d model(s) with malformed tapes\n",
                 failures);
    return 1;
  }
  return 0;
}

/// Load-generates against the serving engine: a deterministic stream of
/// (user, item) score requests is replayed through serve::Engine in bounded
/// windows (so outstanding futures stay capped), and the run reports wall
/// throughput plus the engine's own batching counters. With --ckpt the
/// frozen model comes from a v2 checkpoint; without, it serves the freshly
/// initialized model (useful for pure engine-overhead measurements).
int ServeBenchCmd(int argc, char** argv) {
  const eval::Flags flags(argc, argv,
                          {{"model", "dcmt"},
                           {"ckpt", ""},
                           {"profile", "ae-es"},
                           {"requests", "20000"},
                           {"window", "4096"},
                           {"max-batch", "256"},
                           {"queue-capacity", "4096"},
                           {"embedding-dim", "16"},
                           {"lambda1", "1.0"},
                           {"seed", "7"},
                           {"threads", "0"},
                           {"metrics-out", ""},
                           {"trace-out", ""}});
  ApplyThreadsFlag(flags);
  ApplyObsFlags(flags);
  data::SyntheticLogGenerator generator(data::ProfileByName(flags.Get("profile")));

  std::unique_ptr<serve::FrozenModel> frozen;
  if (!flags.Get("ckpt").empty()) {
    frozen = serve::FrozenModel::Load(flags.Get("model"), generator.Schema(),
                                      ModelConfigFromFlags(flags),
                                      flags.Get("ckpt"));
    if (frozen == nullptr) {
      std::fprintf(stderr,
                   "serve-bench: checkpoint %s does not match model '%s'\n",
                   flags.Get("ckpt").c_str(), flags.Get("model").c_str());
      return 1;
    }
  } else {
    frozen = std::make_unique<serve::FrozenModel>(
        core::CreateModel(flags.Get("model"), generator.Schema(),
                          ModelConfigFromFlags(flags)),
        generator.Schema());
  }

  // Flags are read before the engine starts: a bad one exits, and must not
  // do so with a dispatcher thread running.
  serve::EngineConfig engine_config;
  engine_config.max_batch = IntFlagAtLeast(flags, "max-batch", 1);
  engine_config.queue_capacity = IntFlagAtLeast(flags, "queue-capacity", 1);
  const int total = flags.GetInt("requests");
  const int window = IntFlagAtLeast(flags, "window", 1);
  serve::Engine engine(frozen.get(), engine_config);

  const auto& profile = generator.profile();
  Rng traffic(static_cast<std::uint64_t>(flags.GetInt("seed")) ^
              0x5e7fe11aULL);
  const std::int64_t t0 = obs::NowNanos();
  double checksum = 0.0;
  int sent = 0;
  while (sent < total) {
    const int count = std::min(window, total - sent);
    std::vector<data::Example> rows;
    rows.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      const int user = static_cast<int>(traffic.NextBounded(profile.num_users));
      const int item = static_cast<int>(traffic.NextBounded(profile.num_items));
      rows.push_back(generator.MakeExample(user, item, /*position=*/0));
    }
    for (const serve::Score& score : engine.ScoreAll(rows)) {
      checksum += score.pctcvr;
    }
    sent += count;
  }
  const double seconds = static_cast<double>(obs::NowNanos() - t0) * 1e-9;
  engine.Shutdown();

  const serve::EngineStats stats = engine.stats();
  std::printf("serve-bench model=%s requests=%d threads=%d\n",
              frozen->name().c_str(), total,
              core::ThreadPool::Global().num_threads());
  std::printf("  wall            %.3f s (%.0f req/s, %.1f us/req)\n", seconds,
              static_cast<double>(total) / seconds,
              seconds * 1e6 / static_cast<double>(total));
  std::printf("  batches         %lld (mean size %.1f, max %lld)\n",
              static_cast<long long>(stats.batches),
              stats.batches > 0
                  ? static_cast<double>(stats.scored) /
                        static_cast<double>(stats.batches)
                  : 0.0,
              static_cast<long long>(stats.max_batch_scored));
  std::printf("  batches taken   full=%lld partial=%lld drain=%lld\n",
              static_cast<long long>(stats.flushed_full),
              static_cast<long long>(stats.flushed_deadline),
              static_cast<long long>(stats.flushed_drain));
  std::printf("  max queue depth %lld\n",
              static_cast<long long>(stats.max_queue_depth));
  std::printf("  checksum        %.6f\n", checksum);
  return WriteObsOutputs(flags);
}

/// `dcmt_cli router-bench` — closed-loop load against the sharded router
/// tier (DESIGN.md §16): Zipf-distributed users, a compressed diurnal rate
/// curve, a hot model swap mid-run (verified drop-free), and an overload
/// burst at well past saturation (verified to shed, not queue unboundedly).
/// Exits nonzero when any closed-loop request is dropped or the overload
/// phase fails to shed — the run doubles as the tier-1 router demo.
int RouterBenchCmd(int argc, char** argv) {
  const eval::Flags flags(argc, argv,
                          {{"model", "dcmt"},
                           {"ckpt", ""},
                           {"profile", "ae-es"},
                           {"requests", "2000"},
                           {"clients", "4"},
                           {"engines", "2"},
                           {"max-batch", "32"},
                           {"queue-capacity", "4096"},
                           {"zipf-s", "1.1"},
                           {"swap", "1"},
                           {"overload", "1"},
                           {"embedding-dim", "16"},
                           {"lambda1", "1.0"},
                           {"seed", "7"},
                           {"threads", "0"},
                           {"metrics-out", ""},
                           {"trace-out", ""}});
  ApplyThreadsFlag(flags);
  ApplyObsFlags(flags);
  data::SyntheticLogGenerator generator(
      data::ProfileByName(flags.Get("profile")));

  // Version factory: checkpointed runs serve the checkpoint (every version
  // identical in weights — the swap still exercises the full protocol);
  // fresh runs differentiate versions by seed.
  auto make_version =
      [&](int version) -> std::unique_ptr<serve::FrozenModel> {
    if (!flags.Get("ckpt").empty()) {
      return serve::FrozenModel::Load(flags.Get("model"), generator.Schema(),
                                      ModelConfigFromFlags(flags),
                                      flags.Get("ckpt"));
    }
    models::ModelConfig config = ModelConfigFromFlags(flags);
    config.seed += static_cast<std::uint64_t>(version);
    return std::make_unique<serve::FrozenModel>(
        core::CreateModel(flags.Get("model"), generator.Schema(), config),
        generator.Schema());
  };
  std::unique_ptr<serve::FrozenModel> initial = make_version(0);
  if (initial == nullptr) {
    std::fprintf(stderr,
                 "router-bench: checkpoint %s does not match model '%s'\n",
                 flags.Get("ckpt").c_str(), flags.Get("model").c_str());
    return 1;
  }

  // Flags are read before the engines start: a bad one exits, and must not
  // do so with dispatcher threads running.
  serve::RouterConfig router_config;
  router_config.num_engines = IntFlagAtLeast(flags, "engines", 1);
  router_config.engine.max_batch = IntFlagAtLeast(flags, "max-batch", 1);
  router_config.engine.queue_capacity =
      IntFlagAtLeast(flags, "queue-capacity", 1);
  const int total = IntFlagAtLeast(flags, "requests", 1);
  // No client without a request to send.
  const int clients = std::min(IntFlagAtLeast(flags, "clients", 1), total);
  serve::Router router(std::move(initial), router_config);

  // Zipf CDF over the user population: a few hot users dominate, so the
  // engines that own them carry more of the load.
  const double zipf_s = flags.GetDouble("zipf-s");
  const auto& profile = generator.profile();
  std::vector<double> zipf_cdf;
  zipf_cdf.reserve(static_cast<std::size_t>(profile.num_users));
  double zipf_total = 0.0;
  for (int k = 0; k < profile.num_users; ++k) {
    zipf_total += 1.0 / std::pow(static_cast<double>(k + 1), zipf_s);
    zipf_cdf.push_back(zipf_total);
  }
  for (double& c : zipf_cdf) c /= zipf_total;

  const bool do_swap = flags.GetInt("swap") != 0;

  // --- Phase 1: closed-loop clients, diurnal pacing, mid-run hot swap. -----
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  // dcmt-lint: allow(concurrency) — cross-client drop counter.
  std::atomic<std::int64_t> dropped{0};
  const std::int64_t t0 = obs::NowNanos();
  {
    // dcmt-lint: allow(concurrency) — the client fleet is the load model.
    std::vector<std::thread> fleet;
    fleet.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      fleet.emplace_back([&, c] {
        Rng rng(static_cast<std::uint64_t>(flags.GetInt("seed")) * 1000003 +
                static_cast<std::uint64_t>(c));
        std::vector<double>& mine = latencies[static_cast<std::size_t>(c)];
        // Exactly `total` requests: the first total % clients clients send
        // one more than the rest.
        const int count = total / clients + (c < total % clients ? 1 : 0);
        mine.reserve(static_cast<std::size_t>(count));
        for (int i = 0; i < count; ++i) {
          // Compressed diurnal curve: one "day" per 200 requests; off-peak
          // the client idles up to ~200us between requests.
          const double phase = 2.0 * M_PI * static_cast<double>(i) / 200.0;
          const int pause_us =
              static_cast<int>(100.0 * (1.0 - std::sin(phase)));
          if (pause_us > 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(pause_us));
          }
          const double u = static_cast<double>(rng.Uniform());
          const int user = static_cast<int>(
              std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
              zipf_cdf.begin());
          const int item =
              static_cast<int>(rng.NextBounded(profile.num_items));
          const data::Example row = generator.MakeExample(user, item, 0);
          const std::int64_t start = obs::NowNanos();
          const serve::Score score = router.Submit(row).get();
          if (score.ok()) {
            mine.push_back(static_cast<double>(obs::NowNanos() - start) *
                           1e-9);
          } else {
            dropped.fetch_add(1);
          }
        }
      });
    }
    if (do_swap) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      std::unique_ptr<const serve::FrozenModel> retired =
          router.Swap(make_version(1));
      // retired destroyed here: safe, every pinned batch was fulfilled.
    }
    // dcmt-lint: allow(concurrency) — joining the client fleet.
    for (std::thread& client : fleet) client.join();
  }
  const double wall = static_cast<double>(obs::NowNanos() - t0) * 1e-9;

  std::vector<double> all;
  for (const auto& part : latencies) {
    all.insert(all.end(), part.begin(), part.end());
  }
  std::sort(all.begin(), all.end());
  auto quantile = [&](double q) {
    if (all.empty()) return 0.0;
    return all[std::min(all.size() - 1,
                        static_cast<std::size_t>(
                            q * static_cast<double>(all.size())))];
  };

  const serve::RouterStats stats = router.stats();
  std::printf("router-bench model=%s engines=%d clients=%d requests=%d\n",
              flags.Get("model").c_str(), router.num_engines(), clients,
              total);
  std::printf("  wall            %.3f s (%.0f req/s)\n", wall,
              static_cast<double>(all.size()) / wall);
  std::printf("  latency         p50=%.0fus p99=%.0fus p999=%.0fus\n",
              quantile(0.50) * 1e6, quantile(0.99) * 1e6,
              quantile(0.999) * 1e6);
  std::printf("  swaps           %lld (drop-free: %s)\n",
              static_cast<long long>(stats.swaps),
              dropped.load() == 0 ? "yes" : "NO");
  if (dropped.load() != 0) {
    std::fprintf(stderr,
                 "router-bench: %lld dropped/errored requests during the "
                 "closed loop (hot swap must be drop-free)\n",
                 static_cast<long long>(dropped.load()));
    return 1;
  }

  // --- Phase 2: overload burst far past saturation must shed. --------------
  if (flags.GetInt("overload") != 0) {
    serve::RouterConfig overload_config = router_config;
    overload_config.num_engines = 1;
    overload_config.engine.queue_capacity = 64;
    // One row per batch and a burst 16x the queue: a tight submit loop
    // enqueues far faster than the dispatcher scores single rows, so the
    // burst outruns the drain and hits the bounded queue head-on, the way
    // well-past-saturation arrival rates do.
    overload_config.engine.max_batch = 1;
    std::unique_ptr<serve::FrozenModel> overload_model = make_version(0);
    if (overload_model == nullptr) return 1;
    serve::Router overload_router(std::move(overload_model), overload_config);
    const int burst = 16 * overload_config.engine.queue_capacity;
    Rng rng(99);
    std::vector<data::Example> burst_rows;
    burst_rows.reserve(static_cast<std::size_t>(burst));
    for (int i = 0; i < burst; ++i) {
      const int user = static_cast<int>(rng.NextBounded(profile.num_users));
      const int item = static_cast<int>(rng.NextBounded(profile.num_items));
      burst_rows.push_back(generator.MakeExample(user, item, 0));
    }
    // dcmt-lint: allow(concurrency) — future tokens carry burst outcomes.
    std::vector<std::future<serve::Score>> outcomes;
    outcomes.reserve(static_cast<std::size_t>(burst));
    for (const data::Example& row : burst_rows) {
      outcomes.push_back(overload_router.Submit(row));
    }
    overload_router.Shutdown();  // drains whatever was accepted
    std::int64_t shed = 0, served = 0;
    for (auto& outcome : outcomes) {
      const serve::Score score = outcome.get();
      if (score.status == serve::ServeStatus::kRejectedOverload) {
        ++shed;
      } else if (score.ok()) {
        ++served;
      }
    }
    const serve::RouterStats ostats = overload_router.stats();
    std::printf("  overload        burst=%d served=%lld shed=%lld "
                "(max queue depth %lld <= capacity %d)\n",
                burst, static_cast<long long>(served),
                static_cast<long long>(shed),
                static_cast<long long>(ostats.per_engine[0].max_queue_depth),
                overload_config.engine.queue_capacity);
    if (shed == 0) {
      std::fprintf(stderr,
                   "router-bench: overload burst was not shed — bounded "
                   "queue policy is broken\n");
      return 1;
    }
  }
  return WriteObsOutputs(flags);
}

/// `dcmt_cli continual` — the deployment cycle of DESIGN.md §17 end to end:
/// a pretrained model serves day 0 through the router; each day's exposures
/// are logged with delayed conversion attribution; at every refresh the
/// matured rows are re-labelled, the model is retrained (warm-started from
/// the previous refresh) and hot-swapped under live traffic. Prints the
/// per-day serving table and the staleness aggregation; --sweep=1 crosses
/// refresh cadences with lag on/off to expose the staleness cost directly.
int ContinualCmd(int argc, char** argv) {
  const eval::Flags flags(argc, argv,
                          {{"profile", "ae-es"},
                           {"model", "dcmt"},
                           {"days", "7"},
                           {"pvs", "400"},
                           {"candidates", "30"},
                           {"exposed", "10"},
                           {"first-screen", "5"},
                           {"pretrain", "6000"},
                           {"refresh", "daily"},
                           {"segments", "2"},
                           {"warm", "1"},
                           {"lag-max", "2"},
                           {"lag-geom-p", "0.55"},
                           {"lag-uniform-w", "0.25"},
                           {"drift", "0"},
                           {"epochs", "2"},
                           {"batch", "256"},
                           {"lr", "0.01"},
                           {"lambda1", "1.0"},
                           {"embedding-dim", "16"},
                           {"users", "0"},
                           {"items", "0"},
                           {"seed", "7"},
                           {"engines", "2"},
                           {"rows-per-shard", "4096"},
                           {"prefetch", "2"},
                           {"work-dir", ""},
                           {"sweep", "0"},
                           {"threads", "0"},
                           {"metrics-out", ""},
                           {"trace-out", ""}});
  if (flags.Get("work-dir").empty()) {
    std::fprintf(stderr, "continual: --work-dir is required\n");
    return 2;
  }
  ApplyThreadsFlag(flags);
  ApplyObsFlags(flags);

  data::DatasetProfile profile = data::ProfileByName(flags.Get("profile"));
  // Optional population overrides keep smoke runs (and CI) fast without a
  // dedicated miniature profile.
  if (flags.GetInt("users") > 0) profile.num_users = flags.GetInt("users");
  if (flags.GetInt("items") > 0) profile.num_items = flags.GetInt("items");

  eval::ContinualConfig base;
  base.ab.days = IntFlagAtLeast(flags, "days", 1);
  base.ab.page_views_per_day = IntFlagAtLeast(flags, "pvs", 1);
  base.ab.candidates_per_pv = IntFlagAtLeast(flags, "candidates", 1);
  base.ab.exposed_per_pv = IntFlagAtLeast(flags, "exposed", 1);
  base.ab.first_screen = IntFlagAtLeast(flags, "first-screen", 1);
  base.ab.seed = static_cast<std::uint64_t>(flags.GetInt("seed")) + 801;
  base.ab.conversion_drift_scale =
      static_cast<float>(flags.GetDouble("drift"));
  base.variant = flags.Get("model");
  base.model = ModelConfigFromFlags(flags);
  base.train.epochs = IntFlagAtLeast(flags, "epochs", 1);
  base.train.batch_size = IntFlagAtLeast(flags, "batch", 1);
  base.train.learning_rate = static_cast<float>(PositiveFiniteFlag(flags, "lr"));
  base.train.seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
  base.pretrain_exposures = IntFlagAtLeast(flags, "pretrain", 1);
  base.intra_day_segments = IntFlagAtLeast(flags, "segments", 2);
  base.warm_start = flags.GetInt("warm") != 0;
  base.rows_per_shard = IntFlagAtLeast(flags, "rows-per-shard", 1);
  base.router_engines = IntFlagAtLeast(flags, "engines", 1);
  base.prefetch_depth = IntFlagAtLeast(flags, "prefetch", 0);
  const int lag_max = IntFlagAtLeast(flags, "lag-max", 0);

  const auto parse_cadence =
      [](const std::string& name, eval::RefreshCadence* out) {
        if (name == "never") *out = eval::RefreshCadence::kNever;
        else if (name == "daily") *out = eval::RefreshCadence::kDaily;
        else if (name == "intra") *out = eval::RefreshCadence::kIntraDay;
        else return false;
        return true;
      };

  const auto lag_config = [&](int max_lag) {
    data::ConversionLagConfig lag;
    lag.max_lag_days = max_lag;
    lag.geometric_p = static_cast<float>(flags.GetDouble("lag-geom-p"));
    lag.uniform_weight =
        static_cast<float>(flags.GetDouble("lag-uniform-w"));
    return lag;
  };

  // Runs one configuration and prints its tables; returns the mean CVR AUC
  // over days >= 1 (day 0 is always fresh, so it dilutes the comparison).
  const auto run_one = [&](eval::RefreshCadence cadence, int max_lag,
                           const std::string& work_dir) {
    eval::ContinualConfig config = base;
    config.refresh = cadence;
    config.ab.lag = lag_config(max_lag);
    config.work_dir = work_dir;
    data::DatasetProfile run_profile = profile;
    run_profile.conversion_lag = config.ab.lag;
    data::SyntheticLogGenerator generator(run_profile);
    eval::ContinualLoop loop(&generator, config);
    const eval::ContinualResult result = loop.Run();
    std::printf("%s\n%s\n", result.RenderDayTable().c_str(),
                result.RenderStalenessTable().c_str());
    std::printf("swaps=%lld retrains=%lld steps=%lld dropped=%lld\n",
                static_cast<long long>(result.swaps),
                static_cast<long long>(result.retrains),
                static_cast<long long>(result.total_steps),
                static_cast<long long>(result.dropped_requests));
    double auc_sum = 0.0;
    int auc_days = 0;
    for (const eval::ContinualDayResult& day : result.days) {
      if (day.day == 0) continue;
      auc_sum += day.cvr_auc;
      ++auc_days;
    }
    return auc_days > 0 ? auc_sum / auc_days : 0.0;
  };

  if (flags.GetInt("sweep") != 0) {
    // Cadence x lag cross: the staleness cost of each refresh policy, with
    // and without delayed feedback in the logs.
    const std::pair<const char*, eval::RefreshCadence> cadences[] = {
        {"never", eval::RefreshCadence::kNever},
        {"daily", eval::RefreshCadence::kDaily},
        {"intra", eval::RefreshCadence::kIntraDay}};
    const int lags[] = {0, lag_max};
    struct SweepCell {
      std::string name;
      double mean_cvr_auc;
    };
    std::vector<SweepCell> cells;
    for (const auto& [cadence_name, cadence] : cadences) {
      for (const int max_lag : lags) {
        char name[64];
        std::snprintf(name, sizeof(name), "%s-lag%d", cadence_name, max_lag);
        std::printf("== refresh=%s lag-max=%d ==\n", cadence_name, max_lag);
        const double mean = run_one(
            cadence, max_lag, flags.Get("work-dir") + "/" + name);
        cells.push_back({name, mean});
      }
    }
    std::printf("sweep summary (mean CVR AUC, days >= 1):\n");
    for (const SweepCell& cell : cells) {
      std::printf("  %-14s %.4f\n", cell.name.c_str(), cell.mean_cvr_auc);
    }
    return WriteObsOutputs(flags);
  }

  eval::RefreshCadence cadence;
  if (!parse_cadence(flags.Get("refresh"), &cadence)) {
    std::fprintf(stderr,
                 "continual: --refresh must be never, daily or intra\n");
    return 2;
  }
  run_one(cadence, lag_max, flags.Get("work-dir"));
  return WriteObsOutputs(flags);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const char* cmd = argv[1];
  // Shift argv so subcommands parse only their own flags.
  argv[1] = argv[0];
  if (std::strcmp(cmd, "generate") == 0) return Generate(argc - 1, argv + 1);
  if (std::strcmp(cmd, "gen-shards") == 0) {
    return GenShardsCmd(argc - 1, argv + 1);
  }
  if (std::strcmp(cmd, "train") == 0) return TrainCmd(argc - 1, argv + 1);
  if (std::strcmp(cmd, "evaluate") == 0) return EvaluateCmd(argc - 1, argv + 1);
  if (std::strcmp(cmd, "predict") == 0) return PredictCmd(argc - 1, argv + 1);
  if (std::strcmp(cmd, "check-graph") == 0 ||
      std::strcmp(cmd, "--check-graph") == 0) {
    return CheckGraphCmd(argc - 1, argv + 1);
  }
  if (std::strcmp(cmd, "serve-bench") == 0) {
    return ServeBenchCmd(argc - 1, argv + 1);
  }
  if (std::strcmp(cmd, "router-bench") == 0) {
    return RouterBenchCmd(argc - 1, argv + 1);
  }
  if (std::strcmp(cmd, "continual") == 0) {
    return ContinualCmd(argc - 1, argv + 1);
  }
  return Usage();
}
