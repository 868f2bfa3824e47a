#include "eval/continual.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "core/obs.h"
#include "core/registry.h"
#include "data/shard.h"
#include "data/stream.h"
#include "eval/table.h"
#include "metrics/metrics.h"
#include "nn/serialize.h"
#include "serve/frozen_model.h"
#include "serve/router.h"

namespace dcmt {
namespace eval {
namespace {

std::string CkptDir(const std::string& work, int retrain) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/ckpt/r%03d", retrain);
  return work + buf;
}

std::string AsofDir(const std::string& work, int retrain) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/asof-r%03d", retrain);
  return work + buf;
}

std::string SegmentLogDir(const std::string& work, int day, int segment) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/log-d%03d-s%d", day, segment);
  return work + buf;
}

/// One day-segment log directory, tagged with its exposure day (the day the
/// rows were logged, from which maturity is computed).
struct LoggedSegment {
  std::string dir;
  int day = 0;
};

/// Composition counters of one as-of training set rebuild.
struct AsofStats {
  std::int64_t rows = 0;
  std::int64_t fake_negatives = 0;
  std::int64_t relabeled = 0;
};

}  // namespace

std::string ContinualResult::RenderDayTable() const {
  AsciiTable table({"day", "stale", "pv_ctr", "pv_cvr", "cvr_auc", "pvcvr_auc",
                    "clicks", "conv", "pending", "fake_neg", "relabeled",
                    "steps"});
  for (const ContinualDayResult& d : days) {
    table.AddRow({std::to_string(d.day), std::to_string(d.days_since_refresh),
                  AsciiTable::Num(d.metrics.pv_ctr),
                  AsciiTable::Num(d.metrics.pv_cvr), AsciiTable::Num(d.cvr_auc),
                  AsciiTable::Num(d.pv_cvr_auc),
                  std::to_string(d.metrics.clicks),
                  std::to_string(d.metrics.conversions),
                  std::to_string(d.metrics.pending_conversions),
                  std::to_string(d.fake_negatives), std::to_string(d.relabeled),
                  std::to_string(d.retrain_steps)});
  }
  return table.Render();
}

std::string ContinualResult::RenderStalenessTable() const {
  AsciiTable table({"staleness_days", "days", "cvr_auc", "pvcvr_auc",
                    "d_cvr_auc", "d_pvcvr_auc"});
  for (const StalenessRow& row : staleness) {
    table.AddRow({std::to_string(row.days_since_refresh),
                  std::to_string(row.days), AsciiTable::Num(row.cvr_auc),
                  AsciiTable::Num(row.pv_cvr_auc),
                  AsciiTable::Num(row.delta_cvr_auc),
                  AsciiTable::Num(row.delta_pv_cvr_auc)});
  }
  return table.Render();
}

ContinualLoop::ContinualLoop(data::SyntheticLogGenerator* generator,
                             ContinualConfig config)
    : generator_(generator), config_(std::move(config)) {}

ContinualResult ContinualLoop::Run() {
  if (config_.work_dir.empty()) {
    std::fprintf(stderr, "[continual] work_dir is required\n");
    std::abort();
  }
  core::FileSystem* fs =
      config_.fs != nullptr ? config_.fs : core::FileSystem::Default();
  const data::FeatureSchema schema = generator_->Schema();
  const AbConfig& ab = config_.ab;

  obs::Registry& obs_registry = obs::Registry::Global();
  obs::Counter obs_days = obs_registry.counter("dcmt_continual_days_total");
  obs::Counter obs_retrains =
      obs_registry.counter("dcmt_continual_retrains_total");
  obs::Counter obs_swaps = obs_registry.counter("dcmt_continual_swaps_total");
  obs::Counter obs_relabeled =
      obs_registry.counter("dcmt_continual_relabeled_total");
  obs::Counter obs_fake_negatives =
      obs_registry.counter("dcmt_continual_fake_negatives_total");
  obs::Counter obs_dropped =
      obs_registry.counter("dcmt_continual_dropped_requests_total");

  ContinualResult result;

  data::ShardWriterConfig shard_config;
  shard_config.rows_per_shard = config_.rows_per_shard;
  shard_config.fs = config_.fs;
  data::StreamingConfig stream_config;
  stream_config.fs = config_.fs;

  // --- Pretrain corpus: historical exposures, conversions fully matured. ---
  const std::string pretrain_dir = config_.work_dir + "/pretrain";
  {
    std::string error;
    if (!generator_->GenerateToShards(pretrain_dir, config_.pretrain_exposures,
                                      /*stream=*/9001, shard_config, &error)) {
      std::fprintf(stderr, "[continual] pretrain generation failed: %s\n",
                   error.c_str());
      std::abort();
    }
  }

  std::vector<LoggedSegment> logged;

  // Rebuilds retrain r's as-of training set: pretrain rows verbatim plus
  // every logged segment with each row's observed label re-derived from its
  // maturity at horizon `matured_through` — a logged conversion is visible
  // iff log_day + lag <= matured_through. `prev_matured_through` is the
  // previous refresh's horizon, against which label flips are counted.
  const auto build_asof = [&](int retrain, int matured_through,
                              int prev_matured_through,
                              AsofStats* stats) -> std::string {
    const std::string dir = AsofDir(config_.work_dir, retrain);
    if (!fs->CreateDirectories(dir)) {
      std::fprintf(stderr, "[continual] cannot create %s\n", dir.c_str());
      std::abort();
    }
    data::ShardWriter writer(dir, schema, shard_config);
    const auto append_dir = [&](const std::string& src, int log_day) {
      data::StreamingDataset source;
      std::string error;
      if (!data::StreamingDataset::Open(src, stream_config, &source, &error)) {
        std::fprintf(stderr, "[continual] cannot open log %s: %s\n",
                     src.c_str(), error.c_str());
        std::abort();
      }
      data::ShardColumns columns;
      for (int s = 0; s < source.num_shards(); ++s) {
        if (!source.ReadShard(s, &columns, &error)) {
          std::fprintf(stderr, "[continual] cannot read log %s: %s\n",
                       src.c_str(), error.c_str());
          std::abort();
        }
        if (log_day >= 0) {
          for (std::size_t r = 0; r < columns.conversion.size(); ++r) {
            const bool eventual = columns.conversion[r] != 0;
            const int arrival = log_day + columns.convert_lag_days[r];
            const bool matured = eventual && arrival <= matured_through;
            if (eventual && !matured) ++stats->fake_negatives;
            if (matured && arrival > prev_matured_through) ++stats->relabeled;
            columns.conversion[r] = matured ? 1 : 0;
          }
        }
        writer.Append(columns);
        stats->rows += columns.size();
      }
    };
    append_dir(pretrain_dir, /*log_day=*/-1);
    for (const LoggedSegment& segment : logged) {
      append_dir(segment.dir, segment.day);
    }
    if (!writer.Finish()) {
      std::fprintf(stderr, "[continual] as-of set write failed: %s\n",
                   writer.error().c_str());
      std::abort();
    }
    return dir;
  };

  int retrain_index = -1;
  int prev_matured = -1;

  // One refresh: rebuild the as-of set, train (resume-aware, optionally
  // warm-started from the previous refresh's checkpoint), honoring the
  // global step budget. Returns null when the budget halts the loop.
  const auto retrain = [&](int matured_through, AsofStats* stats,
                           TrainHistory* history)
      -> std::unique_ptr<models::MultiTaskModel> {
    ++retrain_index;
    if (config_.halt_after_total_steps > 0 &&
        result.total_steps >= config_.halt_after_total_steps) {
      result.halted = true;
      return nullptr;
    }
    const std::string asof =
        build_asof(retrain_index, matured_through, prev_matured, stats);
    prev_matured = matured_through;

    data::StreamingDataset dataset;
    std::string error;
    if (!data::StreamingDataset::Open(asof, stream_config, &dataset, &error)) {
      std::fprintf(stderr, "[continual] cannot open as-of set %s: %s\n",
                   asof.c_str(), error.c_str());
      std::abort();
    }
    std::unique_ptr<models::MultiTaskModel> model =
        core::CreateModel(config_.variant, schema, config_.model);

    TrainConfig train_config = config_.train;
    train_config.fs = config_.fs;
    train_config.validation_fraction = 0.0;
    train_config.early_stopping_patience = 0;
    train_config.checkpoint_dir = CkptDir(config_.work_dir, retrain_index);
    train_config.resume = true;
    train_config.warm_start_dir =
        (config_.warm_start && retrain_index > 0)
            ? CkptDir(config_.work_dir, retrain_index - 1)
            : "";
    if (config_.halt_after_total_steps > 0) {
      train_config.halt_after_steps =
          config_.halt_after_total_steps - result.total_steps;
    }

    Rng shuffle_rng(train_config.seed);
    data::StreamingBatcher batcher(&dataset, train_config.batch_size,
                                   &shuffle_rng, config_.prefetch_depth);
    *history = TrainFromSource(model.get(), &batcher, &shuffle_rng,
                               train_config);
    if (!history->error.empty()) {
      std::fprintf(stderr, "[continual] refresh %d diverged: %s\n",
                   retrain_index, history->error.c_str());
      std::abort();
    }
    result.total_steps += history->steps;
    if (train_config.halt_after_steps > 0 &&
        history->steps >= train_config.halt_after_steps) {
      // The budget expired mid-refresh: like a kill, there is no final
      // checkpoint and the new version is never published.
      result.halted = true;
      return nullptr;
    }
    ++result.retrains;
    obs_retrains.Inc();
    return model;
  };

  // --- Serving tier: one Router fleet, hot-swapped on every refresh. -------
  serve::RouterConfig router_config;
  router_config.num_engines = std::max(1, config_.router_engines);
  std::unique_ptr<serve::Router> router;

  const auto publish = [&](std::unique_ptr<models::MultiTaskModel> model) {
    auto frozen =
        std::make_unique<serve::FrozenModel>(std::move(model), schema);
    if (router == nullptr) {
      router = std::make_unique<serve::Router>(std::move(frozen),
                                               router_config);
    } else {
      router->Swap(std::move(frozen));  // drop-free; retired version freed
      ++result.swaps;
      obs_swaps.Inc();
    }
  };

  /// Refresh provenance of the currently-serving version, attached to every
  /// day it serves.
  struct RefreshInfo {
    AsofStats asof;
    std::int64_t steps = 0;
    double seconds = 0.0;
  };
  RefreshInfo current;

  // --- Day 0 model: pretrain (retrain 0 over the historical corpus). -------
  {
    AsofStats stats;
    TrainHistory history;
    std::unique_ptr<models::MultiTaskModel> model =
        retrain(/*matured_through=*/-1, &stats, &history);
    if (model == nullptr) return result;  // budget exhausted before serving
    // The pretrained weights are persisted standalone so the lag=0
    // equivalence test can replay them through the static A/B simulator.
    if (!nn::SaveParameters(*model, config_.work_dir + "/model-pretrain.ckpt",
                            config_.fs)) {
      std::fprintf(stderr, "[continual] cannot save pretrain parameters\n");
      std::abort();
    }
    publish(std::move(model));
    current = {stats, history.steps, history.seconds};
  }

  int last_refresh_day = 0;
  const int segments = config_.refresh == RefreshCadence::kIntraDay
                           ? std::max(1, config_.intra_day_segments)
                           : 1;

  for (int day = 0; day < ab.days && !result.halted; ++day) {
    if (config_.refresh != RefreshCadence::kNever && day > 0) {
      // Day-boundary refresh: train on everything matured through yesterday.
      AsofStats stats;
      TrainHistory history;
      std::unique_ptr<models::MultiTaskModel> model =
          retrain(day - 1, &stats, &history);
      if (model == nullptr) break;
      publish(std::move(model));
      current = {stats, history.steps, history.seconds};
      last_refresh_day = day;
    }

    const DayTraffic traffic = BuildDayTraffic(*generator_, ab, day);
    const std::size_t num_pvs = traffic.stream.size();
    DayTally day_tally;
    std::vector<ExposureOutcome> day_log;
    bool day_complete = true;

    for (int segment = 0; segment < segments; ++segment) {
      if (segment > 0) {
        // Intra-day refresh: horizon `day` also surfaces today's already
        // logged lag-0 conversions.
        AsofStats stats;
        TrainHistory history;
        std::unique_ptr<models::MultiTaskModel> model =
            retrain(day, &stats, &history);
        if (model == nullptr) {
          day_complete = false;
          break;
        }
        publish(std::move(model));
        current = {stats, history.steps, history.seconds};
        last_refresh_day = day;
      }
      const std::size_t pv_begin =
          num_pvs * static_cast<std::size_t>(segment) /
          static_cast<std::size_t>(segments);
      const std::size_t pv_end =
          num_pvs * static_cast<std::size_t>(segment + 1) /
          static_cast<std::size_t>(segments);

      // Score the segment's deduplicated rows through the live router.
      const ScoringPlan plan =
          BuildScoringPlan(*generator_, traffic, pv_begin, pv_end);
      std::vector<float> unique_pctcvr(plan.unique_rows.size(), 0.0f);
      std::vector<float> unique_pcvr(plan.unique_rows.size(), 0.0f);
      for (std::size_t i = 0; i < plan.unique_rows.size(); ++i) {
        const serve::Score score = router->ScoreSync(plan.unique_rows[i]);
        if (!score.ok()) {
          ++result.dropped_requests;
          obs_dropped.Inc();
          continue;
        }
        unique_pctcvr[i] = score.pctcvr;
        unique_pcvr[i] = score.pcvr;
      }
      std::vector<float> slot_pctcvr;
      std::vector<float> slot_pcvr;
      slot_pctcvr.reserve(plan.slot_to_row.size());
      slot_pcvr.reserve(plan.slot_to_row.size());
      for (const std::size_t row : plan.slot_to_row) {
        slot_pctcvr.push_back(unique_pctcvr[row]);
        slot_pcvr.push_back(unique_pcvr[row]);
      }

      std::vector<ExposureOutcome> segment_log;
      RollDayOutcomes(*generator_, ab, day, traffic, pv_begin, pv_end,
                      slot_pctcvr, slot_pcvr, &day_tally, &segment_log);

      // Persist the segment's log through the sharded streaming path —
      // eventual labels plus the lag, from which every later refresh
      // re-derives the as-of observed label.
      const std::string log_dir =
          SegmentLogDir(config_.work_dir, day, segment);
      if (!fs->CreateDirectories(log_dir)) {
        std::fprintf(stderr, "[continual] cannot create %s\n", log_dir.c_str());
        std::abort();
      }
      data::ShardWriter log_writer(log_dir, schema, shard_config);
      for (const ExposureOutcome& outcome : segment_log) {
        data::Example row = generator_->MakeExample(
            traffic.stream[outcome.pv].user, outcome.item, outcome.slot);
        row.click = outcome.clicked ? 1 : 0;
        row.oracle_conversion = outcome.oracle ? 1 : 0;
        row.conversion = outcome.converted ? 1 : 0;
        row.convert_lag_days = outcome.lag_days;
        row.true_ctr = outcome.p_click;
        row.true_cvr = outcome.p_conv;  // drifted ground truth
        log_writer.Append(row);
      }
      if (!log_writer.Finish()) {
        std::fprintf(stderr, "[continual] log write to %s failed: %s\n",
                     log_dir.c_str(), log_writer.error().c_str());
        std::abort();
      }
      logged.push_back({log_dir, day});
      day_log.insert(day_log.end(), segment_log.begin(), segment_log.end());
    }
    if (!day_complete) break;

    ContinualDayResult day_result;
    day_result.day = day;
    day_result.days_since_refresh = day - last_refresh_day;
    day_result.metrics =
        FinalizeDayMetrics(day_tally, static_cast<std::int64_t>(num_pvs));

    // Serving-quality AUCs against the oracle (no maturation wait — the
    // oracle labels are the point of the synthetic SCM).
    std::vector<float> pcvr_clicked, pctcvr_all;
    std::vector<std::uint8_t> oracle_clicked, converted_all;
    for (const ExposureOutcome& outcome : day_log) {
      pctcvr_all.push_back(outcome.pctcvr);
      converted_all.push_back(outcome.converted ? 1 : 0);
      if (outcome.clicked) {
        pcvr_clicked.push_back(outcome.pcvr);
        oracle_clicked.push_back(outcome.oracle ? 1 : 0);
      }
    }
    day_result.cvr_auc = metrics::Auc(pcvr_clicked, oracle_clicked);
    day_result.pv_cvr_auc = metrics::Auc(pctcvr_all, converted_all);
    day_result.train_rows = current.asof.rows;
    day_result.fake_negatives = current.asof.fake_negatives;
    day_result.relabeled = current.asof.relabeled;
    day_result.retrain_steps = current.steps;
    day_result.retrain_seconds = current.seconds;
    result.days.push_back(day_result);

    obs_days.Inc();
    obs_relabeled.Inc(current.asof.relabeled);
    obs_fake_negatives.Inc(current.asof.fake_negatives);
  }

  // --- Staleness table: day-level AUC bucketed by model age. ---------------
  std::vector<StalenessRow> buckets(static_cast<std::size_t>(ab.days));
  for (const ContinualDayResult& d : result.days) {
    StalenessRow& row = buckets[static_cast<std::size_t>(d.days_since_refresh)];
    row.days_since_refresh = d.days_since_refresh;
    ++row.days;
    row.cvr_auc += d.cvr_auc;
    row.pv_cvr_auc += d.pv_cvr_auc;
  }
  for (StalenessRow& row : buckets) {
    if (row.days == 0) continue;
    row.cvr_auc /= static_cast<double>(row.days);
    row.pv_cvr_auc /= static_cast<double>(row.days);
    result.staleness.push_back(row);
  }
  const StalenessRow* fresh = nullptr;
  for (const StalenessRow& row : result.staleness) {
    if (row.days_since_refresh == 0) fresh = &row;
  }
  if (fresh != nullptr) {
    for (StalenessRow& row : result.staleness) {
      row.delta_cvr_auc = row.cvr_auc - fresh->cvr_auc;
      row.delta_pv_cvr_auc = row.pv_cvr_auc - fresh->pv_cvr_auc;
      obs_registry
          .gauge("dcmt_continual_delta_cvr_auc{staleness=\"" +
                 std::to_string(row.days_since_refresh) + "\"}")
          .Set(row.delta_cvr_auc);
      obs_registry
          .gauge("dcmt_continual_delta_pv_cvr_auc{staleness=\"" +
                 std::to_string(row.days_since_refresh) + "\"}")
          .Set(row.delta_pv_cvr_auc);
    }
  }
  return result;
}

}  // namespace eval
}  // namespace dcmt
