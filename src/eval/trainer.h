#ifndef DCMT_EVAL_TRAINER_H_
#define DCMT_EVAL_TRAINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/batcher.h"
#include "data/dataset.h"
#include "models/multi_task_model.h"
#include "tensor/random.h"

namespace dcmt {
namespace core {
class FileSystem;
}  // namespace core

namespace eval {

/// Optimization settings (paper Section IV-A2: Adam, lr 1e-3, batch 1024,
/// ≤5 epochs, λ2 = 1e-4). Our scaled default is 3 epochs; benches pass 5
/// where time allows.
struct TrainConfig {
  int epochs = 3;
  int batch_size = 1024;
  float learning_rate = 1e-3f;
  /// λ2 of Eq. (14), applied as coupled L2 weight decay in Adam.
  float weight_decay = 1e-4f;
  /// Global gradient-norm clip (0 disables). Guards the IPW losses' heavy
  /// tails early in training.
  float grad_clip = 10.0f;
  /// Shuffling seed (parameter init is seeded via ModelConfig).
  std::uint64_t seed = 42;
  bool verbose = false;

  /// Fraction of the training set held out as a validation split (taken
  /// from the tail, like the paper's chronological Alipay split). 0 = off.
  double validation_fraction = 0.0;
  /// With a validation split: stop after this many epochs without CVR-AUC
  /// improvement and restore the best-epoch parameters. 0 disables early
  /// stopping (validation is still tracked in the history).
  int early_stopping_patience = 0;

  // --- Crash-safe checkpointing (DESIGN.md §10) ---------------------------
  /// Directory for full training-state checkpoints ("" = disabled). The
  /// trainer atomically rewrites `<dir>/train_state.ckpt` every
  /// `checkpoint_every` steps, at every epoch end (which covers best-epoch
  /// improvements), and once more when training completes.
  std::string checkpoint_dir;
  /// Optimizer steps between mid-epoch checkpoints (0 = epoch ends only).
  int checkpoint_every = 0;
  /// Resume from `checkpoint_dir`'s checkpoint when one exists and matches
  /// this exact setup (config + architecture + dataset size); otherwise
  /// train from scratch. A resumed run replays the remaining schedule
  /// bit-exactly at a fixed thread count.
  bool resume = false;
  /// Stop abruptly after this many optimizer steps, like a crash: no final
  /// checkpoint, incomplete history. 0 = run to completion. Drives the
  /// crash-resume tests and doubles as a step budget.
  std::int64_t halt_after_steps = 0;
  /// Warm start (DESIGN.md §17): before the first step, seed the model
  /// parameters and Adam moments from `<warm_start_dir>/train_state.ckpt` —
  /// the previous continual-training refresh — instead of the fresh
  /// initialization. Unlike `resume`, nothing else carries over: the run
  /// keeps its own schedule, shuffle stream, and learning rate (which is
  /// re-anchored to `learning_rate` after the import). The checkpoint's
  /// model-variant fingerprint must match this model's, or training aborts
  /// with the mismatch spelled out. Ignored ("" = off) and skipped when a
  /// same-setup resume from `checkpoint_dir` already restored mid-run state
  /// (resume is strictly more specific).
  std::string warm_start_dir;
  /// File-system seam for checkpoint I/O (null = the real file system).
  core::FileSystem* fs = nullptr;

  /// Record every optimizer step's loss in TrainHistory::step_loss. Drives
  /// the streaming-vs-in-RAM bit-identical loss-trace proof (tier-1 stream
  /// stage); off by default because a full-scale run would log millions of
  /// doubles. Per-process: a resumed run records only its own steps.
  bool record_step_loss = false;
};

/// Per-epoch training record.
struct TrainHistory {
  std::vector<double> epoch_loss;  // mean batch loss per epoch
  /// Per-epoch validation CVR AUC (empty without a validation split).
  std::vector<double> validation_cvr_auc;
  /// Epoch whose parameters the model ended up with (last epoch unless early
  /// stopping restored an earlier one). 0-based; -1 if no epochs ran.
  int final_epoch = -1;
  std::int64_t steps = 0;
  /// Per-step batch losses (only with TrainConfig::record_step_loss).
  std::vector<double> step_loss;
  /// Training wall-clock, excluding time spent in validation Evaluate passes
  /// (so the number reflects train throughput honestly).
  double seconds = 0.0;
  /// Empty unless training stopped early on a diverged run: a non-finite
  /// step loss ends training before that step's backward and update, with
  /// "non-finite loss <v> at epoch <e> step <s>" (1-based; s counts steps
  /// from the start of the run). The loss is still appended to step_loss.
  std::string error;
};

/// Trains `model` on `train` with Adam. Deterministic given (model seed,
/// config seed, dataset). With config.validation_fraction > 0, the split is
/// carved off the tail of `train` before any shuffling.
TrainHistory Train(models::MultiTaskModel* model, const data::Dataset& train,
                   const TrainConfig& config);

/// Trains `model` from an arbitrary BatchSource — typically a
/// data::StreamingBatcher over an out-of-core shard directory, or an in-RAM
/// Batcher built with the matching shard plan for equivalence runs. The
/// source must already be seeded; `shuffle_rng` is the Rng driving its
/// per-epoch shuffles (checkpointed alongside, exactly as in Train). The
/// setup fingerprint uses source->size(), so a streaming run and an in-RAM
/// run over the same shards share checkpoints. validation_fraction must be
/// 0 — a streaming source has no materialized tail to hold out. If the
/// source fails mid-epoch (shard corruption, I/O error) training aborts
/// loudly rather than finishing an epoch on silently truncated data.
TrainHistory TrainFromSource(models::MultiTaskModel* model,
                             data::BatchSource* source, Rng* shuffle_rng,
                             const TrainConfig& config);

}  // namespace eval
}  // namespace dcmt

#endif  // DCMT_EVAL_TRAINER_H_
