// Crash-safety tests for the training checkpoint subsystem:
//   * a run killed at an arbitrary step (simulated crash) and resumed from
//     its last checkpoint finishes bit-identical to an uninterrupted run,
//     at 1 thread and at a fixed higher thread count;
//   * torn checkpoint writes (fault-injected) never damage the previous
//     checkpoint, so resume still works;
//   * a deterministic mutation fuzzer over saved checkpoints (truncations
//     at every record boundary, byte flips over the whole file, bad
//     magic/version, unknown records) shows the loader always rejects
//     cleanly and never partially mutates the model, optimizer, batcher or
//     RNG.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "nn/serialize.h"

#include <gtest/gtest.h>

#include "core/dcmt.h"
#include "core/io.h"
#include "core/thread_pool.h"
#include "data/generator.h"
#include "eval/checkpointer.h"
#include "eval/trainer.h"
#include "optim/adam.h"
#include "tensor/random.h"

namespace dcmt {
namespace {

std::string TempDirFor(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  core::FileSystem::Default()->CreateDirectories(dir);
  return dir;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileOrDie(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  ASSERT_TRUE(out.good());
}

data::Dataset MakeTrainSet() {
  data::DatasetProfile profile;
  profile.name = "ckpt";
  profile.num_users = 50;
  profile.num_items = 80;
  profile.train_exposures = 400;
  profile.test_exposures = 100;
  profile.target_click_rate = 0.25;
  profile.target_cvr_given_click = 0.3;
  profile.seed = 77;
  return data::SyntheticLogGenerator(profile).GenerateTrain();
}

models::ModelConfig SmallModelConfig() {
  models::ModelConfig config;
  config.embedding_dim = 4;
  config.hidden_dims = {8, 4};
  config.seed = 11;
  return config;
}

/// 400 exposures, 25% validation tail, batch 64 -> 5 steps/epoch, 3 epochs
/// -> 15 optimizer steps total (fewer if early stopping fires).
eval::TrainConfig BaseTrainConfig() {
  eval::TrainConfig config;
  config.epochs = 3;
  config.batch_size = 64;
  config.validation_fraction = 0.25;
  config.early_stopping_patience = 2;
  config.seed = 5;
  return config;
}

/// RAII: pool width for a test, serial again afterwards.
class ThreadPoolWidth {
 public:
  explicit ThreadPoolWidth(int threads) {
    core::ThreadPool::Global().SetNumThreads(threads);
  }
  ~ThreadPoolWidth() { core::ThreadPool::Global().SetNumThreads(1); }
};

struct RunResult {
  std::vector<std::vector<float>> params;
  eval::TrainHistory history;
};

RunResult RunTraining(const data::Dataset& train, const eval::TrainConfig& tc) {
  core::Dcmt model(train.schema(), SmallModelConfig());
  RunResult result;
  result.history = eval::Train(&model, train, tc);
  for (const Tensor& p : model.parameters()) result.params.push_back(p.ToVector());
  return result;
}

void ExpectBitIdentical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.params.size(), b.params.size());
  for (std::size_t i = 0; i < a.params.size(); ++i) {
    EXPECT_EQ(a.params[i], b.params[i]) << "parameter " << i << " differs";
  }
  EXPECT_EQ(a.history.epoch_loss, b.history.epoch_loss);
  EXPECT_EQ(a.history.validation_cvr_auc, b.history.validation_cvr_auc);
  EXPECT_EQ(a.history.final_epoch, b.history.final_epoch);
  EXPECT_EQ(a.history.steps, b.history.steps);
}

/// Kills a run (halt_after_steps) at `crash_step`, then resumes it from the
/// last periodic checkpoint; returns the resumed run's final state.
RunResult CrashAndResume(const data::Dataset& train, const std::string& dir,
                         std::int64_t crash_step, int checkpoint_every) {
  eval::TrainConfig crashed = BaseTrainConfig();
  crashed.checkpoint_dir = dir;
  crashed.checkpoint_every = checkpoint_every;
  crashed.halt_after_steps = crash_step;
  const RunResult partial = RunTraining(train, crashed);
  EXPECT_LE(partial.history.steps, crash_step);

  eval::TrainConfig resumed = BaseTrainConfig();
  resumed.checkpoint_dir = dir;
  resumed.checkpoint_every = checkpoint_every;
  resumed.resume = true;
  return RunTraining(train, resumed);
}

TEST(CheckpointResumeTest, CrashResumeBitExactSingleThread) {
  core::ThreadPool::Global().SetNumThreads(1);
  const data::Dataset train = MakeTrainSet();
  const RunResult baseline = RunTraining(train, BaseTrainConfig());
  ASSERT_GT(baseline.history.steps, 10);

  // Offsets cover mid-epoch, an exact epoch boundary (5 steps/epoch), a
  // checkpoint boundary, and the penultimate step.
  for (const std::int64_t crash_step : {3, 5, 10, 14}) {
    const std::string dir =
        TempDirFor("resume_1thr_" + std::to_string(crash_step));
    const RunResult resumed = CrashAndResume(train, dir, crash_step,
                                             /*checkpoint_every=*/2);
    ExpectBitIdentical(baseline, resumed);
  }
}

TEST(CheckpointResumeTest, CrashResumeBitExactAtTwoThreads) {
  // PR 1's determinism contract: a fixed thread count reproduces itself.
  // Crash-resume must preserve that at any fixed width, not just 1.
  core::ThreadPool::Global().SetNumThreads(2);
  const data::Dataset train = MakeTrainSet();
  const RunResult baseline = RunTraining(train, BaseTrainConfig());
  for (const std::int64_t crash_step : {4, 9}) {
    const std::string dir =
        TempDirFor("resume_2thr_" + std::to_string(crash_step));
    const RunResult resumed = CrashAndResume(train, dir, crash_step,
                                             /*checkpoint_every=*/3);
    ExpectBitIdentical(baseline, resumed);
  }
  core::ThreadPool::Global().SetNumThreads(1);
}

TEST(CheckpointResumeTest, CrashResumeBitExactWithSplitBatches) {
  // Batch 1024 runs as four micro-batches (DESIGN.md §9); the tail batch of
  // each epoch (228 rows) does not split. 4400 exposures, 25% validation ->
  // 3300 train rows -> 4 steps per epoch, 2 epochs.
  ThreadPoolWidth width(4);
  data::DatasetProfile profile;
  profile.name = "ckpt_split";
  profile.num_users = 50;
  profile.num_items = 80;
  profile.train_exposures = 4400;
  profile.test_exposures = 1;
  profile.target_click_rate = 0.25;
  profile.target_cvr_given_click = 0.3;
  profile.seed = 78;
  const data::Dataset train = data::SyntheticLogGenerator(profile).GenerateTrain();
  eval::TrainConfig config = BaseTrainConfig();
  config.epochs = 2;
  config.batch_size = 1024;
  const RunResult baseline = RunTraining(train, config);
  ASSERT_EQ(baseline.history.steps, 8);
  for (const std::int64_t crash_step : {2, 5}) {  // mid-epoch in both epochs
    const std::string dir =
        TempDirFor("resume_split_" + std::to_string(crash_step));
    eval::TrainConfig crashed = config;
    crashed.checkpoint_dir = dir;
    crashed.checkpoint_every = 1;
    crashed.halt_after_steps = crash_step;
    const RunResult partial = RunTraining(train, crashed);
    EXPECT_EQ(partial.history.steps, crash_step);
    eval::TrainConfig resumed = config;
    resumed.checkpoint_dir = dir;
    resumed.checkpoint_every = 1;
    resumed.resume = true;
    ExpectBitIdentical(baseline, RunTraining(train, resumed));
  }
}

TEST(CheckpointResumeTest, SaveBeforeFirstBatchResumesBitExact) {
  // Regression for the batcher's first-epoch shuffle contract: the first
  // epoch is shuffled exactly once, at construction, so a checkpoint written
  // *before the first batch is ever drawn* already holds the order the first
  // epoch will train on. Resuming from such a pristine checkpoint must
  // reproduce the uninterrupted run bit-for-bit — at 1 thread and at the
  // fixed 2-thread width of the determinism contract.
  for (const int threads : {1, 2}) {
    core::ThreadPool::Global().SetNumThreads(threads);
    const data::Dataset train = MakeTrainSet();
    const RunResult baseline = RunTraining(train, BaseTrainConfig());

    // Reconstruct the exact training objects Train() builds, checkpoint them
    // untouched (epoch 0, step 0, zero batches), and throw them away.
    const std::string dir =
        TempDirFor("resume_pristine_" + std::to_string(threads) + "thr");
    eval::TrainConfig tc = BaseTrainConfig();
    tc.checkpoint_dir = dir;
    tc.resume = true;
    {
      const std::int64_t head =
          train.size() -
          static_cast<std::int64_t>(static_cast<double>(train.size()) *
                                    tc.validation_fraction);
      const auto [fit, val] = train.SplitAt(head);
      core::Dcmt model(train.schema(), SmallModelConfig());
      Rng shuffle_rng(tc.seed);
      data::Batcher batcher(&fit, tc.batch_size, &shuffle_rng);
      optim::Adam adam(model.parameters(), tc.learning_rate, 0.9f, 0.999f,
                       1e-8f, tc.weight_decay);
      eval::TrainCheckpointState state;
      state.fingerprint = eval::FingerprintTrainSetup(model, tc, fit.size());
      state.adam = adam.ExportState();
      state.shuffle_rng = shuffle_rng.state();
      state.batcher = batcher.SaveState();
      EXPECT_EQ(state.batcher.cursor, 0);
      EXPECT_TRUE(state.batcher.fresh_epoch);
      eval::Checkpointer checkpointer(dir);
      ASSERT_TRUE(checkpointer.Save(model, state));
    }

    const RunResult resumed = RunTraining(train, tc);
    // The whole run replays: same step count as the baseline, not a prefix.
    EXPECT_EQ(resumed.history.steps, baseline.history.steps);
    ExpectBitIdentical(baseline, resumed);
  }
  core::ThreadPool::Global().SetNumThreads(1);
}

TEST(CheckpointResumeTest, ResumeAfterCompletedRunIsANoOp) {
  core::ThreadPool::Global().SetNumThreads(1);
  const data::Dataset train = MakeTrainSet();
  const std::string dir = TempDirFor("resume_noop");
  eval::TrainConfig tc = BaseTrainConfig();
  tc.checkpoint_dir = dir;
  const RunResult finished = RunTraining(train, tc);

  tc.resume = true;
  const RunResult reloaded = RunTraining(train, tc);
  ExpectBitIdentical(finished, reloaded);
  EXPECT_EQ(reloaded.history.steps, finished.history.steps);
}

TEST(CheckpointResumeTest, TornCheckpointWritesKeepPreviousCheckpointUsable) {
  core::ThreadPool::Global().SetNumThreads(1);
  const data::Dataset train = MakeTrainSet();
  const RunResult baseline = RunTraining(train, BaseTrainConfig());

  const std::string dir = TempDirFor("resume_torn");
  // First checkpoint save succeeds; every later save dies 64 bytes in.
  core::FaultSpec spec;
  spec.fail_write_at = 64;
  spec.first_faulty_open = 1;
  core::FaultInjectingFileSystem faulty(spec);

  eval::TrainConfig crashed = BaseTrainConfig();
  crashed.checkpoint_dir = dir;
  crashed.checkpoint_every = 2;
  crashed.halt_after_steps = 6;
  crashed.fs = &faulty;
  RunTraining(train, crashed);
  // Saves attempted at steps 2 and 4, at the end of epoch 0 (5 steps/epoch),
  // and at step 6; only the first completed.
  EXPECT_EQ(faulty.writes_opened(), 4);

  // The surviving file must be the complete step-2 checkpoint; resuming from
  // it replays steps 3..15 and matches the uninterrupted run bit-for-bit.
  eval::TrainConfig resumed = BaseTrainConfig();
  resumed.checkpoint_dir = dir;
  resumed.resume = true;
  ExpectBitIdentical(baseline, RunTraining(train, resumed));
}

TEST(CheckpointResumeTest, CorruptCheckpointFallsBackToFreshTraining) {
  core::ThreadPool::Global().SetNumThreads(1);
  const data::Dataset train = MakeTrainSet();
  const RunResult baseline = RunTraining(train, BaseTrainConfig());

  const std::string dir = TempDirFor("resume_corrupt");
  eval::TrainConfig crashed = BaseTrainConfig();
  crashed.checkpoint_dir = dir;
  crashed.checkpoint_every = 2;
  crashed.halt_after_steps = 7;
  RunTraining(train, crashed);

  const std::string ckpt_path = dir + "/train_state.ckpt";
  std::string image = ReadFileOrDie(ckpt_path);
  image[image.size() / 2] ^= 0x40;
  WriteFileOrDie(ckpt_path, image);

  eval::TrainConfig resumed = BaseTrainConfig();
  resumed.checkpoint_dir = dir;
  resumed.resume = true;
  // The damaged checkpoint is rejected wholesale, so the "resumed" run is a
  // fresh run — identical to the baseline, not to some hybrid.
  ExpectBitIdentical(baseline, RunTraining(train, resumed));
}

TEST(CheckpointResumeTest, MismatchedConfigResumeFallsBackToFreshRun) {
  core::ThreadPool::Global().SetNumThreads(1);
  const data::Dataset train = MakeTrainSet();
  const std::string dir = TempDirFor("resume_mismatch");

  eval::TrainConfig original = BaseTrainConfig();
  original.checkpoint_dir = dir;
  RunTraining(train, original);

  // Same directory, different shuffle seed: the fingerprint must reject the
  // checkpoint and the run must equal a from-scratch run with the new seed.
  eval::TrainConfig reseeded = BaseTrainConfig();
  reseeded.seed = 999;
  const RunResult fresh = RunTraining(train, reseeded);

  reseeded.checkpoint_dir = dir;
  reseeded.resume = true;
  ExpectBitIdentical(fresh, RunTraining(train, reseeded));
}

// ---------------------------------------------------------------------------
// Corruption fuzzer over a real full training checkpoint.
// ---------------------------------------------------------------------------

class CheckpointCorruptionTest : public ::testing::Test {
 protected:
  /// Much smaller dataset/model than the resume tests: the byte-flip sweep
  /// re-parses the file once per mutated byte position, so a compact image
  /// keeps the fuzzer exhaustive *and* fast.
  data::Dataset FuzzTrainSet() {
    data::DatasetProfile profile;
    profile.name = "fuzz";
    profile.num_users = 8;
    profile.num_items = 12;
    profile.train_exposures = 48;
    profile.test_exposures = 16;
    profile.target_click_rate = 0.25;
    profile.target_cvr_given_click = 0.3;
    profile.seed = 31;
    return data::SyntheticLogGenerator(profile).GenerateTrain();
  }

  models::ModelConfig FuzzModelConfig() {
    models::ModelConfig config;
    config.embedding_dim = 2;
    config.hidden_dims = {4};
    config.seed = 11;
    return config;
  }

  void SetUp() override {
    core::ThreadPool::Global().SetNumThreads(1);
    train_ = FuzzTrainSet();
    // One directory per test case: ctest runs cases as parallel processes,
    // which must not clobber each other's checkpoint file.
    dir_ = TempDirFor(std::string("fuzz_") +
                      ::testing::UnitTest::GetInstance()->current_test_info()->name());
    path_ = dir_ + "/train_state.ckpt";

    // Build a nontrivial source state: model with seed A, one real Adam
    // step, a mid-epoch batcher, an RNG with a cached Box-Muller spare.
    core::Dcmt source(train_.schema(), FuzzModelConfig());
    Rng rng(9);
    rng.Normal();  // prime the spare so RngState round-trips all fields
    data::Batcher batcher(&train_, 16, &rng);
    data::Batch batch;
    ASSERT_TRUE(batcher.Next(&batch));
    optim::Adam adam(source.parameters(), 1e-3f);
    for (const Tensor& p : source.parameters()) {
      Tensor handle = p;
      float* g = handle.grad();
      for (std::int64_t i = 0; i < handle.size(); ++i) {
        g[i] = 0.01f * static_cast<float>(i % 7) - 0.02f;
      }
    }
    adam.Step();

    eval::TrainCheckpointState state;
    state.fingerprint = kFingerprint;
    state.epoch = 1;
    state.loss_sum = 1.5;
    state.batches = 2;
    state.steps = 7;
    state.final_epoch = 0;
    state.epoch_loss = {0.51};
    state.validation_cvr_auc = {0.62};
    state.best_val_auc = 0.62;
    state.best_epoch = 0;
    state.epochs_since_best = 0;
    for (const Tensor& p : source.parameters()) {
      state.best_snapshot.push_back(p.ToVector());
    }
    state.adam = adam.ExportState();
    state.shuffle_rng = rng.state();
    state.batcher = batcher.SaveState();

    eval::Checkpointer checkpointer(dir_);
    ASSERT_TRUE(checkpointer.Save(source, state));
    image_ = ReadFileOrDie(path_);
    ASSERT_GT(image_.size(), 64u);

    // Victim objects shared across all mutations of a test, so a test can
    // fuzz thousands of inputs without re-initializing a model each time.
    // They use a different model seed and RNG than the checkpoint, so any
    // partial application of checkpoint data changes them detectably.
    models::ModelConfig mc = FuzzModelConfig();
    mc.seed = 4242;
    victim_.emplace(train_.schema(), mc);
    victim_rng_.emplace(123);
    victim_batcher_.emplace(&train_, 16, &*victim_rng_);
    victim_adam_.emplace(victim_->parameters(), 1e-3f);
    for (const Tensor& p : victim_->parameters()) {
      params_before_.push_back(p.ToVector());
    }
    adam_before_ = victim_adam_->ExportState();
    batcher_before_ = victim_batcher_->SaveState();
    rng_before_ = victim_rng_->state();
  }

  /// Asserts that restoring the current file fails, with cheap spot checks
  /// that the shared victims were not touched. Tests that loop over many
  /// mutations end with VerifyVictimsPristine() for the exhaustive check —
  /// the victims persist, so any mutation sticks around to be caught there.
  void ExpectRejectedWithoutMutation(const std::string& label) {
    eval::Checkpointer checkpointer(dir_);
    eval::TrainCheckpointState restored;
    EXPECT_FALSE(checkpointer.Restore(kFingerprint, &*victim_, &*victim_adam_,
                                      &*victim_batcher_, &*victim_rng_,
                                      &restored))
        << label;
    ASSERT_EQ(victim_adam_->step_count(), adam_before_.step) << label;
    ASSERT_EQ(victim_rng_->state().s[0], rng_before_.s[0]) << label;
    ASSERT_EQ(victim_batcher_->SaveState().cursor, batcher_before_.cursor)
        << label;
  }

  /// Exhaustive comparison of every victim object against its initial state.
  void VerifyVictimsPristine() {
    std::size_t i = 0;
    for (const Tensor& p : victim_->parameters()) {
      ASSERT_EQ(p.ToVector(), params_before_[i]) << "mutated param " << i;
      ++i;
    }
    const optim::AdamState adam_after = victim_adam_->ExportState();
    EXPECT_EQ(adam_after.step, adam_before_.step);
    EXPECT_EQ(adam_after.m, adam_before_.m);
    EXPECT_EQ(adam_after.v, adam_before_.v);
    const data::BatcherState batcher_after = victim_batcher_->SaveState();
    EXPECT_EQ(batcher_after.order, batcher_before_.order);
    EXPECT_EQ(batcher_after.cursor, batcher_before_.cursor);
    const RngState rng_after = victim_rng_->state();
    for (int k = 0; k < 4; ++k) EXPECT_EQ(rng_after.s[k], rng_before_.s[k]);
    EXPECT_EQ(rng_after.has_spare_normal, rng_before_.has_spare_normal);
  }

  /// Byte offsets where each record starts, plus the end-of-file offset.
  std::vector<std::size_t> RecordBoundaries() const {
    std::vector<std::size_t> boundaries;
    std::size_t pos = 12;  // magic + version
    while (pos + 16 <= image_.size()) {
      boundaries.push_back(pos);
      std::uint64_t size = 0;
      std::memcpy(&size, image_.data() + pos + 4, sizeof(size));
      pos += 12 + static_cast<std::size_t>(size) + 4;
    }
    boundaries.push_back(image_.size());
    return boundaries;
  }

  static constexpr std::uint64_t kFingerprint = 0xF00DF00Du;

  data::Dataset train_;
  std::string dir_;
  std::string path_;

  std::optional<core::Dcmt> victim_;
  std::optional<Rng> victim_rng_;
  std::optional<data::Batcher> victim_batcher_;
  std::optional<optim::Adam> victim_adam_;
  std::vector<std::vector<float>> params_before_;
  optim::AdamState adam_before_;
  data::BatcherState batcher_before_;
  RngState rng_before_;
  std::string image_;
};

TEST_F(CheckpointCorruptionTest, PristineCheckpointRestores) {
  eval::Checkpointer checkpointer(dir_);
  eval::TrainCheckpointState restored;
  ASSERT_TRUE(checkpointer.Restore(kFingerprint, &*victim_, &*victim_adam_,
                                   &*victim_batcher_, &*victim_rng_, &restored));
  EXPECT_EQ(restored.epoch, 1);
  EXPECT_EQ(restored.steps, 7);
  EXPECT_EQ(restored.batches, 2);
  EXPECT_DOUBLE_EQ(restored.loss_sum, 1.5);
  EXPECT_EQ(restored.epoch_loss, std::vector<double>({0.51}));
  EXPECT_EQ(restored.best_epoch, 0);
  EXPECT_EQ(victim_adam_->step_count(), 1);
}

TEST_F(CheckpointCorruptionTest, WrongFingerprintRejected) {
  // Pristine bytes, wrong setup: rejected before any mutation.
  eval::Checkpointer checkpointer(dir_);
  eval::TrainCheckpointState restored;
  EXPECT_FALSE(checkpointer.Restore(0xBEEF, &*victim_, &*victim_adam_,
                                    &*victim_batcher_, &*victim_rng_,
                                    &restored));
  VerifyVictimsPristine();
}

TEST_F(CheckpointCorruptionTest, TruncationAtEveryRecordBoundaryRejected) {
  for (const std::size_t boundary : RecordBoundaries()) {
    if (boundary == image_.size()) continue;  // full file = pristine
    WriteFileOrDie(path_, image_.substr(0, boundary));
    ExpectRejectedWithoutMutation("truncated at record boundary " +
                                  std::to_string(boundary));
    // A few bytes past the boundary: a torn record header.
    const std::size_t mid = std::min(boundary + 5, image_.size() - 1);
    WriteFileOrDie(path_, image_.substr(0, mid));
    ExpectRejectedWithoutMutation("truncated mid-record at " +
                                  std::to_string(mid));
  }
  // Header-level truncations.
  for (const std::size_t len : {std::size_t{0}, std::size_t{4}, std::size_t{8},
                                std::size_t{11}}) {
    WriteFileOrDie(path_, image_.substr(0, len));
    ExpectRejectedWithoutMutation("truncated header at " + std::to_string(len));
  }
  VerifyVictimsPristine();
}

TEST_F(CheckpointCorruptionTest, ByteFlipsAcrossTheFileRejected) {
  // Deterministic sweep: flip one bit every `stride` bytes (two different
  // masks), covering magic, version, record headers, payloads and CRCs.
  const std::size_t stride = 7;
  for (std::size_t pos = 0; pos < image_.size(); pos += stride) {
    std::string mutated = image_;
    mutated[pos] ^= (pos % 2 == 0) ? 0x01 : 0x80;
    WriteFileOrDie(path_, mutated);
    ExpectRejectedWithoutMutation("byte flip at " + std::to_string(pos));
  }
  VerifyVictimsPristine();
}

TEST_F(CheckpointCorruptionTest, BadMagicAndVersionRejected) {
  for (int byte = 0; byte < 8; ++byte) {
    std::string mutated = image_;
    mutated[static_cast<std::size_t>(byte)] ^= 0xFF;
    WriteFileOrDie(path_, mutated);
    ExpectRejectedWithoutMutation("magic byte " + std::to_string(byte));
  }
  std::string wrong_version = image_;
  wrong_version[8] ^= 0x03;  // version 2 -> 1 (with a valid-looking file)
  WriteFileOrDie(path_, wrong_version);
  ExpectRejectedWithoutMutation("wrong version");
  VerifyVictimsPristine();
}

TEST_F(CheckpointCorruptionTest, UnknownRecordTypeRejected) {
  // Splice a CRC-valid record of unknown type before the terminator. The
  // loader must reject it as "not a file this build wrote".
  std::string spliced = image_.substr(0, image_.size() - 16);  // drop kEnd
  nn::AppendRecord(&spliced, static_cast<nn::RecordType>(99), "??");
  nn::AppendRecord(&spliced, nn::kEnd, {});
  WriteFileOrDie(path_, spliced);
  ExpectRejectedWithoutMutation("unknown record type");
  VerifyVictimsPristine();
}

TEST_F(CheckpointCorruptionTest, MissingTerminatorRejected) {
  WriteFileOrDie(path_, image_.substr(0, image_.size() - 16));
  ExpectRejectedWithoutMutation("missing kEnd terminator");
  VerifyVictimsPristine();
}

TEST_F(CheckpointCorruptionTest, TrailingGarbageRejected) {
  WriteFileOrDie(path_, image_ + "garbage after the terminator");
  ExpectRejectedWithoutMutation("trailing garbage");
  VerifyVictimsPristine();
}

TEST_F(CheckpointCorruptionTest, GarbageFileRejected) {
  WriteFileOrDie(path_, "this is not a checkpoint at all");
  ExpectRejectedWithoutMutation("garbage file");
  VerifyVictimsPristine();
}

// ---------------------------------------------------------------------------
// Warm start (DESIGN.md §17): parameters + moments only, variant-checked.
// ---------------------------------------------------------------------------

TEST(WarmStartTest, VariantFingerprintMismatchRejectedWithClearError) {
  const data::Dataset train = MakeTrainSet();
  const std::string dir = TempDirFor("warm_start_variant_mismatch");

  // Produce a real checkpoint of the "dcmt" variant.
  eval::TrainConfig tc = BaseTrainConfig();
  tc.checkpoint_dir = dir;
  RunTraining(train, tc);

  // A victim of the same architecture but a *different configured variant*
  // must be rejected before any mutation, with the mismatch spelled out —
  // never an undefined cross-variant restore.
  core::Dcmt victim(train.schema(), SmallModelConfig());
  optim::Adam adam(victim.parameters(), 1e-3f);
  std::vector<std::vector<float>> before;
  for (const Tensor& p : victim.parameters()) before.push_back(p.ToVector());
  const optim::AdamState adam_before = adam.ExportState();

  const std::uint64_t wrong =
      eval::FingerprintModelVariant(victim, "not-the-configured-variant");
  const eval::Checkpointer checkpointer(dir);
  std::string error;
  EXPECT_FALSE(checkpointer.WarmStart(wrong, &victim, &adam, &error));
  EXPECT_NE(error.find("variant"), std::string::npos) << error;
  EXPECT_NE(error.find("mismatch"), std::string::npos) << error;

  // Untouched victim: reject-before-mutate.
  std::size_t i = 0;
  for (const Tensor& p : victim.parameters()) {
    EXPECT_EQ(p.ToVector(), before[i++]);
  }
  EXPECT_EQ(adam.ExportState().step, adam_before.step);
}

TEST(WarmStartTest, WarmStartRestoresParametersAndMomentsOnly) {
  const data::Dataset train = MakeTrainSet();
  const std::string dir = TempDirFor("warm_start_green");

  eval::TrainConfig tc = BaseTrainConfig();
  tc.checkpoint_dir = dir;
  const RunResult donor = RunTraining(train, tc);

  core::Dcmt model(train.schema(), SmallModelConfig());
  optim::Adam adam(model.parameters(), 1e-3f);
  const eval::Checkpointer checkpointer(dir);
  std::string error;
  ASSERT_TRUE(checkpointer.WarmStart(
      eval::FingerprintModelVariant(model, model.name()), &model, &adam,
      &error))
      << error;

  std::size_t i = 0;
  for (const Tensor& p : model.parameters()) {
    EXPECT_EQ(p.ToVector(), donor.params[i++]);
  }
  EXPECT_GT(adam.ExportState().step, 0);
}

TEST(WarmStartTest, TrainConfigWarmStartDirSeedsTheNextRun) {
  const data::Dataset train = MakeTrainSet();
  const std::string dir = TempDirFor("warm_start_trainer");

  eval::TrainConfig tc = BaseTrainConfig();
  tc.checkpoint_dir = dir;
  const RunResult donor = RunTraining(train, tc);

  // A zero-epoch run with warm_start_dir set ends with exactly the donor's
  // parameters: the warm start is the only thing that touched the model.
  eval::TrainConfig warm;
  warm.epochs = 0;
  warm.seed = 5;
  warm.warm_start_dir = dir;
  const RunResult warmed = RunTraining(train, warm);
  ASSERT_EQ(warmed.params.size(), donor.params.size());
  for (std::size_t i = 0; i < donor.params.size(); ++i) {
    EXPECT_EQ(warmed.params[i], donor.params[i]) << "parameter " << i;
  }
}

}  // namespace
}  // namespace dcmt
