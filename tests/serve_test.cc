// Tests for the tape-free serving stack (DESIGN.md §13): train/serve parity
// through a checkpoint round-trip for every zoo variant (bit-exact at one
// and at several threads), the micro-batching engine's work-conserving
// dispatch, drain and admission behaviour, the inference arena, and
// FrozenModel::Load validation.

// dcmt-lint: allow(concurrency) — cross-thread assertion counters.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
// dcmt-lint: allow(concurrency) — futures carry engine scores cross-thread.
#include <future>
#include <memory>
#include <string>
// dcmt-lint: allow(concurrency) — real submitter threads for the engine.
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/obs.h"
#include "core/registry.h"
#include "core/thread_pool.h"
#include "data/batcher.h"
#include "data/generator.h"
#include "data/profiles.h"
#include "gated_model_source.h"
#include "nn/serialize.h"
#include "optim/adam.h"
#include "serve/engine.h"
#include "serve/frozen_model.h"
#include "tensor/inference.h"
#include "tensor/tensor.h"

namespace dcmt {
namespace {

data::DatasetProfile TinyProfile() {
  data::DatasetProfile p;
  p.name = "tiny";
  p.num_users = 50;
  p.num_items = 80;
  p.train_exposures = 600;
  p.test_exposures = 200;
  p.target_click_rate = 0.3;
  p.target_cvr_given_click = 0.3;
  p.seed = 11;
  return p;
}

models::ModelConfig TinyConfig() {
  models::ModelConfig c;
  c.embedding_dim = 4;
  c.hidden_dims = {8, 4};
  c.num_experts = 2;
  c.specific_experts = 1;
  c.shared_experts = 1;
  c.seed = 5;
  return c;
}

/// Per-process so concurrent ctest processes never share a checkpoint file.
std::string CheckpointPath(const std::string& name) {
  return ::testing::TempDir() + "/serve_" + name + "_" +
         std::to_string(static_cast<long long>(::getpid())) + ".ckpt";
}

std::vector<float> Column(const Tensor& t) {
  std::vector<float> out(static_cast<std::size_t>(t.rows()));
  for (int i = 0; i < t.rows(); ++i) {
    out[static_cast<std::size_t>(i)] = t.at(i, 0);
  }
  return out;
}

/// RAII thread configuration: parallel for the scope, serial after.
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) {
    core::ThreadPool::Global().SetNumThreads(threads);
    core::SetGrainCapForTesting(1);  // force multi-chunk kernels on tiny rows
  }
  ~ScopedThreads() {
    core::SetGrainCapForTesting(0);
    core::ThreadPool::Global().SetNumThreads(1);
  }
};

// --- Train → checkpoint → FrozenModel parity, all 13 zoo variants. ---------

class ServeZooTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    data::SyntheticLogGenerator gen(TinyProfile());
    train_ = gen.GenerateTrain();
    batch_ = data::MakeContiguousBatch(train_, 0, 96);
    model_ = core::CreateModel(GetParam(), train_.schema(), TinyConfig());
    // A few real optimizer steps so the checkpoint is not the init state.
    optim::Adam adam(model_->parameters(), 0.01f);
    for (int step = 0; step < 3; ++step) {
      adam.ZeroGrad();
      const models::Predictions preds = model_->Forward(batch_);
      Tensor loss = model_->Loss(batch_, preds);
      loss.Backward();
      adam.Step();
    }
  }

  data::Dataset train_;
  data::Batch batch_;
  std::unique_ptr<models::MultiTaskModel> model_;
};

TEST_P(ServeZooTest, CheckpointRoundTripServesBitExactAtOneAndManyThreads) {
  // Reference: the taped training-path Forward on the trained weights.
  const models::Predictions preds = model_->Forward(batch_);
  const std::vector<float> want_ctr = Column(preds.ctr);
  const std::vector<float> want_cvr = Column(preds.cvr);
  const std::vector<float> want_ctcvr = Column(preds.ctcvr);

  const std::string path = CheckpointPath(GetParam());
  ASSERT_TRUE(nn::SaveParameters(*model_, path));
  std::unique_ptr<serve::FrozenModel> frozen = serve::FrozenModel::Load(
      GetParam(), train_.schema(), TinyConfig(), path);
  ASSERT_NE(frozen, nullptr);
  EXPECT_EQ(frozen->name(), GetParam());

  const serve::ScoreColumns serial = frozen->ScoreBatch(batch_);
  EXPECT_EQ(serial.pctr, want_ctr);
  EXPECT_EQ(serial.pcvr, want_cvr);
  EXPECT_EQ(serial.pctcvr, want_ctcvr);

  // The same frozen model must serve the same bits with parallel kernels.
  {
    ScopedThreads threads(4);
    const serve::ScoreColumns threaded = frozen->ScoreBatch(batch_);
    EXPECT_EQ(threaded.pctr, want_ctr);
    EXPECT_EQ(threaded.pcvr, want_cvr);
    EXPECT_EQ(threaded.pctcvr, want_ctcvr);
  }
}

TEST_P(ServeZooTest, EngineMicroBatchingPreservesScoresExactly) {
  // Score through the engine with a deliberately odd max_batch so requests
  // coalesce into ragged micro-batches, and compare against one-shot
  // ScoreExamples over the same rows: batch composition must not matter.
  serve::FrozenModel frozen =
      serve::FrozenModel::View(model_.get(), train_.schema());
  std::vector<data::Example> rows(train_.examples().begin(),
                                  train_.examples().begin() + 41);
  const serve::ScoreColumns want = frozen.ScoreExamples(rows);

  serve::EngineConfig config;
  config.max_batch = 7;
  serve::Engine engine(&frozen, config);
  const std::vector<serve::Score> got = engine.ScoreAll(rows);
  ASSERT_EQ(got.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(got[i].pctr, want.pctr[i]) << "row " << i;
    EXPECT_EQ(got[i].pcvr, want.pcvr[i]) << "row " << i;
    EXPECT_EQ(got[i].pctcvr, want.pctcvr[i]) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ServeZooTest,
                         ::testing::ValuesIn(core::ExtendedModelNames()),
                         [](const ::testing::TestParamInfo<std::string>& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// --- FrozenModel construction and validation. ------------------------------

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SyntheticLogGenerator gen(TinyProfile());
    train_ = gen.GenerateTrain();
    batch_ = data::MakeContiguousBatch(train_, 0, 64);
    model_ = core::CreateModel("dcmt", train_.schema(), TinyConfig());
  }

  serve::FrozenModel Frozen() {
    return serve::FrozenModel::View(model_.get(), train_.schema());
  }

  data::Dataset train_;
  data::Batch batch_;
  std::unique_ptr<models::MultiTaskModel> model_;
};

TEST_F(ServeTest, LoadRejectsArchitectureMismatch) {
  const std::string path = CheckpointPath("mismatch");
  ASSERT_TRUE(nn::SaveParameters(*model_, path));
  // Same checkpoint, wrong architecture: Load must refuse, not half-load.
  EXPECT_EQ(serve::FrozenModel::Load("esmm", train_.schema(), TinyConfig(),
                                     path),
            nullptr);
  EXPECT_EQ(serve::FrozenModel::Load("dcmt", train_.schema(), TinyConfig(),
                                     ::testing::TempDir() + "/absent.ckpt"),
            nullptr);
}

TEST_F(ServeTest, ScoreColumnsAreConsistentProbabilities) {
  const serve::ScoreColumns scores = Frozen().ScoreBatch(batch_);
  ASSERT_EQ(scores.pctr.size(), 64u);
  ASSERT_EQ(scores.pcvr.size(), 64u);
  ASSERT_EQ(scores.pctcvr.size(), 64u);
  for (std::size_t i = 0; i < scores.pctr.size(); ++i) {
    EXPECT_GT(scores.pctr[i], 0.0f);
    EXPECT_LT(scores.pctr[i], 1.0f);
    EXPECT_GT(scores.pcvr[i], 0.0f);
    EXPECT_LT(scores.pcvr[i], 1.0f);
    EXPECT_NEAR(scores.pctcvr[i], scores.pctr[i] * scores.pcvr[i], 1e-5f);
  }
}

TEST_F(ServeTest, ScoreExamplesMatchesScoreBatch) {
  const serve::FrozenModel frozen = Frozen();
  std::vector<data::Example> rows(train_.examples().begin(),
                                  train_.examples().begin() + 64);
  const serve::ScoreColumns via_examples = frozen.ScoreExamples(rows);
  const serve::ScoreColumns via_batch = frozen.ScoreBatch(batch_);
  EXPECT_EQ(via_examples.pctcvr, via_batch.pctcvr);
}

// --- Inference guard + arena. ----------------------------------------------

TEST_F(ServeTest, ScoringBuildsNoGraphAndLeavesNoLiveNodes) {
  const std::int64_t before = Tensor::LiveGraphNodesForTesting();
  const serve::ScoreColumns scores = Frozen().ScoreBatch(batch_);
  EXPECT_EQ(Tensor::LiveGraphNodesForTesting(), before);
  EXPECT_EQ(scores.pctcvr.size(), 64u);
}

TEST_F(ServeTest, ArenaRecyclesActivationBuffersAcrossBatches) {
  core::ThreadPool::Global().SetNumThreads(1);  // keep kernels on this thread
  inference::ClearThreadArena();
  const serve::FrozenModel frozen = Frozen();
  frozen.ScoreBatch(batch_);
  const inference::ArenaStats first = inference::ThreadArenaStats();
  EXPECT_GT(first.acquires, 0);
  EXPECT_GT(first.pooled_buffers, 0);  // activations were pooled on release
  frozen.ScoreBatch(batch_);
  const inference::ArenaStats second = inference::ThreadArenaStats();
  // The second identical batch reuses the first batch's pooled activations.
  EXPECT_GT(second.reuses, first.reuses);
  inference::ClearThreadArena();
  EXPECT_EQ(inference::ThreadArenaStats().pooled_buffers, 0);
}

TEST(InferenceGuardTest, ForcesValueOnlyTensorsWhileActive) {
  const std::int64_t before = Tensor::LiveGraphNodesForTesting();
  {
    InferenceGuard guard;
    EXPECT_TRUE(InferenceGuard::Active());
    Tensor w = Tensor::Full(3, 2, 0.5f, /*requires_grad=*/true);
    EXPECT_FALSE(w.requires_grad());  // guard overrides the request
  }
  EXPECT_FALSE(InferenceGuard::Active());
  EXPECT_EQ(Tensor::LiveGraphNodesForTesting(), before);
}

// --- Engine behaviour. -----------------------------------------------------

TEST_F(ServeTest, EngineSingleRequestMatchesDirectScoring) {
  const serve::FrozenModel frozen = Frozen();
  const data::Example row = train_.examples().front();
  const serve::ScoreColumns want = frozen.ScoreExamples({row});
  serve::Engine engine(&frozen);
  const serve::Score got = engine.ScoreSync(row);
  EXPECT_EQ(got.pctr, want.pctr[0]);
  EXPECT_EQ(got.pcvr, want.pcvr[0]);
  EXPECT_EQ(got.pctcvr, want.pctcvr[0]);
}

// --- Work-conserving dispatch. ----------------------------------------------
// A GatedModelSource holds the dispatcher at Acquire, which it reaches only
// after taking a batch off the queue: that is where these tests observe
// which rows a batch took, with no timer or sleep involved.

TEST_F(ServeTest, SingleQueuedRowIsTakenAtOnce) {
  const serve::FrozenModel frozen = Frozen();
  testing_util::GatedModelSource gate(&frozen);
  serve::Engine engine(&gate);  // max_batch 256: one row is a partial batch
  // dcmt-lint: allow(concurrency) — the future carries the score.
  std::future<serve::Score> future = engine.Submit(train_.examples()[0]);
  // The dispatcher took the lone row and reached the model without waiting
  // for company; nothing else is queued or submitted.
  gate.WaitForAcquires(1);
  gate.Open();
  EXPECT_TRUE(future.get().ok());
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.max_batch_scored, 1);
  EXPECT_EQ(stats.flushed_deadline, 1);  // counted as a partial batch
  EXPECT_EQ(stats.flushed_full, 0);
  EXPECT_EQ(stats.flushed_drain, 0);
}

TEST_F(ServeTest, RowsArrivingDuringScoringFormTheNextBatch) {
  const serve::FrozenModel frozen = Frozen();
  const std::vector<data::Example> rows(train_.examples().begin(),
                                        train_.examples().begin() + 6);
  const serve::ScoreColumns want = frozen.ScoreExamples(rows);
  testing_util::GatedModelSource gate(&frozen);
  serve::Engine engine(&gate);
  // dcmt-lint: allow(concurrency) — future tokens carry the scores.
  std::vector<std::future<serve::Score>> futures;
  futures.push_back(engine.Submit(rows[0]));
  gate.WaitForAcquires(1);  // batch 1 = {row 0}, held at the gate
  for (std::size_t i = 1; i < rows.size(); ++i) {
    futures.push_back(engine.Submit(rows[i]));
  }
  gate.Open();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const serve::Score got = futures[i].get();
    ASSERT_TRUE(got.ok()) << "row " << i;
    EXPECT_EQ(got.pctr, want.pctr[i]) << "row " << i;
    EXPECT_EQ(got.pcvr, want.pcvr[i]) << "row " << i;
    EXPECT_EQ(got.pctcvr, want.pctcvr[i]) << "row " << i;
  }
  // The five rows queued behind the held batch came out together.
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.batches, 2);
  EXPECT_EQ(stats.max_batch_scored, 5);
  EXPECT_EQ(stats.flushed_deadline, 2);
}

TEST_F(ServeTest, BacklogSplitsIntoFullBatchesThenARemainder) {
  const serve::FrozenModel frozen = Frozen();
  testing_util::GatedModelSource gate(&frozen);
  serve::EngineConfig config;
  config.max_batch = 4;
  serve::Engine engine(&gate, config);
  // dcmt-lint: allow(concurrency) — future tokens carry the scores.
  std::vector<std::future<serve::Score>> futures;
  futures.push_back(engine.Submit(train_.examples()[0]));
  gate.WaitForAcquires(1);
  for (int i = 0; i < 10; ++i) {
    futures.push_back(engine.Submit(train_.examples()[0]));
  }
  gate.Open();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  // Under load batches grow to max_batch: {1} held, then 4 + 4 + 2.
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.batches, 4);
  EXPECT_EQ(stats.max_batch_scored, 4);
  EXPECT_EQ(stats.flushed_full, 2);
  EXPECT_EQ(stats.flushed_deadline, 2);
  EXPECT_EQ(stats.flushed_drain, 0);
}

TEST_F(ServeTest, EngineShutdownDrainsQueuedRequestsWithoutDrops) {
  const serve::FrozenModel frozen = Frozen();
  testing_util::GatedModelSource gate(&frozen);
  serve::EngineConfig config;
  config.max_batch = 8;
  config.queue_capacity = 19;
  serve::Engine engine(&gate, config);
  // dcmt-lint: allow(concurrency) — Submit's future tokens carry the scores.
  std::vector<std::future<serve::Score>> futures;
  futures.reserve(20);
  futures.push_back(engine.Submit(train_.examples()[0]));
  gate.WaitForAcquires(1);  // the dispatcher holds batch 1
  for (int i = 0; i < 19; ++i) {
    futures.push_back(engine.Submit(train_.examples()[0]));
  }
  // Shutdown blocks joining the held dispatcher; once it has marked the
  // engine stopping, a probe against the full queue is rejected as
  // shutdown instead of overload. Only then is the gate opened, so the 19
  // queued rows drain after Shutdown began.
  // dcmt-lint: allow(concurrency) — Shutdown must run while the gate holds.
  std::thread stopper([&engine] {
    engine.Shutdown();
    engine.Shutdown();  // idempotent
  });
  serve::ServeStatus probe = serve::ServeStatus::kRejectedOverload;
  while (probe == serve::ServeStatus::kRejectedOverload) {
    probe = engine.TrySubmit(train_.examples()[0]).get().status;
  }
  EXPECT_EQ(probe, serve::ServeStatus::kRejectedShutdown);
  gate.Open();
  stopper.join();
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().ok());
  }
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 20);
  EXPECT_EQ(stats.scored, 20);
  // {1} held, then 8 + 8 full and the last 3 as a drain batch.
  EXPECT_EQ(stats.batches, 4);
  EXPECT_EQ(stats.flushed_full, 2);
  EXPECT_EQ(stats.flushed_drain, 1);
  EXPECT_EQ(stats.flushed_deadline, 1);
}

TEST_F(ServeTest, EngineStatsTrackBatchesAndWatermarks) {
  const serve::FrozenModel frozen = Frozen();
  serve::EngineConfig config;
  config.max_batch = 32;
  serve::Engine engine(&frozen, config);
  std::vector<data::Example> rows(100, train_.examples()[0]);
  engine.ScoreAll(rows);
  engine.Shutdown();
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 100);
  EXPECT_EQ(stats.scored, 100);
  EXPECT_GE(stats.batches, 4);  // 100 rows through max_batch 32
  EXPECT_LE(stats.max_batch_scored, 32);
  EXPECT_GE(stats.max_batch_scored, 1);
  EXPECT_GE(stats.max_queue_depth, 1);
}

// --- Rejection semantics (bugfix: Submit after Shutdown used to abort). -----

TEST_F(ServeTest, SubmitAfterShutdownRejectsInsteadOfAborting) {
  const serve::FrozenModel frozen = Frozen();
  serve::Engine engine(&frozen);
  EXPECT_TRUE(engine.ScoreSync(train_.examples()[0]).ok());
  engine.Shutdown();
  // Both entry points resolve immediately with a status — no Fatal, no hang.
  const serve::Score via_submit = engine.Submit(train_.examples()[0]).get();
  EXPECT_EQ(via_submit.status, serve::ServeStatus::kRejectedShutdown);
  EXPECT_EQ(via_submit.pctcvr, 0.0f);
  const serve::Score via_try = engine.TrySubmit(train_.examples()[0]).get();
  EXPECT_EQ(via_try.status, serve::ServeStatus::kRejectedShutdown);
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.rejected_shutdown, 2);
  EXPECT_EQ(stats.scored, 1);
}

TEST_F(ServeTest, ConcurrentSubmittersRacingShutdownAllResolve) {
  const serve::FrozenModel frozen = Frozen();
  serve::EngineConfig config;
  config.max_batch = 4;
  serve::Engine engine(&frozen, config);
  const int kThreads = 4;
  const int kPerThread = 25;
  // dcmt-lint: allow(concurrency) — cross-thread assertion counter.
  std::atomic<std::int64_t> ok{0};
  // dcmt-lint: allow(concurrency) — cross-thread assertion counter.
  std::atomic<std::int64_t> rejected{0};
  // dcmt-lint: allow(concurrency) — cross-thread assertion counter.
  std::atomic<std::int64_t> other{0};
  // dcmt-lint: allow(concurrency) — the race with Shutdown is the subject.
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        const serve::Score score =
            engine.Submit(train_.examples()[0]).get();
        if (score.status == serve::ServeStatus::kOk) {
          ok.fetch_add(1);
        } else if (score.status == serve::ServeStatus::kRejectedShutdown) {
          rejected.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      }
    });
  }
  // Shutdown lands somewhere inside the torrent; every racing caller's
  // future must still resolve — scored or explicitly rejected, never stuck,
  // never aborting the process.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  engine.Shutdown();
  // dcmt-lint: allow(concurrency) — joining the submitter fleet.
  for (std::thread& thread : submitters) thread.join();
  EXPECT_EQ(ok.load() + rejected.load(), kThreads * kPerThread);
  EXPECT_EQ(other.load(), 0);
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.scored, ok.load());
  EXPECT_EQ(stats.rejected_shutdown, rejected.load());
}

TEST_F(ServeTest, FullAndExpiredFlushCountsExactlyOnce) {
  const serve::FrozenModel frozen = Frozen();
  serve::EngineConfig config;
  config.max_batch = 1;  // every row fills its batch
  serve::Engine engine(&frozen, config);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(engine.ScoreSync(train_.examples()[0]).ok());
  }
  engine.Shutdown();
  // A full batch is one batch, counted as full and nothing else.
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.batches, 5);
  EXPECT_EQ(stats.flushed_full, 5);
  EXPECT_EQ(stats.flushed_deadline, 0);
  EXPECT_EQ(stats.flushed_drain, 0);
  EXPECT_EQ(stats.flushed_full + stats.flushed_deadline + stats.flushed_drain,
            stats.batches);
}

TEST_F(ServeTest, TrySubmitShedsLoadWhenQueueIsFull) {
  const serve::FrozenModel frozen = Frozen();
  testing_util::GatedModelSource gate(&frozen);
  serve::EngineConfig config;
  config.max_batch = 64;
  config.queue_capacity = 3;
  serve::Engine engine(&gate, config);
  // dcmt-lint: allow(concurrency) — future tokens carry the scores.
  std::vector<std::future<serve::Score>> accepted;
  accepted.push_back(engine.TrySubmit(train_.examples()[0]));
  gate.WaitForAcquires(1);  // the dispatcher holds that row's batch
  for (int i = 0; i < 3; ++i) {
    accepted.push_back(engine.TrySubmit(train_.examples()[0]));
  }
  const serve::Score shed = engine.TrySubmit(train_.examples()[0]).get();
  EXPECT_EQ(shed.status, serve::ServeStatus::kRejectedOverload);
  gate.Open();
  engine.Shutdown();
  for (auto& f : accepted) EXPECT_TRUE(f.get().ok());
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.rejected_overload, 1);
  EXPECT_EQ(stats.scored, 4);
  EXPECT_EQ(stats.max_queue_depth, 3);
}

// --- Admission: a malformed row is rejected, never scored. -----------------

class ServeAdmissionTest : public ServeTest {
 protected:
  /// Submits `bad` through both entry points, expects kRejectedInvalid from
  /// each, then checks the engine still scores a valid row exactly.
  void ExpectRejected(const data::Example& bad) {
    const serve::FrozenModel frozen = Frozen();
    serve::Engine engine(&frozen);
    const serve::Score via_submit = engine.Submit(bad).get();
    EXPECT_EQ(via_submit.status, serve::ServeStatus::kRejectedInvalid);
    EXPECT_EQ(via_submit.pctcvr, 0.0f);
    EXPECT_EQ(engine.TrySubmit(bad).get().status,
              serve::ServeStatus::kRejectedInvalid);
    const data::Example& good = train_.examples()[0];
    const serve::Score scored = engine.ScoreSync(good);
    ASSERT_TRUE(scored.ok());
    EXPECT_EQ(scored.pctcvr, frozen.ScoreExamples({good}).pctcvr[0]);
    const serve::EngineStats stats = engine.stats();
    EXPECT_EQ(stats.rejected_invalid, 2);
    EXPECT_EQ(stats.submitted, 1);
    EXPECT_EQ(stats.scored, 1);
  }

  data::Example Good() const { return train_.examples()[0]; }
};

TEST_F(ServeAdmissionTest, OutOfVocabularyDeepIdRejected) {
  data::Example bad = Good();
  bad.deep_ids.back() = train_.schema().deep_fields.back().vocab_size;
  ExpectRejected(bad);
  EXPECT_STREQ(serve::ServeStatusName(serve::ServeStatus::kRejectedInvalid),
               "rejected_invalid");
}

TEST_F(ServeAdmissionTest, OutOfVocabularyWideIdRejected) {
  ASSERT_TRUE(train_.schema().has_wide());
  data::Example bad = Good();
  bad.wide_ids.front() = train_.schema().wide_fields.front().vocab_size + 7;
  ExpectRejected(bad);
}

TEST_F(ServeAdmissionTest, NegativeIdRejected) {
  data::Example bad = Good();
  bad.deep_ids.front() = -1;
  ExpectRejected(bad);
}

TEST_F(ServeAdmissionTest, ShortIdListRejected) {
  data::Example bad = Good();
  bad.deep_ids.pop_back();
  ExpectRejected(bad);
}

TEST_F(ServeAdmissionTest, LongIdListRejected) {
  data::Example bad = Good();
  bad.wide_ids.push_back(0);
  ExpectRejected(bad);
}

// --- Observability. ----------------------------------------------------------

/// Value of an unlabelled sample line `name value` in a Prometheus render.
double PrometheusSample(const std::string& text, const std::string& name) {
  const std::string key = "\n" + name + " ";
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return -1.0;
  return std::stod(text.substr(at + key.size()));
}

TEST_F(ServeTest, QueueWaitHistogramSpansEnqueueToBatchStart) {
  obs::Registry::Global().ResetForTesting();
  obs::SetEnabled(true);
  const serve::FrozenModel frozen = Frozen();
  testing_util::GatedModelSource gate(&frozen);
  serve::Engine engine(&gate);
  const std::int64_t t_first = obs::NowNanos();
  // dcmt-lint: allow(concurrency) — future tokens carry the scores.
  std::vector<std::future<serve::Score>> futures;
  futures.push_back(engine.Submit(train_.examples()[0]));
  gate.WaitForAcquires(1);
  for (int i = 0; i < 3; ++i) {
    futures.push_back(engine.Submit(train_.examples()[0]));
  }
  // Hold the gate for a known stretch (a spin on the clock, not a sleep
  // used as synchronization) so every row's wait has a floor to check.
  const std::int64_t t_queued = obs::NowNanos();
  std::int64_t t_release = t_queued;
  while (t_release - t_queued < 500000) t_release = obs::NowNanos();
  gate.Open();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  engine.Shutdown();
  const std::int64_t t_done = obs::NowNanos();
  const std::string text = obs::Registry::Global().RenderPrometheus();
  obs::SetEnabled(false);
  // One observation per row. Every row was enqueued by t_queued and no
  // batch started scoring before t_release, so each wait is at least
  // t_release - t_queued and at most the whole run.
  EXPECT_EQ(PrometheusSample(text, "dcmt_serve_queue_wait_seconds_count"), 4);
  const double sum = PrometheusSample(text, "dcmt_serve_queue_wait_seconds_sum");
  EXPECT_GE(sum, 4.0 * static_cast<double>(t_release - t_queued) * 1e-9);
  EXPECT_LE(sum, 4.0 * static_cast<double>(t_done - t_first) * 1e-9);
}

}  // namespace
}  // namespace dcmt
