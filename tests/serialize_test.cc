// Tests for model checkpointing: round-trips, architecture mismatch
// rejection, corruption rejection, and inference equivalence after reload.

#include <cstdio>
#include <cstring>
#include <fstream>

#include <gtest/gtest.h>

#include "core/dcmt.h"
#include "core/io.h"
#include "data/batcher.h"
#include "data/generator.h"
#include "eval/evaluator.h"
#include "eval/trainer.h"
#include "nn/mlp.h"
#include "nn/serialize.h"
#include "optim/adam.h"
#include "support/fault_fs.h"

namespace dcmt {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SerializeTest, MlpRoundTripBitExact) {
  Rng rng(1);
  nn::Mlp original("mlp", 6, {8, 4}, &rng);
  const std::string path = TempPath("mlp.ckpt");
  ASSERT_TRUE(nn::SaveParameters(original, path));

  Rng rng2(999);  // different init
  nn::Mlp restored("mlp", 6, {8, 4}, &rng2);
  ASSERT_TRUE(nn::LoadParameters(&restored, path));
  ASSERT_EQ(original.parameters().size(), restored.parameters().size());
  for (std::size_t i = 0; i < original.parameters().size(); ++i) {
    EXPECT_EQ(original.parameters()[i].ToVector(),
              restored.parameters()[i].ToVector());
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, ShapeMismatchRejectedAndUntouched) {
  Rng rng(2);
  nn::Mlp original("mlp", 6, {8, 4}, &rng);
  const std::string path = TempPath("mlp_shape.ckpt");
  ASSERT_TRUE(nn::SaveParameters(original, path));

  Rng rng2(3);
  nn::Mlp different("mlp", 6, {16, 4}, &rng2);  // different hidden width
  const std::vector<float> before = different.parameters()[0].ToVector();
  EXPECT_FALSE(nn::LoadParameters(&different, path));
  EXPECT_EQ(different.parameters()[0].ToVector(), before);
  std::remove(path.c_str());
}

TEST(SerializeTest, NameMismatchRejected) {
  Rng rng(4);
  nn::Mlp original("alpha", 4, {4}, &rng);
  const std::string path = TempPath("mlp_name.ckpt");
  ASSERT_TRUE(nn::SaveParameters(original, path));

  Rng rng2(5);
  nn::Mlp other("beta", 4, {4}, &rng2);  // same shapes, different names
  EXPECT_FALSE(nn::LoadParameters(&other, path));
  std::remove(path.c_str());
}

TEST(SerializeTest, CorruptMagicRejected) {
  const std::string path = TempPath("garbage.ckpt");
  std::ofstream(path) << "this is not a checkpoint";
  Rng rng(6);
  nn::Mlp model("mlp", 4, {4}, &rng);
  EXPECT_FALSE(nn::LoadParameters(&model, path));
  std::remove(path.c_str());
}

TEST(SerializeTest, TruncatedFileRejected) {
  Rng rng(7);
  nn::Mlp original("mlp", 6, {8}, &rng);
  const std::string path = TempPath("trunc.ckpt");
  ASSERT_TRUE(nn::SaveParameters(original, path));
  // Truncate to half size.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size() / 2));
  out.close();
  EXPECT_FALSE(nn::LoadParameters(&original, path));
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileRejected) {
  Rng rng(8);
  nn::Mlp model("mlp", 4, {4}, &rng);
  EXPECT_FALSE(nn::LoadParameters(&model, "/nonexistent/dir/x.ckpt"));
}

TEST(SerializeTest, TrainedDcmtPredictsIdenticallyAfterReload) {
  data::DatasetProfile profile;
  profile.name = "ser";
  profile.num_users = 60;
  profile.num_items = 90;
  profile.train_exposures = 1000;
  profile.test_exposures = 300;
  profile.target_click_rate = 0.2;
  profile.target_cvr_given_click = 0.3;
  profile.seed = 55;
  data::SyntheticLogGenerator gen(profile);
  const data::Dataset train = gen.GenerateTrain();
  const data::Dataset test = gen.GenerateTest();

  models::ModelConfig config;
  config.embedding_dim = 4;
  config.hidden_dims = {8, 4};
  core::Dcmt model(train.schema(), config);
  eval::TrainConfig tc;
  tc.epochs = 1;
  eval::Train(&model, train, tc);

  const std::string path = TempPath("dcmt.ckpt");
  ASSERT_TRUE(nn::SaveParameters(model, path));

  models::ModelConfig config2 = config;
  config2.seed = 1234;  // different init; load must overwrite all of it
  core::Dcmt restored(train.schema(), config2);
  ASSERT_TRUE(nn::LoadParameters(&restored, path));

  const eval::PredictionLog a = eval::Predict(&model, test);
  const eval::PredictionLog b = eval::Predict(&restored, test);
  ASSERT_EQ(a.cvr.size(), b.cvr.size());
  for (std::size_t i = 0; i < a.cvr.size(); ++i) {
    EXPECT_EQ(a.cvr[i], b.cvr[i]);
    EXPECT_EQ(a.ctr[i], b.ctr[i]);
  }
  std::remove(path.c_str());
}

// --- Adam optimizer state round-trip (full training-state checkpoints) -----

namespace {

/// Deterministic fake gradients: a function of (parameter, element, step) so
/// two models can replay identical update sequences.
void SetGrads(const std::vector<Tensor>& params, int step) {
  for (std::size_t k = 0; k < params.size(); ++k) {
    Tensor handle = params[k];  // shared handle: writes reach the module
    float* g = handle.grad();
    for (std::int64_t i = 0; i < handle.size(); ++i) {
      g[i] = 0.01f * static_cast<float>((i + 3 * static_cast<std::int64_t>(k) +
                                         7 * step) % 11) -
             0.03f;
    }
  }
}

}  // namespace

TEST(AdamStateTest, RoundTripResumesBitExactly) {
  // Reference: a never-serialized model+optimizer stepped 4 times.
  Rng rng_a(42);
  nn::Mlp reference("mlp", 6, {8, 4}, &rng_a);
  optim::Adam adam_a(reference.parameters(), 1e-3f);
  for (int step = 0; step < 4; ++step) {
    SetGrads(reference.parameters(), step);
    adam_a.Step();
  }

  // Candidate: identical init, 3 identical steps, then checkpoint state,
  // then 2 junk steps to thoroughly perturb params AND moments.
  Rng rng_b(42);
  nn::Mlp candidate("mlp", 6, {8, 4}, &rng_b);
  optim::Adam adam_b(candidate.parameters(), 1e-3f);
  for (int step = 0; step < 3; ++step) {
    SetGrads(candidate.parameters(), step);
    adam_b.Step();
  }
  const optim::AdamState saved = adam_b.ExportState();
  std::vector<std::vector<float>> saved_params;
  for (const Tensor& p : candidate.parameters()) saved_params.push_back(p.ToVector());
  for (int junk = 0; junk < 2; ++junk) {
    SetGrads(candidate.parameters(), 100 + junk);
    adam_b.Step();
  }

  // Restore the checkpointed parameters and optimizer state; step 4 must now
  // match the never-serialized reference bit-for-bit.
  ASSERT_TRUE(adam_b.ImportState(saved));
  EXPECT_EQ(adam_b.ExportState().step, 3);
  const auto& params = candidate.parameters();
  for (std::size_t k = 0; k < params.size(); ++k) {
    Tensor handle = params[k];
    std::memcpy(handle.data(), saved_params[k].data(),
                sizeof(float) * saved_params[k].size());
  }
  SetGrads(candidate.parameters(), 3);
  adam_b.Step();

  ASSERT_EQ(reference.parameters().size(), candidate.parameters().size());
  for (std::size_t k = 0; k < reference.parameters().size(); ++k) {
    EXPECT_EQ(reference.parameters()[k].ToVector(),
              candidate.parameters()[k].ToVector())
        << "parameter " << k << " diverged after state round-trip";
  }
}

TEST(AdamStateTest, ImportRejectsMismatchedMomentsUnchanged) {
  Rng rng(7);
  nn::Mlp model("mlp", 6, {8}, &rng);
  optim::Adam adam(model.parameters(), 1e-3f);
  SetGrads(model.parameters(), 0);
  adam.Step();
  const optim::AdamState before = adam.ExportState();

  optim::AdamState wrong_count = before;
  wrong_count.m.pop_back();
  EXPECT_FALSE(adam.ImportState(wrong_count));

  optim::AdamState wrong_shape = before;
  wrong_shape.v[0].push_back(0.0f);
  EXPECT_FALSE(adam.ImportState(wrong_shape));

  optim::AdamState negative_step = before;
  negative_step.step = -1;
  EXPECT_FALSE(adam.ImportState(negative_step));

  // All-or-nothing: the optimizer still holds its original state.
  const optim::AdamState after = adam.ExportState();
  EXPECT_EQ(after.step, before.step);
  EXPECT_EQ(after.m, before.m);
  EXPECT_EQ(after.v, before.v);
}

// --- Format hardening ------------------------------------------------------

namespace {

/// Hand-builds legacy v1 checkpoint bytes for a module (the retired format:
/// magic "DCMTCKP1", u32 count, then bare name/rows/cols/float records — no
/// checksums).
std::string BuildV1Image(const nn::Module& module) {
  std::string image = "DCMTCKP1";
  const auto append = [&image](const void* p, std::size_t n) {
    image.append(static_cast<const char*>(p), n);
  };
  const std::uint32_t count =
      static_cast<std::uint32_t>(module.parameters().size());
  append(&count, sizeof(count));
  for (const Tensor& p : module.parameters()) {
    const std::uint32_t name_len = static_cast<std::uint32_t>(p.name().size());
    append(&name_len, sizeof(name_len));
    append(p.name().data(), name_len);
    const std::int32_t rows = p.rows(), cols = p.cols();
    append(&rows, sizeof(rows));
    append(&cols, sizeof(cols));
    append(p.data(), sizeof(float) * static_cast<std::size_t>(p.size()));
  }
  return image;
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
}

}  // namespace

TEST(SerializeTest, LegacyV1ImageRejectedModuleUntouched) {
  Rng rng(21);
  nn::Mlp source("mlp", 6, {8, 4}, &rng);
  const std::string path = TempPath("legacy_v1.ckpt");
  WriteFile(path, BuildV1Image(source));

  Rng rng2(900);
  nn::Mlp target("mlp", 6, {8, 4}, &rng2);
  std::vector<std::vector<float>> before;
  for (const Tensor& p : target.parameters()) before.push_back(p.ToVector());
  EXPECT_FALSE(nn::LoadParameters(&target, path));
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(target.parameters()[i].ToVector(), before[i]) << "param " << i;
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, V2TrailingGarbageRejected) {
  Rng rng(23);
  nn::Mlp model("mlp", 6, {8}, &rng);
  const std::string path = TempPath("v2_trail.ckpt");
  ASSERT_TRUE(nn::SaveParameters(model, path));
  std::ifstream in(path, std::ios::binary);
  std::string image((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  WriteFile(path, image + "trailing");
  EXPECT_FALSE(nn::LoadParameters(&model, path));
  std::remove(path.c_str());
}

TEST(SerializeTest, LateMismatchLeavesEveryParameterUntouched) {
  // Regression for the "module left unchanged on mismatch" contract: a
  // CRC-valid v2 file whose *last* parameter has the wrong name would mutate
  // the earlier parameters under a streaming-apply implementation. The
  // loader must stage and validate everything first.
  Rng rng(24);
  nn::Mlp model("mlp", 6, {8, 4}, &rng);
  const auto& params = model.parameters();
  ASSERT_GT(params.size(), 1u);

  nn::PayloadWriter payload;
  payload.U32(static_cast<std::uint32_t>(params.size()));
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor& p = params[i];
    payload.Str(i + 1 == params.size() ? "wrong_name" : p.name());
    payload.I32(p.rows());
    payload.I32(p.cols());
    // Values that differ from the module's, so any partial apply shows up.
    std::vector<float> junk(static_cast<std::size_t>(p.size()), 123.25f);
    payload.F32Vec(junk);
  }
  std::string image(nn::kCheckpointMagicV2, sizeof(nn::kCheckpointMagicV2));
  const std::uint32_t version = nn::kCheckpointVersion;
  image.append(reinterpret_cast<const char*>(&version), sizeof(version));
  nn::AppendRecord(&image, nn::kParameters, payload.data());
  nn::AppendRecord(&image, nn::kEnd, {});

  const std::string path = TempPath("late_mismatch.ckpt");
  WriteFile(path, image);

  std::vector<std::vector<float>> before;
  for (const Tensor& p : params) before.push_back(p.ToVector());
  EXPECT_FALSE(nn::LoadParameters(&model, path));
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(params[i].ToVector(), before[i]) << "parameter " << i;
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, EmptyVectorsRoundTrip) {
  // An empty vector's data() may be null; writing and reading one must not
  // hand that pointer to memcpy (a strict UBSan build aborts on it).
  nn::PayloadWriter w;
  w.F32Vec({});
  w.F64Vec({});
  w.I64Vec({});
  w.I32Vec({});
  w.U8Vec({});
  w.Str("");
  w.U32(7);
  nn::PayloadReader r(w.data());
  // Never-allocated vectors: their data() is null when the reader copies.
  std::vector<float> f32;
  std::vector<double> f64;
  std::vector<std::int64_t> i64;
  std::vector<std::int32_t> i32;
  std::vector<std::uint8_t> u8;
  std::string s = "x";
  std::uint32_t tail = 0;
  ASSERT_TRUE(r.F32Vec(&f32));
  ASSERT_TRUE(r.F64Vec(&f64));
  ASSERT_TRUE(r.I64Vec(&i64));
  ASSERT_TRUE(r.I32Vec(&i32));
  ASSERT_TRUE(r.U8Vec(&u8));
  ASSERT_TRUE(r.Str(&s));
  ASSERT_TRUE(r.U32(&tail));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(f32.empty() && f64.empty() && i64.empty() && i32.empty() &&
              u8.empty());
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(tail, 7u);
}

TEST(SerializeTest, TornSaveKeepsPreviousCheckpointLoadable) {
  Rng rng(25);
  nn::Mlp original("mlp", 6, {8}, &rng);
  const std::string path = TempPath("torn_save.ckpt");
  ASSERT_TRUE(nn::SaveParameters(original, path));

  // A later save that dies mid-write must not damage the existing file.
  Rng rng2(26);
  nn::Mlp newer("mlp", 6, {8}, &rng2);
  core::FaultSpec spec;
  spec.fail_write_at = 10;
  core::FaultInjectingFileSystem faulty(spec);
  EXPECT_FALSE(nn::SaveParameters(newer, path, &faulty));

  Rng rng3(27);
  nn::Mlp restored("mlp", 6, {8}, &rng3);
  ASSERT_TRUE(nn::LoadParameters(&restored, path));
  for (std::size_t i = 0; i < original.parameters().size(); ++i) {
    EXPECT_EQ(original.parameters()[i].ToVector(),
              restored.parameters()[i].ToVector());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dcmt
