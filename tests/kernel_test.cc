// Kernel-layer correctness: the fused ops (Dense, SigmoidBce,
// EmbeddingConcat, Mean, WeightedSum) against their unfused
// composites (ops::reference, or public ops for Dense), the vectorized
// elementwise family against
// libm, and the SIMD GEMM (forward and both backward products) against a
// double-precision reference — on
// randomized shapes chosen to stress the 8-lane SIMD tails (widths that are
// not multiples of the vector width, single columns, single elements).
//
// Contract being verified (DESIGN.md §14):
//  - fused reductions are BIT-identical to their composites, values and
//    gradients, at any thread count;
//  - Dense is bit-identical to MatMul + Add (+ Relu), values and the x, W
//    and b gradients, NaN and signed zeros included, at 1 and 4 threads;
//  - EmbeddingConcat is bit-identical to per-field lookup+concat (both are
//    pure copies);
//  - SigmoidBce matches BceLoss(Sigmoid(z), y) within float tolerance where
//    the composite's probability clamp does not engage, and stays finite at
//    logits where the composite saturates;
//  - every fused op passes finite-difference gradcheck at 1 and 4 threads
//    with the partition grain forced down so the 4-thread run really shards;
//  - MatMul's dA and dB accumulate into existing gradients and are
//    BIT-identical at 1 and 4 threads under that forced sharding.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/thread_pool.h"
#include "data/generator.h"
#include "data/profiles.h"
#include "models/multi_task_model.h"
#include "support/gradcheck.h"
#include "support/reference_ops.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace dcmt {
namespace {

using core::SetGrainCapForTesting;
using core::ThreadPool;

// Ragged shapes stressing the SIMD tail handling: below one vector, exactly
// one vector, vector+tail, many vectors+tail, and degenerate single-element.
struct Shape {
  int rows;
  int cols;
};
const Shape kShapes[] = {{1, 1}, {3, 5}, {4, 8}, {7, 9},
                         {2, 17}, {5, 31}, {16, 8}, {13, 40}};

class KernelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    SetGrainCapForTesting(0);
    ThreadPool::Global().SetNumThreads(1);
  }

  static void UseThreads(int n, bool force_sharding) {
    ThreadPool::Global().SetNumThreads(n);
    SetGrainCapForTesting(force_sharding ? 1 : 0);
  }
};

void ExpectBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]) << "element " << i;
  }
}

void ExpectGradBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.has_grad());
  ASSERT_TRUE(b.has_grad());
  for (std::int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.grad()[i], b.grad()[i]) << "grad element " << i;
  }
}

// --- Fused reductions: bit-identical to composites ---------------------------

TEST_F(KernelTest, FusedReductionsBitIdenticalToComposites) {
  Rng rng(11);
  for (int threads : {1, 4}) {
    UseThreads(threads, /*force_sharding=*/threads > 1);
    for (const Shape& s : kShapes) {
      const Tensor base = Tensor::Uniform(s.rows, s.cols, -2.0f, 2.0f, &rng);
      const Tensor wbase = Tensor::Uniform(s.rows, s.cols, -1.0f, 1.0f, &rng);
      const std::vector<float> av(base.data(), base.data() + base.size());
      const std::vector<float> wv(wbase.data(), wbase.data() + wbase.size());

      // Fresh leaves per graph so backward tapes stay independent.
      auto leaf = [&](const std::vector<float>& v) {
        return Tensor::FromData(s.rows, s.cols, v, /*requires_grad=*/true);
      };

      {
        Tensor a1 = leaf(av), a2 = leaf(av);
        Tensor fused = ops::Mean(a1);
        Tensor composite = ops::reference::Mean(a2);
        ExpectBitIdentical(fused, composite);
        fused.Backward();
        composite.Backward();
        ExpectGradBitIdentical(a1, a2);
      }
      {
        Tensor a1 = leaf(av), a2 = leaf(av);
        Tensor w1 = leaf(wv), w2 = leaf(wv);
        Tensor fused = ops::WeightedSum(a1, w1);
        Tensor composite = ops::reference::WeightedSum(a2, w2);
        ExpectBitIdentical(fused, composite);
        fused.Backward();
        composite.Backward();
        ExpectGradBitIdentical(a1, a2);
        ExpectGradBitIdentical(w1, w2);
      }
    }
  }
}

// --- EmbeddingConcat: bit-identical to lookup+concat -------------------------

TEST_F(KernelTest, EmbeddingConcatMatchesCompositeExactly) {
  Rng rng(12);
  // Ragged field widths (3, 5, 8) so the concatenated row crosses vector
  // boundaries at odd offsets.
  const std::vector<int> vocab = {7, 11, 13};
  const std::vector<int> dims = {3, 5, 8};
  const int batch = 17;

  std::vector<std::vector<float>> table_data;
  for (std::size_t f = 0; f < vocab.size(); ++f) {
    Tensor t = Tensor::Uniform(vocab[f], dims[f], -1.0f, 1.0f, &rng);
    table_data.emplace_back(t.data(), t.data() + t.size());
  }
  std::vector<std::vector<int>> ids(vocab.size());
  for (std::size_t f = 0; f < vocab.size(); ++f) {
    for (int i = 0; i < batch; ++i) {
      // Deterministic id pattern with repeats (scatter-add collisions).
      ids[f].push_back((i * 3 + static_cast<int>(f)) % vocab[f]);
    }
  }

  for (int threads : {1, 4}) {
    UseThreads(threads, /*force_sharding=*/threads > 1);
    std::vector<Tensor> t1, t2;
    for (std::size_t f = 0; f < vocab.size(); ++f) {
      t1.push_back(Tensor::FromData(vocab[f], dims[f], table_data[f],
                                    /*requires_grad=*/true));
      t2.push_back(Tensor::FromData(vocab[f], dims[f], table_data[f],
                                    /*requires_grad=*/true));
    }
    Tensor fused = ops::EmbeddingConcat(t1, ids);
    Tensor composite = ops::reference::EmbeddingConcat(t2, ids);
    ExpectBitIdentical(fused, composite);

    // Weighted backward so per-row gradients differ (catches transposed or
    // misaligned scatters that a Sum backward of all-ones would mask).
    std::vector<float> wv;
    for (int i = 0; i < batch; ++i) {
      wv.push_back(0.25f * static_cast<float>(i + 1));
    }
    const Tensor w = Tensor::ColumnVector(wv);
    ops::Sum(ops::Mul(fused, w)).Backward();
    ops::Sum(ops::Mul(composite, w)).Backward();
    for (std::size_t f = 0; f < vocab.size(); ++f) {
      ExpectGradBitIdentical(t1[f], t2[f]);
    }
  }
}

// --- SigmoidBce vs composite -------------------------------------------------

TEST_F(KernelTest, SigmoidBceMatchesCompositeWithinTolerance) {
  Rng rng(13);
  for (const Shape& s : kShapes) {
    // |z| <= 8 keeps sigmoid(z) far from the composite's 1e-7 clamp, so the
    // two formulations differ only by float rounding.
    const Tensor z = Tensor::Uniform(s.rows, s.cols, -8.0f, 8.0f, &rng);
    const Tensor y = Tensor::Uniform(s.rows, s.cols, 0.0f, 1.0f, &rng);
    const Tensor fused = ops::SigmoidBce(z, y);
    const Tensor composite = ops::reference::SigmoidBce(z, y);
    for (std::int64_t i = 0; i < fused.size(); ++i) {
      const float a = fused.data()[i];
      const float b = composite.data()[i];
      EXPECT_NEAR(a, b, 1e-4f * (1.0f + std::fabs(b))) << "element " << i;
    }
  }
}

TEST_F(KernelTest, SigmoidBceStaysFiniteAndLinearAtExtremeLogits) {
  // Where the composite clamps (|z| >> 16), the fused logit form is exact:
  // loss -> |z| for the mislabeled side, -> 0 for the correct side.
  const Tensor z = Tensor::FromData(1, 4, {50.0f, -50.0f, 200.0f, -200.0f});
  const Tensor y = Tensor::FromData(1, 4, {0.0f, 1.0f, 1.0f, 0.0f});
  const Tensor loss = ops::SigmoidBce(z, y);
  EXPECT_NEAR(loss.at(0, 0), 50.0f, 1e-4f);
  EXPECT_NEAR(loss.at(0, 1), 50.0f, 1e-4f);
  EXPECT_NEAR(loss.at(0, 2), 0.0f, 1e-6f);
  EXPECT_NEAR(loss.at(0, 3), 0.0f, 1e-6f);
}

TEST_F(KernelTest, SigmoidBceBackwardIsSigmoidMinusTarget) {
  Rng rng(14);
  Tensor z = Tensor::Uniform(5, 7, -4.0f, 4.0f, &rng);
  Tensor zg = Tensor::FromData(
      5, 7, std::vector<float>(z.data(), z.data() + z.size()),
      /*requires_grad=*/true);
  const Tensor y = Tensor::Uniform(5, 7, 0.0f, 1.0f, &rng);
  ops::Sum(ops::SigmoidBce(zg, y)).Backward();
  for (std::int64_t i = 0; i < zg.size(); ++i) {
    const double p = 1.0 / (1.0 + std::exp(-static_cast<double>(z.data()[i])));
    const double expected = p - static_cast<double>(y.data()[i]);
    EXPECT_NEAR(zg.grad()[i], expected, 1e-5) << "element " << i;
  }
}

// --- Vectorized elementwise family vs libm -----------------------------------

TEST_F(KernelTest, VectorizedTranscendentalsMatchLibm) {
  Rng rng(15);
  for (const Shape& s : kShapes) {
    const Tensor x = Tensor::Uniform(s.rows, s.cols, -6.0f, 6.0f, &rng);
    const Tensor prob = Tensor::Uniform(s.rows, s.cols, 0.01f, 0.99f, &rng);
    const Tensor y = Tensor::Uniform(s.rows, s.cols, 0.0f, 1.0f, &rng);
    const Tensor ones = Tensor::Full(s.rows, s.cols, 1.0f);
    const Tensor sig = ops::Sigmoid(x);
    const Tensor tanh_t = ops::Tanh(x);
    const Tensor sp = ops::Softplus(x);
    // With a target of 1, BCE is -log(p): the vector log alone.
    const Tensor neg_log = ops::BceLoss(prob, ones);
    const Tensor sbce = ops::SigmoidBce(x, y);
    for (std::int64_t i = 0; i < x.size(); ++i) {
      const double xd = x.data()[i];
      const double pd = prob.data()[i];
      const double yd = y.data()[i];
      EXPECT_NEAR(sig.data()[i], 1.0 / (1.0 + std::exp(-xd)), 2e-7);
      EXPECT_NEAR(tanh_t.data()[i], std::tanh(xd), 2e-7);
      EXPECT_NEAR(sp.data()[i],
                  std::max(xd, 0.0) + std::log1p(std::exp(-std::fabs(xd))),
                  2e-6);
      EXPECT_NEAR(neg_log.data()[i], -std::log(pd), 2e-6);
      EXPECT_NEAR(sbce.data()[i],
                  std::max(xd, 0.0) - xd * yd +
                      std::log1p(std::exp(-std::fabs(xd))),
                  2e-6);
    }
  }
}

TEST_F(KernelTest, TranscendentalIdentitiesAreExact) {
  const Tensor zero = Tensor::Zeros(2, 3);
  // exp(0) == 1 exactly, so tanh(0) = (1 - e^0) / (1 + e^0) is exactly 0.
  const Tensor tanh0 = ops::Tanh(zero);
  // e^-100 saturates far below float epsilon, so softplus(-100) is
  // 0 + log(1), and log(1) == 0 exactly.
  const Tensor softplus_low = ops::Softplus(Tensor::Full(2, 3, -100.0f));
  const Tensor sig0 = ops::Sigmoid(zero);
  for (std::int64_t i = 0; i < zero.size(); ++i) {
    EXPECT_EQ(tanh0.data()[i], 0.0f);
    EXPECT_EQ(softplus_low.data()[i], 0.0f);
    EXPECT_EQ(sig0.data()[i], 0.5f);
  }
}

// --- GEMM vs double-precision reference --------------------------------------

TEST_F(KernelTest, MatMulMatchesDoubleReferenceOnRaggedSizes) {
  Rng rng(16);
  const int dims[][3] = {{1, 1, 1},  {3, 7, 5},   {6, 16, 16}, {7, 13, 9},
                         {12, 5, 1}, {17, 23, 31}, {16, 8, 24}};
  for (int threads : {1, 4}) {
    UseThreads(threads, /*force_sharding=*/threads > 1);
    for (const auto& d : dims) {
      const int m = d[0], k = d[1], n = d[2];
      const Tensor a = Tensor::Uniform(m, k, -1.0f, 1.0f, &rng);
      const Tensor b = Tensor::Uniform(k, n, -1.0f, 1.0f, &rng);
      const Tensor c = ops::MatMul(a, b);
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
          double acc = 0.0;
          for (int p = 0; p < k; ++p) {
            acc += static_cast<double>(a.at(i, p)) *
                   static_cast<double>(b.at(p, j));
          }
          EXPECT_NEAR(c.at(i, j), acc, 1e-5) << "(" << i << "," << j << ")";
        }
      }
    }
  }
}

// --- Backward GEMMs vs double-precision reference ----------------------------

/// Deep-tower input width of the default AE-ES model: #deep fields times the
/// default embedding dim (the first tower GEMM's k).
int AeEsTowerInputWidth() {
  return static_cast<int>(
             data::SyntheticLogGenerator(data::AeEsProfile()).Schema()
                 .deep_fields.size()) *
         models::ModelConfig().embedding_dim;
}

struct MatMulGrads {
  std::vector<float> da;
  std::vector<float> db;
};

/// Runs MatMul(a, b) backward with upstream gradient dc (via WeightedSum,
/// whose backward hands dc through exactly) into gradient buffers that
/// already hold da0/db0, so the += contract is exercised.
MatMulGrads MatMulBackward(int m, int k, int n, const std::vector<float>& av,
                           const std::vector<float>& bv,
                           const std::vector<float>& dc,
                           const std::vector<float>& da0,
                           const std::vector<float>& db0) {
  Tensor a = Tensor::FromData(m, k, av, /*requires_grad=*/true);
  Tensor b = Tensor::FromData(k, n, bv, /*requires_grad=*/true);
  std::copy(da0.begin(), da0.end(), a.grad());
  std::copy(db0.begin(), db0.end(), b.grad());
  ops::WeightedSum(ops::MatMul(a, b), Tensor::FromData(m, n, dc)).Backward();
  return {std::vector<float>(a.grad(), a.grad() + a.size()),
          std::vector<float>(b.grad(), b.grad() + b.size())};
}

std::vector<float> UniformValues(std::int64_t count, float lo, float hi,
                                 Rng* rng) {
  std::vector<float> v(static_cast<std::size_t>(count));
  for (float& x : v) x = rng->Uniform(lo, hi);
  return v;
}

TEST_F(KernelTest, MatMulBackwardMatchesDoubleReferenceOnRaggedSizes) {
  Rng rng(18);
  const int tower = AeEsTowerInputWidth();
  for (int m : {1, 5, 6, 7, 13, 1024}) {
    for (int k : {1, 7, 16, 17, tower}) {
      for (int n : {1, 2, 15, 16, 17, 64}) {
        const auto av = UniformValues(std::int64_t{m} * k, -1.0f, 1.0f, &rng);
        const auto bv = UniformValues(std::int64_t{k} * n, -1.0f, 1.0f, &rng);
        const auto dc = UniformValues(std::int64_t{m} * n, -1.0f, 1.0f, &rng);
        const auto da0 = UniformValues(std::int64_t{m} * k, -1.0f, 1.0f, &rng);
        const auto db0 = UniformValues(std::int64_t{k} * n, -1.0f, 1.0f, &rng);
        const MatMulGrads g = MatMulBackward(m, k, n, av, bv, dc, da0, db0);
        const std::string shape = std::to_string(m) + "x" + std::to_string(k) +
                                  "x" + std::to_string(n);
        // Tolerance scales with the sum of |terms| (float rounding grows
        // with the reduction length and magnitude, not the signed result).
        for (int i = 0; i < m; ++i) {
          for (int p = 0; p < k; ++p) {
            double acc = 0.0, mag = 0.0;
            for (int j = 0; j < n; ++j) {
              const double t = static_cast<double>(dc[i * n + j]) *
                               static_cast<double>(bv[p * n + j]);
              acc += t;
              mag += std::fabs(t);
            }
            const std::size_t e = static_cast<std::size_t>(i) * k + p;
            ASSERT_NEAR(g.da[e], da0[e] + acc, 1e-6 * (2.0 + mag))
                << shape << " dA(" << i << "," << p << ")";
          }
        }
        for (int p = 0; p < k; ++p) {
          for (int j = 0; j < n; ++j) {
            double acc = 0.0, mag = 0.0;
            for (int i = 0; i < m; ++i) {
              const double t = static_cast<double>(av[i * k + p]) *
                               static_cast<double>(dc[i * n + j]);
              acc += t;
              mag += std::fabs(t);
            }
            const std::size_t e = static_cast<std::size_t>(p) * n + j;
            ASSERT_NEAR(g.db[e], db0[e] + acc, 1e-6 * (2.0 + mag))
                << shape << " dB(" << p << "," << j << ")";
          }
        }
      }
    }
  }
}

TEST_F(KernelTest, MatMulBackwardBitIdenticalAtOneAndFourThreads) {
  Rng rng(19);
  const int tower = AeEsTowerInputWidth();
  // The three tower shapes at batch 1024, plus ragged row/column counts.
  const int dims[][3] = {{1024, tower, 64}, {1024, 64, 32}, {1024, 32, 1},
                         {13, 17, 15},      {7, 7, 1},      {1, 16, 17}};
  for (const auto& d : dims) {
    const int m = d[0], k = d[1], n = d[2];
    const auto av = UniformValues(std::int64_t{m} * k, -1.0f, 1.0f, &rng);
    const auto bv = UniformValues(std::int64_t{k} * n, -1.0f, 1.0f, &rng);
    const auto dc = UniformValues(std::int64_t{m} * n, -1.0f, 1.0f, &rng);
    const auto da0 = UniformValues(std::int64_t{m} * k, -1.0f, 1.0f, &rng);
    const auto db0 = UniformValues(std::int64_t{k} * n, -1.0f, 1.0f, &rng);
    UseThreads(1, /*force_sharding=*/false);
    const MatMulGrads serial = MatMulBackward(m, k, n, av, bv, dc, da0, db0);
    UseThreads(4, /*force_sharding=*/true);
    const MatMulGrads sharded = MatMulBackward(m, k, n, av, bv, dc, da0, db0);
    EXPECT_EQ(serial.da, sharded.da) << m << "x" << k << "x" << n << " dA";
    EXPECT_EQ(serial.db, sharded.db) << m << "x" << k << "x" << n << " dB";
  }
}

// --- Dense: bit-identical to the MatMul + Add (+ Relu) composite ------------

struct DenseInputs {
  int m, k, n;
  std::vector<float> x, w, b;  // forward operands
  std::vector<float> dy;       // upstream gradient dOut [m x n]
  std::vector<float> dx0, dw0, db0;  // leaf gradients before backward
};

struct DenseRun {
  std::vector<float> y, dx, dw, db;
};

/// Random operands for Dense at (m, k, n) with planted edge values: x row 0
/// is all signed zeros, so its pre-activations are exactly bias + 0; b holds
/// +0.0 and -0.0; x row 2 carries a NaN (a NaN pre-activation row) and so
/// does dOut on that row (which ReLU must mask to 0); dOut and the leaf
/// gradients hold -0.0 entries, the values the `0 +` accumulate-into-zero
/// of the composite is sensitive to.
DenseInputs MakeDenseInputs(int m, int k, int n, Rng* rng) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  DenseInputs in{m, k, n, UniformValues(std::int64_t{m} * k, -1.0f, 1.0f, rng),
                 UniformValues(std::int64_t{k} * n, -1.0f, 1.0f, rng),
                 UniformValues(n, -0.5f, 0.5f, rng),
                 UniformValues(std::int64_t{m} * n, -1.0f, 1.0f, rng),
                 UniformValues(std::int64_t{m} * k, -1.0f, 1.0f, rng),
                 UniformValues(std::int64_t{k} * n, -1.0f, 1.0f, rng),
                 UniformValues(n, -1.0f, 1.0f, rng)};
  for (int p = 0; p < k; ++p) in.x[p] = p % 2 == 0 ? 0.0f : -0.0f;
  in.b[0] = 0.0f;
  in.b[n - 1] = -0.0f;
  if (m >= 3) {
    in.x[2 * k] = nan;
    in.dy[2 * n] = nan;
  }
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      if ((i + j) % 5 == 0) in.dy[i * n + j] = -0.0f;
    }
  }
  for (int j = 0; j < n; j += 2) in.db0[j] = -0.0f;
  in.dx0[0] = -0.0f;
  in.dw0[0] = -0.0f;
  return in;
}

/// Forward and backward of ops::Dense (`fused`) or of its composite, with
/// dOut equal to `in.dy` bit for bit: dy is seeded into the output's
/// gradient and the WeightedSum loss against all -0.0 weights adds -0.0 to
/// it, which keeps every value, -0.0 and NaN included.
DenseRun RunDense(bool fused, bool relu, const DenseInputs& in) {
  Tensor x = Tensor::FromData(in.m, in.k, in.x, /*requires_grad=*/true);
  Tensor w = Tensor::FromData(in.k, in.n, in.w, /*requires_grad=*/true);
  Tensor b = Tensor::FromData(1, in.n, in.b, /*requires_grad=*/true);
  std::copy(in.dx0.begin(), in.dx0.end(), x.grad());
  std::copy(in.dw0.begin(), in.dw0.end(), w.grad());
  std::copy(in.db0.begin(), in.db0.end(), b.grad());
  Tensor y;
  if (fused) {
    y = ops::Dense(x, w, b, relu);
  } else {
    y = ops::Add(ops::MatMul(x, w), b);
    if (relu) y = ops::Relu(y);
  }
  std::copy(in.dy.begin(), in.dy.end(), y.grad());
  const std::vector<float> neg_zero(in.dy.size(), -0.0f);
  ops::WeightedSum(y, Tensor::FromData(in.m, in.n, neg_zero)).Backward();
  auto copy = [](const Tensor& t, const float* p) {
    return std::vector<float>(p, p + t.size());
  };
  return {copy(y, y.data()), copy(x, x.grad()), copy(w, w.grad()),
          copy(b, b.grad())};
}

/// Index of the first element whose bit pattern differs, or -1. Bit
/// patterns, not EXPECT_EQ: NaN != NaN, and 0.0 == -0.0.
std::int64_t FirstBitMismatch(const std::vector<float>& a,
                              const std::vector<float>& b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
      return static_cast<std::int64_t>(i);
    }
  }
  return -1;
}

TEST_F(KernelTest, DenseBitIdenticalToComposite) {
  Rng rng(23);
  const int tower = AeEsTowerInputWidth();
  // The three tower layers at batch 1024, then ragged shapes: m = 1, k = 1
  // and n around the 8-lane vector and the 16-column panel.
  std::vector<std::array<int, 3>> dims = {
      {1024, tower, 64}, {1024, 64, 32}, {1024, 32, 1}};
  for (int n : {1, 7, 15, 17, 33}) {
    dims.push_back({1, 5, n});
    dims.push_back({9, 1, n});
    dims.push_back({13, 17, n});
  }
  // Served batches: 1-8 rows at the tower shapes. The forward reads W in
  // place, and W is a tensor of exactly k * n floats, so an over-read on
  // the ragged last panel (n = 17, 1) trips the ASan/UBSan build.
  for (int m = 1; m <= 8; ++m) {
    for (int k : {tower, 64, 32}) {
      for (int n : {64, 32, 16, 17, 1}) dims.push_back({m, k, n});
    }
  }
  for (const auto& d : dims) {
    const DenseInputs in = MakeDenseInputs(d[0], d[1], d[2], &rng);
    for (bool relu : {false, true}) {
      for (int threads : {1, 4}) {
        UseThreads(threads, /*force_sharding=*/threads > 1);
        const DenseRun fused = RunDense(/*fused=*/true, relu, in);
        const DenseRun composite = RunDense(/*fused=*/false, relu, in);
        const std::string where = std::to_string(d[0]) + "x" +
                                  std::to_string(d[1]) + "x" +
                                  std::to_string(d[2]) +
                                  (relu ? " relu " : " linear ") +
                                  std::to_string(threads) + " threads";
        EXPECT_EQ(FirstBitMismatch(fused.y, composite.y), -1) << where << " y";
        EXPECT_EQ(FirstBitMismatch(fused.dx, composite.dx), -1)
            << where << " dx";
        EXPECT_EQ(FirstBitMismatch(fused.dw, composite.dw), -1)
            << where << " dW";
        EXPECT_EQ(FirstBitMismatch(fused.db, composite.db), -1)
            << where << " db";
      }
    }
  }
}

// --- Gradcheck for every fused op at 1 and 4 threads -------------------------

TEST_F(KernelTest, FusedOpsPassGradcheckAtOneAndFourThreads) {
  for (int threads : {1, 4}) {
    UseThreads(threads, /*force_sharding=*/threads > 1);
    Rng rng(17);

    {
      Tensor a = Tensor::Uniform(3, 7, -1.0f, 1.0f, &rng, /*requires_grad=*/true);
      const GradCheckResult r =
          CheckGradients([&] { return ops::Mean(a); }, {a});
      EXPECT_TRUE(r.ok) << threads << " threads, Mean: " << r.worst;
    }
    {
      Tensor a = Tensor::Uniform(4, 5, -1.0f, 1.0f, &rng, /*requires_grad=*/true);
      Tensor w = Tensor::Uniform(4, 5, -1.0f, 1.0f, &rng, /*requires_grad=*/true);
      const GradCheckResult r =
          CheckGradients([&] { return ops::WeightedSum(a, w); }, {a, w});
      EXPECT_TRUE(r.ok) << threads << " threads, WeightedSum: " << r.worst;
    }
    {
      Tensor z = Tensor::Uniform(5, 3, -3.0f, 3.0f, &rng, /*requires_grad=*/true);
      Tensor y = Tensor::Uniform(5, 3, 0.1f, 0.9f, &rng, /*requires_grad=*/true);
      const GradCheckResult r = CheckGradients(
          [&] { return ops::Mean(ops::SigmoidBce(z, y)); }, {z, y});
      EXPECT_TRUE(r.ok) << threads << " threads, SigmoidBce: " << r.worst;
    }
    {
      std::vector<Tensor> tables = {
          Tensor::Uniform(5, 3, -1.0f, 1.0f, &rng, /*requires_grad=*/true),
          Tensor::Uniform(4, 2, -1.0f, 1.0f, &rng, /*requires_grad=*/true)};
      const std::vector<std::vector<int>> ids = {{0, 2, 4, 2, 1, 3},
                                                 {1, 3, 0, 0, 2, 1}};
      const GradCheckResult r = CheckGradients(
          [&] { return ops::Mean(ops::EmbeddingConcat(tables, ids)); }, tables);
      EXPECT_TRUE(r.ok) << threads << " threads, EmbeddingConcat: " << r.worst;
    }
    for (bool relu : {false, true}) {
      Tensor x = Tensor::Uniform(6, 5, -1.0f, 1.0f, &rng, /*requires_grad=*/true);
      Tensor w = Tensor::Uniform(5, 9, -1.0f, 1.0f, &rng, /*requires_grad=*/true);
      Tensor b = Tensor::Uniform(1, 9, -1.0f, 1.0f, &rng, /*requires_grad=*/true);
      const Tensor weights = Tensor::Uniform(6, 9, -1.0f, 1.0f, &rng);
      const GradCheckResult r = CheckGradients(
          [&] { return ops::WeightedSum(ops::Dense(x, w, b, relu), weights); },
          {x, w, b});
      EXPECT_TRUE(r.ok) << threads << " threads, Dense relu=" << relu << ": "
                        << r.worst;
    }
  }
}

}  // namespace
}  // namespace dcmt
