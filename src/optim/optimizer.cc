#include "optim/optimizer.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.h"

namespace dcmt {
namespace optim {
namespace {

/// Elements per lane-sum block of the clip norm. Blocks are fixed in the
/// end-to-end gradient layout, so the block partials — and their in-order
/// total — are the same whatever the pool width or grain.
constexpr std::int64_t kNormBlock = 4096;
/// Blocks per ParallelFor chunk of the norm: ~8k squares is a couple of
/// microseconds, above the pool's ~1 us dispatch cost.
constexpr std::int64_t kNormGrainBlocks = 2;
/// Elements per chunk of the clip rescale (one multiply each).
constexpr std::int64_t kScaleGrain = 16384;

}  // namespace

Optimizer::GradSpans Optimizer::GradLayout() const {
  GradSpans spans;
  for (std::size_t k = 0; k < params_.size(); ++k) {
    if (!params_[k].has_grad()) continue;
    spans.param.push_back(k);
    spans.offset.push_back(spans.offset.back() + params_[k].size());
  }
  return spans;
}

float Optimizer::ClipGradNorm(float max_norm) {
  const GradSpans spans = GradLayout();
  const std::int64_t blocks = (spans.size() + kNormBlock - 1) / kNormBlock;
  std::vector<double> partial(static_cast<std::size_t>(blocks), 0.0);
  core::ParallelFor(0, blocks, kNormGrainBlocks,
                    [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      double lanes[kernels::kSimdWidth] = {};
      spans.Visit(b * kNormBlock, std::min(spans.size(), (b + 1) * kNormBlock),
                  [&](std::size_t k, std::int64_t lo, std::int64_t hi) {
        kernels::AccumulateSquareLanes(params_[k].grad() + lo, hi - lo, lanes);
      });
      static_assert(kernels::kSimdWidth == 8, "fixed 8-lane sum tree");
      partial[static_cast<std::size_t>(b)] =
          ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
          ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    }
  });
  double sq = 0.0;
  for (const double p : partial) sq += p;
  const float norm = static_cast<float>(std::sqrt(sq));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    core::ParallelFor(0, spans.size(), kScaleGrain,
                      [&](std::int64_t i0, std::int64_t i1) {
      spans.Visit(i0, i1, [&](std::size_t k, std::int64_t lo, std::int64_t hi) {
        float* g = params_[k].grad();
        for (std::int64_t i = lo; i < hi; ++i) g[i] *= scale;
      });
    });
  }
  return norm;
}

}  // namespace optim
}  // namespace dcmt
