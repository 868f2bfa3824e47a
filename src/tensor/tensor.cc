#include "tensor/tensor.h"

#include <algorithm>
// The live-graph-node count must be exact when serving threads score while a
// trainer builds tapes, hence one relaxed atomic rather than a pool round.
// dcmt-lint: allow(concurrency) — single relaxed counter, no locking protocol.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/obs.h"
#include "core/thread_pool.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace dcmt {

#if defined(__GLIBC__)
namespace {
// Training allocates and frees hundreds of >128 KiB activation buffers per
// step. glibc serves those with mmap/munmap by default, so every step pays
// page-fault + zeroing costs in the kernel (~3x wall-clock on training
// loops). Keep large blocks on the heap and never trim it back.
const bool kMallocTuned = [] {
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  return true;
}();
}  // namespace
#endif

namespace {

[[noreturn]] void Fatal(const char* msg) {
  std::fprintf(stderr, "dcmt tensor fatal: %s\n", msg);
  std::abort();
}

// The leaf-gradient sink installed on this thread by GradSink::Scope.
thread_local GradSink* tls_grad_sink = nullptr;

// Nesting depth of the InferenceGuards alive on this thread.
thread_local int tls_guard_depth = 0;

/// Elements per chunk of GradSink::Reduce, over all leaves laid end to end.
/// An element costs K + 1 loads and K adds, so a chunk of 16384 is ~10 us:
/// the ~80k parameters of a DCMT step split four ways in one dispatch.
constexpr std::int64_t kReduceGrain = 16384;

// Count of live Impls holding parent edges — "is any tape alive" for the
// serving no-leak tests. Relaxed is enough: tests read it only at quiescent
// points (no concurrent MakeNode in flight).
// dcmt-lint: allow(concurrency) — single relaxed counter, no locking protocol.
std::atomic<std::int64_t> g_live_graph_nodes{0};

std::shared_ptr<Tensor::Impl> NewImpl(int rows, int cols, bool requires_grad) {
  if (rows <= 0 || cols <= 0) Fatal("tensor dimensions must be positive");
  auto impl = std::make_shared<Tensor::Impl>();
  impl->rows = rows;
  impl->cols = cols;
  impl->data.assign(static_cast<std::size_t>(rows) * cols, 0.0f);
  // Inference mode (DESIGN.md §13): nothing created under the guard may join
  // an autograd graph.
  impl->requires_grad = requires_grad && !InferenceGuard::Active();
  return impl;
}

}  // namespace

Tensor::Impl::~Impl() {
  if (counted_graph_node) {
    g_live_graph_nodes.fetch_sub(1, std::memory_order_relaxed);
  }
}

InferenceGuard::InferenceGuard() { ++tls_guard_depth; }
InferenceGuard::~InferenceGuard() { --tls_guard_depth; }
bool InferenceGuard::Active() { return tls_guard_depth > 0; }

float* Tensor::Impl::EnsureGrad() {
  if (tls_grad_sink != nullptr && parents.empty() && !backward_fn) {
    return tls_grad_sink->Buffer(this);
  }
  if (grad.empty()) grad.assign(data.size(), 0.0f);
  return grad.data();
}

GradSink::Scope::Scope(GradSink* sink) {
  if (tls_grad_sink != nullptr) Fatal("GradSink scopes do not nest");
  tls_grad_sink = sink;
}

GradSink::Scope::~Scope() { tls_grad_sink = nullptr; }

float* GradSink::Buffer(Tensor::Impl* leaf) {
  for (auto& [impl, buffer] : buffers_) {
    if (impl == leaf) return buffer.data();
  }
  buffers_.emplace_back(leaf, std::vector<float>(leaf->data.size(), 0.0f));
  return buffers_.back().second.data();
}

void GradSink::Reduce(const std::vector<GradSink>& sinks) {
  if (tls_grad_sink != nullptr) Fatal("GradSink::Reduce inside a sink scope");
  // One segment per leaf, in first-touch order across sinks, laid end to end
  // so that a single ParallelFor covers every leaf. The layout only decides
  // which thread sums an element, never the order of its additions.
  struct Segment {
    Tensor::Impl* leaf;
    float* grad;
    std::vector<const float*> parts;  // sink buffers, in sink order
  };
  std::vector<Segment> segments;
  std::vector<std::int64_t> offset{0};  // segment i covers [offset[i], offset[i+1])
  for (const GradSink& sink : sinks) {
    for (const auto& entry : sink.buffers_) {
      const auto seen = std::find_if(
          segments.begin(), segments.end(),
          [&](const Segment& s) { return s.leaf == entry.first; });
      if (seen != segments.end()) continue;
      Segment segment{entry.first, entry.first->EnsureGrad(), {}};
      for (const GradSink& other : sinks) {
        for (const auto& [impl, buffer] : other.buffers_) {
          if (impl == entry.first) segment.parts.push_back(buffer.data());
        }
      }
      segments.push_back(std::move(segment));
      offset.push_back(offset.back() +
                       static_cast<std::int64_t>(entry.first->data.size()));
    }
  }
  core::ParallelFor(0, offset.back(), kReduceGrain,
                    [&](std::int64_t i0, std::int64_t i1) {
    core::ForEachSegmentPiece(offset, i0, i1, [&](std::size_t s,
                                                  std::int64_t lo,
                                                  std::int64_t hi) {
      float* g = segments[s].grad;
      for (const float* part : segments[s].parts) {
        for (std::int64_t i = lo; i < hi; ++i) g[i] += part[i];
      }
    });
  });
}

std::int64_t Tensor::LiveGraphNodesForTesting() {
  return g_live_graph_nodes.load(std::memory_order_relaxed);
}

Tensor Tensor::MakeNode(int rows, int cols, std::vector<Tensor> parents,
                        bool requires_grad) {
  auto impl = NewImpl(rows, cols, requires_grad);
  // Under an InferenceGuard the node records no history: no parent edges, no
  // backward closure (ops.cc skips closure capture because requires_grad is
  // forced off above). The parents vector dies here and with it the only
  // per-op graph bookkeeping cost of the serving path.
  if (!InferenceGuard::Active() && !parents.empty()) {
    impl->parents = std::move(parents);
    impl->counted_graph_node = true;
    g_live_graph_nodes.fetch_add(1, std::memory_order_relaxed);
  }
  return Tensor(std::move(impl));
}

void Tensor::SetBackwardFn(std::function<void()> fn) {
  if (!impl_) Fatal("SetBackwardFn on null tensor");
  impl_->backward_fn = std::move(fn);
}

void Tensor::SetOp(const char* op) {
  if (!impl_) Fatal("SetOp on null tensor");
  impl_->op = op;
}

const char* Tensor::op() const { return impl_ ? impl_->op : nullptr; }

Tensor Tensor::Zeros(int rows, int cols, bool requires_grad) {
  return Tensor(NewImpl(rows, cols, requires_grad));
}

Tensor Tensor::Full(int rows, int cols, float value, bool requires_grad) {
  auto impl = NewImpl(rows, cols, requires_grad);
  for (auto& v : impl->data) v = value;
  return Tensor(std::move(impl));
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return Full(1, 1, value, requires_grad);
}

Tensor Tensor::Randn(int rows, int cols, float stddev, Rng* rng,
                     bool requires_grad) {
  auto impl = NewImpl(rows, cols, requires_grad);
  for (auto& v : impl->data) v = rng->Normal(0.0f, stddev);
  return Tensor(std::move(impl));
}

Tensor Tensor::Uniform(int rows, int cols, float lo, float hi, Rng* rng,
                       bool requires_grad) {
  auto impl = NewImpl(rows, cols, requires_grad);
  for (auto& v : impl->data) v = rng->Uniform(lo, hi);
  return Tensor(std::move(impl));
}

Tensor Tensor::FromData(int rows, int cols, const std::vector<float>& values,
                        bool requires_grad) {
  if (values.size() != static_cast<std::size_t>(rows) * cols) {
    Fatal("FromData size mismatch");
  }
  auto impl = NewImpl(rows, cols, requires_grad);
  impl->data = values;
  return Tensor(std::move(impl));
}

Tensor Tensor::ColumnVector(const std::vector<float>& values, bool requires_grad) {
  if (values.empty()) Fatal("ColumnVector needs at least one value");
  return FromData(static_cast<int>(values.size()), 1, values, requires_grad);
}

int Tensor::rows() const { return impl_ ? impl_->rows : 0; }
int Tensor::cols() const { return impl_ ? impl_->cols : 0; }
std::int64_t Tensor::size() const {
  return impl_ ? static_cast<std::int64_t>(impl_->rows) * impl_->cols : 0;
}

float* Tensor::data() {
  if (!impl_) Fatal("data() on null tensor");
  return impl_->data.data();
}
const float* Tensor::data() const {
  if (!impl_) Fatal("data() on null tensor");
  return impl_->data.data();
}

float Tensor::at(int r, int c) const {
  return data()[static_cast<std::size_t>(r) * impl_->cols + c];
}

void Tensor::set(int r, int c, float v) {
  data()[static_cast<std::size_t>(r) * impl_->cols + c] = v;
}

std::vector<float> Tensor::ToVector() const {
  if (!impl_) Fatal("ToVector() on null tensor");
  return impl_->data;
}

float Tensor::item() const {
  if (!impl_ || impl_->rows != 1 || impl_->cols != 1) {
    Fatal("item() requires a 1x1 tensor");
  }
  return impl_->data[0];
}

bool Tensor::requires_grad() const { return impl_ && impl_->requires_grad; }

float* Tensor::grad() {
  if (!impl_) Fatal("grad() on null tensor");
  if (impl_->grad.empty()) {
    impl_->grad.assign(impl_->data.size(), 0.0f);
  }
  return impl_->grad.data();
}

const float* Tensor::grad() const {
  if (!impl_ || impl_->grad.empty()) Fatal("grad() not allocated");
  return impl_->grad.data();
}

bool Tensor::has_grad() const { return impl_ && !impl_->grad.empty(); }

void Tensor::ZeroGrad() {
  if (impl_ && !impl_->grad.empty()) {
    std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
  }
}

namespace {

void TopoSort(Tensor::Impl* node, std::unordered_set<const void*>* visited,
              std::vector<Tensor::Impl*>* order) {
  // Iterative DFS to avoid stack overflow on deep graphs.
  struct Frame {
    Tensor::Impl* impl;
    std::size_t next_parent;
  };
  std::vector<Frame> stack;
  if (visited->insert(node).second) stack.push_back({node, 0});
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_parent < top.impl->parents.size()) {
      Tensor::Impl* parent = top.impl->parents[top.next_parent].impl();
      ++top.next_parent;
      if (parent != nullptr && visited->insert(parent).second) {
        stack.push_back({parent, 0});
      }
    } else {
      order->push_back(top.impl);
      stack.pop_back();
    }
  }
}

/// `dcmt_op_backward_seconds_total{op="<tag>"}` for a node's op tag. Tags are
/// string literals, so the handle is cached per tag pointer; the cache is
/// per thread, so only a miss reaches the registry's lock.
obs::Sum OpBackwardSeconds(const char* op) {
  thread_local std::unordered_map<const char*, obs::Sum> handles;
  auto it = handles.find(op);
  if (it == handles.end()) {
    const std::string name =
        std::string("dcmt_op_backward_seconds_total{op=\"") +
        (op != nullptr ? op : "untagged") + "\"}";
    it = handles.emplace(op, obs::Registry::Global().sum(name)).first;
  }
  return it->second;
}

}  // namespace

void Tensor::Backward() {
  if (!impl_) Fatal("Backward() on null tensor");
  if (impl_->rows != 1 || impl_->cols != 1) {
    Fatal("Backward() requires a 1x1 scalar loss");
  }
  if (!impl_->requires_grad) Fatal("Backward() on tensor without grad");
  BackwardFrom({*this}, {{1.0f}});
}

void Tensor::BackwardFrom(const std::vector<Tensor>& roots,
                          const std::vector<std::vector<float>>& seeds) {
  if (roots.size() != seeds.size()) Fatal("BackwardFrom: one seed per root");
  std::unordered_set<const void*> visited;
  std::vector<Impl*> order;  // post-order: parents before children
  // A root's gradient becomes its seed (the seeds of a root listed twice
  // add), whatever an earlier pass left in it.
  for (const Tensor& root : roots) {
    if (!root.defined()) Fatal("BackwardFrom on null tensor");
    if (root.requires_grad()) {
      float* g = root.impl()->EnsureGrad();
      std::fill(g, g + root.size(), 0.0f);
    }
  }
  for (std::size_t i = 0; i < roots.size(); ++i) {
    Impl* root = roots[i].impl();
    if (!root->requires_grad) continue;
    if (seeds[i].size() != root->data.size()) {
      Fatal("BackwardFrom: seed shape differs from its root");
    }
    float* g = root->EnsureGrad();
    for (std::size_t j = 0; j < seeds[i].size(); ++j) g[j] += seeds[i][j];
    TopoSort(root, &visited, &order);
  }

  // Children come after parents in `order`, so walk it backwards. With obs
  // on, each closure is timed into its op tag's backward-seconds sum — except
  // a join's, whose micro-batch ops time themselves on the threads that run
  // them.
  const bool profile = obs::Enabled();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Impl* node = *it;
    if (node->backward_fn && node->requires_grad) {
      if (profile && node->micro_roots.empty()) {
        const std::int64_t start = obs::NowNanos();
        node->backward_fn();
        OpBackwardSeconds(node->op).Add(
            static_cast<double>(obs::NowNanos() - start) * 1e-9);
      } else {
        node->backward_fn();
      }
      node->backward_ran = true;
    }
  }
}

Tensor Tensor::Detach() const {
  if (!impl_) return Tensor();
  auto impl = std::make_shared<Impl>();
  impl->rows = impl_->rows;
  impl->cols = impl_->cols;
  impl->data = impl_->data;  // copy values; no parents, no grad flow
  impl->requires_grad = false;
  return Tensor(std::move(impl));
}

const std::string& Tensor::name() const {
  static const std::string kEmpty;
  return impl_ ? impl_->name : kEmpty;
}

void Tensor::set_name(std::string name) {
  if (impl_) impl_->name = std::move(name);
}

}  // namespace dcmt
