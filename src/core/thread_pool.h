#ifndef DCMT_CORE_THREAD_POOL_H_
#define DCMT_CORE_THREAD_POOL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace dcmt {
namespace core {

// Parallel compute runtime shared by the tensor kernels and the experiment
// harness.
//
// Determinism contract (see DESIGN.md "Parallel runtime"):
//   * Work is split with *static* partitioning: the chunk layout is a pure
//     function of (range, grain, configured thread count), never of runtime
//     load. A run with a fixed thread count is therefore bit-reproducible.
//   * With 1 thread every ParallelFor degrades to the plain serial loop, so
//     single-threaded results are bit-identical to the original scalar
//     engine.
//   * Nested parallelism is flattened: a ParallelFor issued from inside a
//     pool worker (e.g. a tensor kernel running under a concurrent
//     experiment repeat) executes inline on that worker.
//   * Concurrent callers never share the pool: while one external thread's
//     job is in flight, a RunShards from any other thread runs its shards
//     in order on its own thread. The partition is the same either way, so
//     the results are the same bits.
//
// Dispatch is spin-then-park: after a job a worker busy-polls for a short
// window before it blocks, so back-to-back dispatches (the GEMMs of one
// training step) cost about a microsecond each instead of a condvar
// wake-up. The GEMM grain in tensor/ops.cc is sized against that cost.

/// Persistent worker pool. Lazy global singleton; the pool owns
/// `num_threads() - 1` OS threads because the calling thread always executes
/// shard 0 itself.
class ThreadPool {
 public:
  /// The process-wide pool. First use spins up workers sized by
  /// `DCMT_THREADS` (if set) or std::thread::hardware_concurrency().
  static ThreadPool& Global();

  /// Configured parallel width (including the calling thread).
  int num_threads() const { return num_threads_; }

  /// Resizes the pool to `n` threads (n <= 0 restores the environment /
  /// hardware default). Waits for an in-flight job to finish; must not race
  /// a ParallelFor whose chunk count was computed for the old width.
  void SetNumThreads(int n);

  /// Runs fn(shard) for every shard in [0, shards); the calling thread
  /// executes shard 0, pool workers execute the rest. Blocks until all
  /// shards finish. `shards` must not exceed num_threads(). Calls from
  /// inside a parallel region, calls made while another thread's job holds
  /// the pool, and shards <= 1 run all shards inline, in shard order
  /// (counted by dcmt_pool_inline_runs_total).
  void RunShards(int shards, const std::function<void(int)>& fn);

  /// True on a pool worker thread or while the calling thread is executing
  /// its own shard — i.e. when further ParallelFor calls must stay inline.
  static bool InParallelRegion();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  ThreadPool();
  struct State;
  void Start(int n);
  void Stop();

  State* state_ = nullptr;  // owned; hides <thread>/<mutex> from this header
  int num_threads_ = 1;
};

/// Thread count implied by the environment: `DCMT_THREADS` when set to a
/// positive integer, otherwise (unset, empty or 0) hardware_concurrency, at
/// least 1. Any other value (not a whole integer, negative, out of int
/// range) aborts with a message that quotes it.
int DefaultNumThreads();

/// Number of chunks a ParallelFor over `range` items with minimum chunk size
/// `grain` would use right now. Pure in (range, grain, pool width, region
/// state, grain cap).
int ParallelChunks(std::int64_t range, std::int64_t grain);

/// Statically partitions [begin, end) into ParallelChunks() contiguous
/// chunks of near-equal size (each at least `grain` items unless the range
/// itself is smaller) and runs fn(chunk_begin, chunk_end) on the pool. With
/// one chunk, fn runs inline on the calling thread — the serial fast path.
void ParallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 const std::function<void(std::int64_t, std::int64_t)>& fn);

/// Walks [i0, i1) of a range made of segments laid end to end, segment s
/// covering [offset[s], offset[s+1]) (offset starts at 0 and ends with the
/// total). Calls fn(s, lo, hi) for each segment overlapping [i0, i1), in
/// segment order, with [lo, hi) local to segment s. This is how a single
/// ParallelFor covers many buffers: the layout decides only which chunk
/// touches an element.
template <typename Fn>
void ForEachSegmentPiece(const std::vector<std::int64_t>& offset,
                         std::int64_t i0, std::int64_t i1, Fn&& fn) {
  std::size_t s = static_cast<std::size_t>(
      std::upper_bound(offset.begin(), offset.end(), i0) - offset.begin() - 1);
  for (; s + 1 < offset.size() && offset[s] < i1; ++s) {
    fn(s, std::max(i0, offset[s]) - offset[s],
       std::min(i1, offset[s + 1]) - offset[s]);
  }
}

/// Testing hook: caps the effective grain of every ParallelFor at
/// `max_grain` so that tiny tensors still exercise the multi-chunk code
/// paths (0 disables the cap — the default). Not for production use: the
/// cap is part of the partition function, so changing it changes chunk
/// layouts like changing the thread count does.
void SetGrainCapForTesting(std::int64_t max_grain);

}  // namespace core
}  // namespace dcmt

#endif  // DCMT_CORE_THREAD_POOL_H_
