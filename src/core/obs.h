#ifndef DCMT_CORE_OBS_H_
#define DCMT_CORE_OBS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace dcmt {
namespace obs {

// dcmt::obs — dependency-free observability (DESIGN.md §12).
//
// A process-wide metric registry (counters, gauges, accumulating sums,
// bounded histograms) plus RAII trace spans. Recording is designed for the
// training/serving hot paths:
//
//   * Handles are plain pointers into registry-owned cells. Every recording
//     method first checks a global enabled flag with one relaxed atomic
//     load; when observability is off (the default) a record call is a
//     branch and nothing else.
//   * Counters and sums shard their storage across a small set of
//     cache-line-padded per-thread slots, so concurrent recording from pool
//     workers never contends on one line. Aggregation happens only at
//     export time, serially (a ParallelFor there would register the pool's
//     own counters mid-export).
//   * Trace spans append to a per-thread buffer (bounded; overflow is
//     counted, never blocks) and are flushed on demand as JSON lines.
//
// Determinism contract (asserted by tier-1, see tools/run_tier1.sh):
//   At a fixed thread count, two identical runs produce metric exports that
//   are identical except for *timing-derived* metrics. By convention every
//   timing-derived metric name contains "seconds" or "per_second", so
//   `grep -vE '(seconds|per_second)'` projects an export onto its
//   deterministic content. Trace spans carry wall-clock "ts_ns"/"dur_ns"
//   fields (non-deterministic); everything else about a flushed trace
//   (names, thread ids, sequence numbers, args) is deterministic for
//   single-threaded span emitters such as the trainer loop.
//   Counter/sum/histogram-bucket aggregation is order-independent
//   (integer adds), so those values are exact regardless of which worker
//   recorded where. A Gauge is last-write-wins: deterministic when set from
//   one logical stream (the trainer), unspecified under concurrent setters
//   (e.g. parallel experiment repeats).

/// Global recording switch. Off by default; dcmt_cli turns it on when
/// --metrics-out/--trace-out is passed. Cheap to read; safe to toggle from
/// any thread (recording mid-toggle is simply kept or dropped).
bool Enabled();
void SetEnabled(bool on);

/// Nanoseconds since the registry epoch (steady clock). Used by callers
/// that time a region into a Sum without the cost of a trace span.
std::int64_t NowNanos();

namespace detail {

inline constexpr int kSlots = 8;          // per-thread shard slots (power of 2)
inline constexpr int kMaxHistogramBins = 64;
inline constexpr int kMaxSpansPerThread = 1 << 16;

extern std::atomic<bool> g_enabled;

extern thread_local int tls_slot;  // -1 until AssignSlot() runs on a thread
int AssignSlot();
inline int ThisThreadSlot() {
  const int s = tls_slot;
  return s >= 0 ? s : AssignSlot();
}

struct alignas(64) PaddedCount {
  std::atomic<std::int64_t> v{0};
};
struct alignas(64) PaddedSum {
  std::atomic<double> v{0.0};
};

struct CounterCell {
  PaddedCount slots[kSlots];
  void Add(std::int64_t n) {
    slots[ThisThreadSlot()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t Total() const;
};

struct GaugeCell {
  std::atomic<double> value{0.0};
};

struct SumCell {
  PaddedSum slots[kSlots];
  void Add(double d) {
    slots[ThisThreadSlot()].v.fetch_add(d, std::memory_order_relaxed);
  }
  double Total() const;
};

struct HistogramCell {
  double lo = 0.0;
  double hi = 1.0;
  std::vector<std::atomic<std::int64_t>> counts;
  std::atomic<std::int64_t> nonfinite{0};
  std::atomic<double> value_sum{0.0};
  void Observe(double v);
};

void RecordSpan(const char* name, const char* arg_name, std::int64_t arg,
                std::int64_t start_ns, std::int64_t end_ns);

}  // namespace detail

/// Monotonic integer counter. Exact under concurrency (sharded adds).
class Counter {
 public:
  Counter() = default;
  void Inc(std::int64_t n = 1) {
    if (cell_ != nullptr && detail::g_enabled.load(std::memory_order_relaxed)) {
      cell_->Add(n);
    }
  }
  /// Aggregated value (export-time operation, not for hot paths).
  std::int64_t value() const;

 private:
  friend class Registry;
  explicit Counter(detail::CounterCell* cell) : cell_(cell) {}
  detail::CounterCell* cell_ = nullptr;
};

/// Last-write-wins double (e.g. "loss of the most recent step").
class Gauge {
 public:
  Gauge() = default;
  void Set(double v) {
    if (cell_ != nullptr && detail::g_enabled.load(std::memory_order_relaxed)) {
      cell_->value.store(v, std::memory_order_relaxed);
    }
  }
  double value() const;

 private:
  friend class Registry;
  explicit Gauge(detail::GaugeCell* cell) : cell_(cell) {}
  detail::GaugeCell* cell_ = nullptr;
};

/// Accumulating double (e.g. busy seconds). Sharded like Counter; the
/// aggregate is a float sum in slot order, so it is bit-deterministic only
/// when a single thread records (which is why timing sums are name-filtered
/// out of the determinism assertion anyway).
class Sum {
 public:
  Sum() = default;
  void Add(double v) {
    if (cell_ != nullptr && detail::g_enabled.load(std::memory_order_relaxed)) {
      cell_->Add(v);
    }
  }
  double value() const;

 private:
  friend class Registry;
  explicit Sum(detail::SumCell* cell) : cell_(cell) {}
  detail::SumCell* cell_ = nullptr;
};

/// Bounded equal-width histogram over [lo, hi]; out-of-range finite values
/// clamp into the edge bins, non-finite values go to a dedicated counter.
class Histogram {
 public:
  Histogram() = default;
  void Observe(double v) {
    if (cell_ != nullptr && detail::g_enabled.load(std::memory_order_relaxed)) {
      cell_->Observe(v);
    }
  }
  int bins() const;
  std::int64_t count(int bin) const;
  std::int64_t total() const;
  std::int64_t nonfinite() const;
  double sum() const;

 private:
  friend class Registry;
  explicit Histogram(detail::HistogramCell* cell) : cell_(cell) {}
  detail::HistogramCell* cell_ = nullptr;
};

/// RAII wall-clock span. Construction stamps the start (when enabled);
/// destruction appends {name, tid, seq, ts_ns, dur_ns, optional int arg} to
/// the calling thread's span buffer. `name`/`arg_name` must be string
/// literals (stored by pointer).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* arg_name = nullptr,
                     std::int64_t arg = 0)
      : name_(name), arg_name_(arg_name), arg_(arg) {
    if (detail::g_enabled.load(std::memory_order_relaxed)) {
      start_ns_ = NowNanos();
    }
  }
  ~TraceSpan() {
    if (start_ns_ >= 0) {
      detail::RecordSpan(name_, arg_name_, arg_, start_ns_, NowNanos());
    }
  }
  /// Overrides the span's integer argument before destruction (e.g. bytes
  /// written, known only at the end of the region).
  void SetArg(const char* arg_name, std::int64_t arg) {
    arg_name_ = arg_name;
    arg_ = arg;
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const char* arg_name_;
  std::int64_t arg_;
  std::int64_t start_ns_ = -1;  // -1: disabled at construction, record nothing
};

/// Process-wide metric/trace registry. Handle lookup takes a mutex — acquire
/// handles once per wiring site (function-local static or loop-hoisted), not
/// per record.
class Registry {
 public:
  static Registry& Global();

  /// Create-or-get by full metric name (labels, if any, are embedded in the
  /// name: `foo_total{bucket="dcmt"}`). Re-requesting a name with a
  /// different kind (or different histogram geometry) aborts: metric names
  /// are a global contract, not a per-call-site convenience.
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Sum sum(const std::string& name);
  /// Histograms also abort on bad geometry: `bins` must be in
  /// [1, detail::kMaxHistogramBins] (64) and `hi > lo`.
  Histogram histogram(const std::string& name, int bins, double lo, double hi);

  /// Prometheus-style text exposition: `# TYPE` lines plus one sample line
  /// per metric (histograms expand to cumulative `_bucket{le=...}` samples,
  /// `_sum`, `_count`, and a `_nonfinite_total` counter), sorted by metric
  /// name. Rendering is serial, so exporting never touches the thread pool.
  std::string RenderPrometheus();

  /// All buffered trace spans as JSON lines, sorted by (tid, seq).
  std::string RenderTraceJson();

  /// Writes RenderPrometheus()/RenderTraceJson() to `path` ("-" = stdout).
  bool WriteMetricsFile(const std::string& path);
  bool WriteTraceFile(const std::string& path);

  /// Zeroes every cell and clears every span buffer, keeping registrations
  /// (live handles stay valid). Also restarts the trace clock epoch.
  void ResetForTesting();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  Registry();
  ~Registry();
  struct Impl;
  friend std::int64_t NowNanos();
  friend void detail::RecordSpan(const char*, const char*, std::int64_t,
                                 std::int64_t, std::int64_t);
  Impl* impl_;  // owned; hides mutex/map members from this header
};

}  // namespace obs
}  // namespace dcmt

#endif  // DCMT_CORE_OBS_H_
