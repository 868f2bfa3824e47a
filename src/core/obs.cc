#include "core/obs.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "core/thread_pool.h"

namespace dcmt {
namespace obs {
namespace {

[[noreturn]] void Fatal(const char* msg, const std::string& name) {
  std::fprintf(stderr, "dcmt obs fatal: %s (metric '%s')\n", msg, name.c_str());
  std::abort();
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Shorter form for histogram bucket edges (computed identically every run,
/// so any fixed format is deterministic; 6 significant digits keep the
/// exposition readable).
std::string FormatEdge(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

struct SpanRecord {
  const char* name;
  const char* arg_name;
  std::int64_t arg;
  std::int64_t ts_ns;
  std::int64_t dur_ns;
  std::uint32_t seq;
};

/// One thread's span log. Appends lock only this buffer's mutex (never
/// contended in practice: one owner thread, plus the flusher at export).
struct ThreadTraceBuffer {
  int tid = 0;
  std::uint32_t next_seq = 0;
  std::int64_t dropped = 0;
  std::mutex mu;
  std::vector<SpanRecord> spans;
};

thread_local ThreadTraceBuffer* tls_trace = nullptr;

}  // namespace

namespace detail {

std::atomic<bool> g_enabled{false};
thread_local int tls_slot = -1;

int AssignSlot() {
  static std::atomic<int> next{0};
  tls_slot = next.fetch_add(1, std::memory_order_relaxed) % kSlots;
  return tls_slot;
}

std::int64_t CounterCell::Total() const {
  std::int64_t total = 0;
  for (const PaddedCount& s : slots) {
    total += s.v.load(std::memory_order_relaxed);
  }
  return total;
}

double SumCell::Total() const {
  double total = 0.0;
  for (const PaddedSum& s : slots) {
    total += s.v.load(std::memory_order_relaxed);
  }
  return total;
}

void HistogramCell::Observe(double v) {
  if (!std::isfinite(v)) {
    nonfinite.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Clamp in double space *before* the int conversion: the cast of an
  // out-of-range double to int is UB (the metrics::Histogram bug this
  // subsystem deliberately does not replicate).
  double t = (v - lo) / (hi - lo);
  if (t < 0.0) t = 0.0;
  if (t > 1.0) t = 1.0;
  const int n = static_cast<int>(counts.size());
  int b = static_cast<int>(t * static_cast<double>(n));
  if (b >= n) b = n - 1;
  counts[static_cast<std::size_t>(b)].fetch_add(1, std::memory_order_relaxed);
  value_sum.fetch_add(v, std::memory_order_relaxed);
}

}  // namespace detail

bool Enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// Registered metrics, keyed by full name. Cells are heap-stable: handles
/// keep raw pointers across rehashes and live for the process lifetime.
struct Registry::Impl {
  std::mutex mu;
  std::map<std::string, char> kinds;  // 'c' / 'g' / 's' / 'h'
  std::map<std::string, std::unique_ptr<detail::CounterCell>> counters;
  std::map<std::string, std::unique_ptr<detail::GaugeCell>> gauges;
  std::map<std::string, std::unique_ptr<detail::SumCell>> sums;
  std::map<std::string, std::unique_ptr<detail::HistogramCell>> histograms;

  std::mutex trace_mu;
  std::vector<std::unique_ptr<ThreadTraceBuffer>> trace_buffers;
  std::chrono::steady_clock::time_point epoch;
};

// Impl is held by raw pointer purely to keep <mutex>/<map> members out of
// the public header (same pattern as ThreadPool::State).
// dcmt-lint: allow(raw-new-delete) — sole owning allocation, paired delete.
Registry::Registry() : impl_(new Impl) {
  impl_->epoch = std::chrono::steady_clock::now();
}

Registry::~Registry() {
  // dcmt-lint: allow(raw-new-delete) — paired with the constructor above.
  delete impl_;
}

Registry& Registry::Global() {
  static Registry registry;
  return registry;
}

std::int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Registry::Global().impl_->epoch)
      .count();
}

namespace detail {

void RecordSpan(const char* name, const char* arg_name, std::int64_t arg,
                std::int64_t start_ns, std::int64_t end_ns) {
  Registry::Impl* impl = Registry::Global().impl_;
  ThreadTraceBuffer* buffer = tls_trace;
  if (buffer == nullptr) {
    auto owned = std::make_unique<ThreadTraceBuffer>();
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(impl->trace_mu);
    buffer->tid = static_cast<int>(impl->trace_buffers.size());
    impl->trace_buffers.push_back(std::move(owned));
    tls_trace = buffer;
  }
  std::lock_guard<std::mutex> lock(buffer->mu);
  if (buffer->spans.size() >= detail::kMaxSpansPerThread) {
    ++buffer->dropped;
    return;
  }
  SpanRecord record;
  record.name = name;
  record.arg_name = arg_name;
  record.arg = arg;
  record.ts_ns = start_ns;
  record.dur_ns = end_ns - start_ns;
  record.seq = buffer->next_seq++;
  buffer->spans.push_back(record);
}

}  // namespace detail

Counter Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto [it, inserted] = impl_->kinds.emplace(name, 'c');
  if (!inserted && it->second != 'c') Fatal("name registered as another kind", name);
  auto& cell = impl_->counters[name];
  if (cell == nullptr) cell = std::make_unique<detail::CounterCell>();
  return Counter(cell.get());
}

Gauge Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto [it, inserted] = impl_->kinds.emplace(name, 'g');
  if (!inserted && it->second != 'g') Fatal("name registered as another kind", name);
  auto& cell = impl_->gauges[name];
  if (cell == nullptr) cell = std::make_unique<detail::GaugeCell>();
  return Gauge(cell.get());
}

Sum Registry::sum(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto [it, inserted] = impl_->kinds.emplace(name, 's');
  if (!inserted && it->second != 's') Fatal("name registered as another kind", name);
  auto& cell = impl_->sums[name];
  if (cell == nullptr) cell = std::make_unique<detail::SumCell>();
  return Sum(cell.get());
}

Histogram Registry::histogram(const std::string& name, int bins, double lo,
                              double hi) {
  if (bins <= 0 || bins > detail::kMaxHistogramBins) {
    const std::string msg = "bad histogram geometry: bins must be in [1, " +
                            std::to_string(detail::kMaxHistogramBins) + "]";
    Fatal(msg.c_str(), name);
  }
  if (!(hi > lo)) Fatal("bad histogram geometry: hi must exceed lo", name);
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto [it, inserted] = impl_->kinds.emplace(name, 'h');
  if (!inserted && it->second != 'h') Fatal("name registered as another kind", name);
  auto& cell = impl_->histograms[name];
  if (cell == nullptr) {
    cell = std::make_unique<detail::HistogramCell>();
    cell->lo = lo;
    cell->hi = hi;
    cell->counts = std::vector<std::atomic<std::int64_t>>(
        static_cast<std::size_t>(bins));
  } else if (static_cast<int>(cell->counts.size()) != bins ||
             // Geometry is part of the metric's identity, compared exactly.
             // dcmt-lint: allow(float-eq) — exact registration identity check.
             cell->lo != lo || cell->hi != hi) {
    Fatal("histogram re-registered with different geometry", name);
  }
  return Histogram(cell.get());
}

std::int64_t Counter::value() const {
  return cell_ == nullptr ? 0 : cell_->Total();
}

double Gauge::value() const {
  return cell_ == nullptr ? 0.0 : cell_->value.load(std::memory_order_relaxed);
}

double Sum::value() const { return cell_ == nullptr ? 0.0 : cell_->Total(); }

int Histogram::bins() const {
  return cell_ == nullptr ? 0 : static_cast<int>(cell_->counts.size());
}

std::int64_t Histogram::count(int bin) const {
  if (cell_ == nullptr || bin < 0 ||
      bin >= static_cast<int>(cell_->counts.size())) {
    return 0;
  }
  return cell_->counts[static_cast<std::size_t>(bin)].load(
      std::memory_order_relaxed);
}

std::int64_t Histogram::total() const {
  if (cell_ == nullptr) return 0;
  std::int64_t total = 0;
  for (const auto& c : cell_->counts) total += c.load(std::memory_order_relaxed);
  return total;
}

std::int64_t Histogram::nonfinite() const {
  return cell_ == nullptr ? 0
                          : cell_->nonfinite.load(std::memory_order_relaxed);
}

double Histogram::sum() const {
  return cell_ == nullptr ? 0.0
                          : cell_->value_sum.load(std::memory_order_relaxed);
}

namespace {

/// One metric to render, snapshotted under the registry mutex. The cell
/// pointers stay valid without the lock (cells are never destroyed).
struct ExportEntry {
  std::string name;
  char kind = 'c';
  const detail::CounterCell* counter = nullptr;
  const detail::GaugeCell* gauge = nullptr;
  const detail::SumCell* sum = nullptr;
  const detail::HistogramCell* histogram = nullptr;
};

const char* PrometheusType(char kind) {
  switch (kind) {
    case 'g':
      return "gauge";
    case 'h':
      return "histogram";
    default:
      return "counter";  // counters and accumulating sums
  }
}

std::string RenderEntry(const ExportEntry& e) {
  std::string out;
  switch (e.kind) {
    case 'c': {
      char line[256];
      std::snprintf(line, sizeof(line), "%s %lld\n", e.name.c_str(),
                    static_cast<long long>(e.counter->Total()));
      out += line;
      break;
    }
    case 'g':
      out += e.name + " " +
             FormatDouble(e.gauge->value.load(std::memory_order_relaxed)) +
             "\n";
      break;
    case 's':
      out += e.name + " " + FormatDouble(e.sum->Total()) + "\n";
      break;
    case 'h': {
      const detail::HistogramCell& h = *e.histogram;
      const int n = static_cast<int>(h.counts.size());
      std::int64_t cumulative = 0;
      for (int b = 0; b < n; ++b) {
        cumulative += h.counts[static_cast<std::size_t>(b)].load(
            std::memory_order_relaxed);
        const double edge =
            h.lo + (h.hi - h.lo) * static_cast<double>(b + 1) /
                       static_cast<double>(n);
        out += e.name + "_bucket{le=\"" + FormatEdge(edge) + "\"} " +
               std::to_string(cumulative) + "\n";
      }
      out += e.name + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) +
             "\n";
      out += e.name + "_sum " +
             FormatDouble(h.value_sum.load(std::memory_order_relaxed)) + "\n";
      out += e.name + "_count " + std::to_string(cumulative) + "\n";
      out += "# TYPE " + e.name + "_nonfinite_total counter\n";
      out += e.name + "_nonfinite_total " +
             std::to_string(h.nonfinite.load(std::memory_order_relaxed)) +
             "\n";
      break;
    }
    default:
      break;
  }
  return out;
}

/// Metric name without an embedded label set: "a_total{x=\"y\"}" -> "a_total".
std::string BaseName(const std::string& name) {
  const std::size_t brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

}  // namespace

std::string Registry::RenderPrometheus() {
  std::vector<ExportEntry> entries;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    entries.reserve(impl_->kinds.size());
    for (const auto& [name, kind] : impl_->kinds) {
      ExportEntry e;
      e.name = name;
      e.kind = kind;
      switch (kind) {
        case 'c':
          e.counter = impl_->counters.at(name).get();
          break;
        case 'g':
          e.gauge = impl_->gauges.at(name).get();
          break;
        case 's':
          e.sum = impl_->sums.at(name).get();
          break;
        case 'h':
          e.histogram = impl_->histograms.at(name).get();
          break;
        default:
          break;
      }
      entries.push_back(std::move(e));
    }
  }
  // std::map iteration already yields names sorted; keep the invariant
  // explicit against future container changes.
  std::sort(entries.begin(), entries.end(),
            [](const ExportEntry& a, const ExportEntry& b) {
              return a.name < b.name;
            });

  // Render serially, on purpose: the thread pool records its own dispatch
  // counters into this registry, so routing the export through ParallelFor
  // would mutate (and lazily register) the very metrics being exported —
  // the render itself becomes an observer effect that makes back-to-back
  // exports of identical workloads differ. A few dozen small strings are
  // far below any dispatch grain anyway.
  std::vector<std::string> blocks(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    blocks[i] = RenderEntry(entries[i]);
  }

  std::string out;
  std::string last_base;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    // Labeled variants of one base metric share a single # TYPE line.
    const std::string base = BaseName(entries[i].name);
    if (base != last_base) {
      out += "# TYPE " + base + " " + PrometheusType(entries[i].kind) + "\n";
      last_base = base;
    }
    out += blocks[i];
  }
  return out;
}

std::string Registry::RenderTraceJson() {
  std::vector<SpanRecord> all;
  std::vector<int> tids;
  std::int64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(impl_->trace_mu);
    for (const auto& buffer : impl_->trace_buffers) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mu);
      dropped += buffer->dropped;
      for (const SpanRecord& record : buffer->spans) {
        all.push_back(record);
        tids.push_back(buffer->tid);
      }
    }
  }
  std::vector<std::size_t> order(all.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (tids[a] != tids[b]) return tids[a] < tids[b];
    return all[a].seq < all[b].seq;
  });

  std::string out;
  for (const std::size_t i : order) {
    const SpanRecord& r = all[i];
    char line[256];
    if (r.arg_name != nullptr) {
      std::snprintf(line, sizeof(line),
                    "{\"name\":\"%s\",\"tid\":%d,\"seq\":%u,\"ts_ns\":%lld,"
                    "\"dur_ns\":%lld,\"args\":{\"%s\":%lld}}\n",
                    r.name, tids[i], r.seq, static_cast<long long>(r.ts_ns),
                    static_cast<long long>(r.dur_ns), r.arg_name,
                    static_cast<long long>(r.arg));
    } else {
      std::snprintf(line, sizeof(line),
                    "{\"name\":\"%s\",\"tid\":%d,\"seq\":%u,\"ts_ns\":%lld,"
                    "\"dur_ns\":%lld}\n",
                    r.name, tids[i], r.seq, static_cast<long long>(r.ts_ns),
                    static_cast<long long>(r.dur_ns));
    }
    out += line;
  }
  if (dropped > 0) {
    out += "{\"name\":\"obs/spans_dropped\",\"tid\":-1,\"seq\":0,\"ts_ns\":0,"
           "\"dur_ns\":0,\"args\":{\"count\":" +
           std::to_string(dropped) + "}}\n";
  }
  return out;
}

namespace {

bool WriteTextFile(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return true;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

bool Registry::WriteMetricsFile(const std::string& path) {
  return WriteTextFile(path, RenderPrometheus());
}

bool Registry::WriteTraceFile(const std::string& path) {
  return WriteTextFile(path, RenderTraceJson());
}

void Registry::ResetForTesting() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (auto& [name, cell] : impl_->counters) {
      for (auto& slot : cell->slots) slot.v.store(0, std::memory_order_relaxed);
    }
    for (auto& [name, cell] : impl_->gauges) {
      cell->value.store(0.0, std::memory_order_relaxed);
    }
    for (auto& [name, cell] : impl_->sums) {
      for (auto& slot : cell->slots) {
        slot.v.store(0.0, std::memory_order_relaxed);
      }
    }
    for (auto& [name, cell] : impl_->histograms) {
      for (auto& c : cell->counts) c.store(0, std::memory_order_relaxed);
      cell->nonfinite.store(0, std::memory_order_relaxed);
      cell->value_sum.store(0.0, std::memory_order_relaxed);
    }
  }
  std::lock_guard<std::mutex> lock(impl_->trace_mu);
  for (const auto& buffer : impl_->trace_buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->spans.clear();
    buffer->next_seq = 0;
    buffer->dropped = 0;
  }
  impl_->epoch = std::chrono::steady_clock::now();
}

}  // namespace obs
}  // namespace dcmt
