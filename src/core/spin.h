#ifndef DCMT_CORE_SPIN_H_
#define DCMT_CORE_SPIN_H_

// The one busy-wait of the tree, shared by the two threads that wait for
// work at microsecond gaps: core::ThreadPool's workers and dispatching
// caller (DESIGN.md §9) and serve::Engine's dispatcher (DESIGN.md §13).
// Each spins for kSpinNanos, then parks on its condvar.
#include <chrono>
#include <cstdint>
#include <thread>

namespace dcmt {
namespace core {

/// How long a waiting thread busy-polls before it blocks. A training step
/// issues its GEMMs tens of microseconds apart, and a served batch scores
/// in about as long, so a waiter that is still spinning when the next job
/// or row lands picks it up in ~1 us instead of a condvar wake-up. Past the
/// window (between steps, an idle engine) it parks and costs nothing.
constexpr std::int64_t kSpinNanos = 150000;

/// CPU hint for a busy-wait iteration: `pause` on x86, a yield elsewhere.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Busy-polls until `done()` holds or the spin window ends; returns done().
/// Reads the clock directly rather than through obs: an idle pool worker
/// must not touch the obs registry, a function-local static that can be
/// destroyed before the pool's workers are joined at exit.
template <typename Done>
bool SpinUntil(const Done& done) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::nanoseconds(kSpinNanos);
  for (int i = 1;; ++i) {
    if (done()) return true;
    CpuRelax();
    if (i % 64 == 0 && Clock::now() > deadline) return done();
  }
}

}  // namespace core
}  // namespace dcmt

#endif  // DCMT_CORE_SPIN_H_
