// The wait primitive of the fabrics (the thread fabric's inboxes, the shm
// fabric's rings and barrier): spin → yield → futex park on a single
// 32-bit word.
//
// A waiter that finds nothing to do first spins on `pause` (a peer is most
// likely mid-send: the common case resolves in well under a microsecond),
// then yields its core for a short, fixed budget (an oversubscribed host
// needs the peer to run before anything can arrive), and only then parks
// in the kernel on a futex until rung or until its deadline.  The producer
// side pays one load per ring and issues FUTEX_WAKE only when a waiter has
// actually announced that it is parked.
//
// Word layout: bit 0 = "a waiter is parked (or about to be)", bits 1.. = a
// ring epoch.  A waiter sets bit 0 with an atomic OR and then sleeps on the
// value it produced; a ring that sees bit 0 clears it and bumps the epoch
// in one CAS, then wakes every sleeper — so a ring that lands between the
// waiter's announcement and its futex call changes the word and the futex
// call returns at once (no lost wake-up).  A waiter that finds its
// condition true after announcing leaves bit 0 set: the next ring issues
// one spare wake, which keeps the protocol correct for several waiters on
// one word.
//
// The doorbell is exactly one lock-free 32-bit word with no pointers and
// uses the process-shared futex operations, so it also works in place in a
// MAP_SHARED mapping across forked processes.
//
// Ordering contract (a Dekker handshake): the producer must publish the
// state a waiter tests with a seq_cst store or RMW *before* ring(), and
// the waiter's `ready` predicate must read it with a seq_cst load.  The
// announcing OR and ring()'s load of the word are seq_cst, so either
// the waiter sees the new state or the ring sees the parked bit.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

namespace bruck::mps {

class Doorbell {
 public:
  using Clock = std::chrono::steady_clock;

  /// Pause-instruction polls of `ready` before the waiter starts yielding.
  static constexpr int kSpins = 256;
  /// How long the waiter yields its core (polling `ready` between yields)
  /// before it parks in the kernel.
  static constexpr std::chrono::microseconds kYieldBudget{50};

  Doorbell() = default;
  Doorbell(const Doorbell&) = delete;
  Doorbell& operator=(const Doorbell&) = delete;

  /// Producer side, after publishing (see the ordering contract).  Wakes
  /// every parked waiter; a no-op costing one load when none is parked.
  /// Returns true when a waiter had announced itself parked.
  bool ring();

  /// Wait until `ready()` returns true or `deadline` passes; returns the
  /// final `ready()` verdict.  A wake without a state change (a spurious or
  /// stale ring) just re-parks until the deadline.
  template <class Ready>
  bool wait_until(Ready&& ready, Clock::time_point deadline) {
    for (int i = 0; i < kSpins; ++i) {
      if (ready()) return true;
      cpu_relax();
    }
    const Clock::time_point yield_end =
        std::min(Clock::now() + kYieldBudget, deadline);
    while (Clock::now() < yield_end) {
      if (ready()) return true;
      std::this_thread::yield();
    }
    for (;;) {
      const std::uint32_t parked = announce();
      if (ready()) return true;
      if (!park(parked, deadline)) return ready();
    }
  }

 private:
  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#else
    std::this_thread::yield();
#endif
  }

  /// Set the parked bit (seq_cst) and return the word value to sleep on.
  std::uint32_t announce();
  /// Sleep while the word still holds `parked`, at most until `deadline`.
  /// False once the deadline has passed.
  bool park(std::uint32_t parked, Clock::time_point deadline);

  std::atomic<std::uint32_t> word_{0};
};

static_assert(sizeof(Doorbell) == sizeof(std::uint32_t));
static_assert(std::atomic<std::uint32_t>::is_always_lock_free);

}  // namespace bruck::mps
