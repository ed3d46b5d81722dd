#include "mps/doorbell.hpp"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <climits>
#include <ctime>

namespace bruck::mps {

namespace {

constexpr std::uint32_t kParked = 1;

// Process-shared futex ops (not FUTEX_*_PRIVATE): the word may live in a
// MAP_SHARED mapping that other processes wait on.
long futex(std::atomic<std::uint32_t>* word, int op, std::uint32_t value,
           const timespec* timeout) {
  static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t));
  return ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), op,
                   value, timeout, nullptr, 0);
}

}  // namespace

bool Doorbell::ring() {
  std::uint32_t w = word_.load(std::memory_order_seq_cst);
  while ((w & kParked) != 0) {
    // Clear the parked bit and bump the epoch (w is odd, so w + 1 is both).
    if (word_.compare_exchange_weak(w, w + 1, std::memory_order_seq_cst)) {
      (void)futex(&word_, FUTEX_WAKE, INT_MAX, nullptr);
      return true;
    }
  }
  return false;
}

std::uint32_t Doorbell::announce() {
  return word_.fetch_or(kParked, std::memory_order_seq_cst) | kParked;
}

bool Doorbell::park(std::uint32_t parked, Clock::time_point deadline) {
  const Clock::duration left = deadline - Clock::now();
  if (left <= Clock::duration::zero()) return false;
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(left);
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns.count() / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(ns.count() % 1'000'000'000);
  // EAGAIN (the word moved: rung already), EINTR and ETIMEDOUT all return
  // to the caller's readiness check; only the clock decides expiry.
  (void)futex(&word_, FUTEX_WAIT, parked, &ts);
  return true;
}

}  // namespace bruck::mps
