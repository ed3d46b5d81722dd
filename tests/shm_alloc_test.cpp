// Heap allocations on the shm data path do not scale with wire segments.
//
// The shm fabric pushes each wire segment straight from the sender's bytes
// into the destination ring and the port engine consumes each record in
// place, into the posted receive or its reusable buffer-mode storage.  So
// once warmed up, a blocking allreduce cut into 16 wire segments per
// message must make no more heap allocations than the same allreduce sent
// whole.  This binary replaces the global operator new with a counting one;
// each forked rank counts its own allocations over the measured calls.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <vector>

#include "coll/api.hpp"
#include "mps/bootstrap.hpp"

namespace {

std::atomic<std::int64_t> g_allocations{0};

void* counted_alloc(std::size_t bytes, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (bytes == 0) bytes = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(bytes)
                : std::aligned_alloc(align, (bytes + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t bytes) { return counted_alloc(bytes, 0); }
void* operator new[](std::size_t bytes) { return counted_alloc(bytes, 0); }
void* operator new(std::size_t bytes, std::align_val_t align) {
  return counted_alloc(bytes, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t bytes, std::align_val_t align) {
  return counted_alloc(bytes, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace bruck {
namespace {

constexpr int kWarmup = 30;
constexpr int kWindows = 5;
constexpr int kCallsPerWindow = 20;

/// Allocations per rank in the quietest of kWindows windows of
/// kCallsPerWindow blocking 256 KiB f64 sum allreduces at `segments` wire
/// segments per message (n = 3, so each message is one 87,384 B block),
/// after kWarmup unmeasured calls.  The engine's pools and early-arrival
/// queues grow to the largest backlog they have seen, and under a loaded
/// host a new largest backlog can still turn up after the warm-up: a
/// one-off allocation, which the minimum over windows filters out while a
/// per-call cost shows in every window.
std::vector<std::int64_t> allocations_per_rank(int segments) {
  mps::SpawnOptions so;
  so.n = 3;
  so.k = 1;
  so.backend = mps::FabricBackend::kShm;
  so.record_trace = false;
  so.tune = tune::TuneMode::kOff;
  so.recv_timeout = std::chrono::milliseconds(20000);
  const mps::SpawnResult result =
      mps::spawn_local(so, [segments](mps::Communicator& comm) {
        constexpr std::size_t kElems = 256 * 1024 / sizeof(double);
        std::vector<double> send(kElems);
        for (std::size_t i = 0; i < kElems; ++i) {
          send[i] = static_cast<double>(comm.rank() + 1) *
                    static_cast<double>(i % 97);
        }
        std::vector<double> recv(kElems);
        coll::AllreduceOptions options;
        options.segments = segments;
        const coll::ReduceOp op = coll::ReduceOp::sum(coll::ReduceElem::kF64);
        // Rounds keep counting up across calls (one tag-0 namespace).
        const auto run = [&] {
          options.start_round = coll::allreduce(
              comm, std::as_bytes(std::span(send)),
              std::as_writable_bytes(std::span(recv)), op, options);
        };
        for (int i = 0; i < kWarmup; ++i) run();
        std::int64_t count = -1;
        for (int w = 0; w < kWindows; ++w) {
          comm.barrier();
          const std::int64_t before = g_allocations.load();
          for (int i = 0; i < kCallsPerWindow; ++i) run();
          const std::int64_t window = g_allocations.load() - before;
          if (count < 0 || window < count) count = window;
        }
        // The result is still right: Σ_r (r + 1) · (i mod 97).
        const double ranks = static_cast<double>(comm.size());
        for (std::size_t i = 0; i < kElems; i += 501) {
          if (recv[i] != ranks * (ranks + 1) / 2 * static_cast<double>(i % 97)) {
            return std::vector<std::byte>{};
          }
        }
        std::vector<std::byte> out(sizeof(count));
        std::memcpy(out.data(), &count, sizeof(count));
        return out;
      });
  std::vector<std::int64_t> counts;
  for (const auto& payload : result.rank_payloads) {
    EXPECT_EQ(payload.size(), sizeof(std::int64_t)) << "wrong allreduce sum";
    std::int64_t c = -1;
    if (payload.size() == sizeof(c)) std::memcpy(&c, payload.data(), sizeof(c));
    counts.push_back(c);
  }
  return counts;
}

TEST(ShmAllocations, BlockingAllreduceAllocationsDoNotGrowWithWireSegments) {
  const std::vector<std::int64_t> whole = allocations_per_rank(1);
  const std::vector<std::int64_t> cut = allocations_per_rank(16);
  ASSERT_EQ(whole.size(), 3u);
  ASSERT_EQ(cut.size(), 3u);
  for (std::size_t r = 0; r < whole.size(); ++r) {
    std::printf("rank %zu: %.2f allocations per call whole, %.2f at 16 "
                "segments\n",
                r, static_cast<double>(whole[r]) / kCallsPerWindow,
                static_cast<double>(cut[r]) / kCallsPerWindow);
    EXPECT_GE(whole[r], 0);
    EXPECT_LE(cut[r], whole[r]) << "rank " << r;
  }
}

}  // namespace
}  // namespace bruck
