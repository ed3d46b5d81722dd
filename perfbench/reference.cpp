#include "reference.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <new>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr std::size_t kLine = 64;
constexpr std::size_t kRingBytes = std::size_t{1} << 20;

std::size_t padded(std::size_t len) { return (len + kLine - 1) / kLine * kLine; }

/// Ring position at which a record of `len` bytes starts, when the writer
/// or reader stands at `pos`: records never wrap, so one that would run
/// past the end of the ring starts at the beginning of the next lap.
std::uint64_t record_start(std::uint64_t pos, std::size_t len) {
  const std::uint64_t off = pos % kRingBytes;
  return off + padded(len) > kRingBytes ? pos + (kRingBytes - off) : pos;
}

/// Spins until `ready()`, or throws after `timeout`.
template <typename Ready>
void spin_until(Ready ready, std::chrono::milliseconds timeout) {
  const auto give_up = std::chrono::steady_clock::now() + timeout;
  for (std::uint32_t spins = 1; !ready(); ++spins) {
#if defined(__x86_64__)
    __builtin_ia32_pause();
#endif
    if (spins % 4096 == 0 && std::chrono::steady_clock::now() > give_up) {
      throw std::runtime_error("reference exchange timed out");
    }
  }
}

}  // namespace

/// A single-producer single-consumer byte ring for one ordered rank pair:
/// the producer publishes its end position in `tail`, the consumer its own
/// in `head`, each on a line of its own, and the producer waits for room.
struct Reference::Ring {
  alignas(kLine) std::atomic<std::uint64_t> tail{0};
  alignas(kLine) std::atomic<std::uint64_t> head{0};
  alignas(kLine) std::byte data[kRingBytes];
};

Reference::Cursor::Cursor(std::int64_t n)
    : sent(static_cast<std::size_t>(n)), received(static_cast<std::size_t>(n)) {}

Reference::Reference(const Workload& workload, std::chrono::milliseconds timeout)
    : workload_(workload),
      timeout_(timeout),
      bytes_(static_cast<std::size_t>(kRanks * kRanks) * sizeof(Ring)) {
  void* mem = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::runtime_error("mmap failed");
  base_ = static_cast<std::byte*>(mem);
  for (std::int64_t i = 0; i < kRanks * kRanks; ++i) {
    new (&reinterpret_cast<Ring*>(base_)[i]) Ring;
  }
}

Reference::~Reference() { ::munmap(base_, bytes_); }

Reference::Ring& Reference::ring(std::int64_t src, std::int64_t dst) const {
  return reinterpret_cast<Ring*>(base_)[src * kRanks + dst];
}

void Reference::send(std::int64_t me, std::int64_t dst, const std::byte* data,
                     std::size_t len, Cursor& cursor) const {
  Ring& r = ring(me, dst);
  std::uint64_t& pos = cursor.sent[static_cast<std::size_t>(dst)];
  const std::uint64_t start = record_start(pos, len);
  const std::uint64_t end = start + padded(len);
  spin_until(
      [&] { return end - r.head.load(std::memory_order_acquire) <= kRingBytes; },
      timeout_);
  std::memcpy(r.data + start % kRingBytes, data, len);
  r.tail.store(end, std::memory_order_release);
  pos = end;
}

void Reference::recv(std::int64_t me, std::int64_t src, std::byte* out,
                     std::size_t len, bool add_f64, Cursor& cursor) const {
  Ring& r = ring(src, me);
  std::uint64_t& pos = cursor.received[static_cast<std::size_t>(src)];
  const std::uint64_t start = record_start(pos, len);
  const std::uint64_t end = start + padded(len);
  spin_until([&] { return r.tail.load(std::memory_order_acquire) >= end; },
             timeout_);
  const std::byte* payload = r.data + start % kRingBytes;
  if (add_f64) {
    for (std::size_t i = 0; i < len; i += sizeof(double)) {
      double acc = 0.0, in = 0.0;
      std::memcpy(&acc, out + i, sizeof(double));
      std::memcpy(&in, payload + i, sizeof(double));
      acc += in;
      std::memcpy(out + i, &acc, sizeof(double));
    }
  } else {
    std::memcpy(out, payload, len);
  }
  r.head.store(end, std::memory_order_release);
  pos = end;
}

void Reference::run(std::int64_t rank, std::span<const std::byte> send_buf,
                    std::span<std::byte> recv_buf, Cursor& cursor) const {
  const std::int64_t n = kRanks;
  const auto peer = [&](std::int64_t p, bool to) {
    return to ? (rank + p) % n : (rank - p + n) % n;
  };
  if (workload_.family == Family::kAlltoall) {
    // One round per peer distance p, each waiting for the last: send the
    // block for rank + p, receive the block from rank - p.  At n = 3 these
    // are the peers and message sizes of the radix-2 Bruck plan the tuner
    // picks for 64 B blocks, so both pay two dependent transfers per call.
    const auto block = static_cast<std::size_t>(workload_.bytes);
    const auto at = [&](std::int64_t r) { return static_cast<std::size_t>(r) * block; };
    std::memcpy(recv_buf.data() + at(rank), send_buf.data() + at(rank), block);
    for (std::int64_t p = 1; p < n; ++p) {
      const std::int64_t dst = peer(p, true);
      const std::int64_t src = peer(p, false);
      send(rank, dst, send_buf.data() + at(dst), block, cursor);
      recv(rank, src, recv_buf.data() + at(src), block, false, cursor);
    }
    return;
  }
  // Allreduce: direct reduce-scatter into this rank's share, then a direct
  // allgather of the summed shares.
  const auto total = static_cast<std::size_t>(workload_.bytes);
  const std::size_t share =
      (total / sizeof(double) + static_cast<std::size_t>(n) - 1) /
      static_cast<std::size_t>(n) * sizeof(double);
  const auto at = [&](std::int64_t r) { return static_cast<std::size_t>(r) * share; };
  const auto len = [&](std::int64_t r) {
    return at(r) >= total ? std::size_t{0} : std::min(share, total - at(r));
  };
  for (std::int64_t p = 1; p < n; ++p) {
    const std::int64_t dst = peer(p, true);
    send(rank, dst, send_buf.data() + at(dst), len(dst), cursor);
  }
  std::memcpy(recv_buf.data() + at(rank), send_buf.data() + at(rank), len(rank));
  for (std::int64_t p = 1; p < n; ++p) {
    recv(rank, peer(p, false), recv_buf.data() + at(rank), len(rank), true,
         cursor);
  }
  for (std::int64_t p = 1; p < n; ++p) {
    send(rank, peer(p, true), recv_buf.data() + at(rank), len(rank), cursor);
  }
  for (std::int64_t p = 1; p < n; ++p) {
    const std::int64_t src = peer(p, false);
    recv(rank, src, recv_buf.data() + at(src), len(src), false, cursor);
  }
}

}  // namespace perfbench
