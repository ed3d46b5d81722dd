// A hand-written reference exchange for each workload: the same bytes the
// workload's collective delivers, moved directly between the ranks through
// shared memory, without the library.  The benchmark times it interleaved
// with the library's calls in the same world, so both see the same host;
// the ratio of the two is the library's cost over the bare channel.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "workload.hpp"

namespace perfbench {

class Reference {
 public:
  /// Per-rank ring positions, in bytes since the world started; each rank
  /// owns one.
  struct Cursor {
    std::vector<std::uint64_t> sent;      ///< per destination
    std::vector<std::uint64_t> received;  ///< per source
    explicit Cursor(std::int64_t n);
  };

  /// Creates the shared mapping.  Build it before the ranks start: forked
  /// ranks inherit it, rank threads share it.
  Reference(const Workload& workload, std::chrono::milliseconds timeout);
  ~Reference();
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  /// One exchange on `rank`, writing what the workload's collective writes
  /// into `recv`: alltoall sends each peer its block directly, one peer
  /// per round; allreduce sends each peer its share to sum, then each
  /// summed share to every peer.  Throws when a peer does not deliver
  /// within the timeout.
  void run(std::int64_t rank, std::span<const std::byte> send,
           std::span<std::byte> recv, Cursor& cursor) const;

 private:
  struct Ring;
  [[nodiscard]] Ring& ring(std::int64_t src, std::int64_t dst) const;
  void send(std::int64_t me, std::int64_t dst, const std::byte* data,
            std::size_t len, Cursor& cursor) const;
  void recv(std::int64_t me, std::int64_t src, std::byte* out,
            std::size_t len, bool add_f64, Cursor& cursor) const;

  const Workload& workload_;
  std::chrono::milliseconds timeout_;
  std::byte* base_ = nullptr;
  std::size_t bytes_ = 0;
};

}  // namespace perfbench
