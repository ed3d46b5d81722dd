// Appendix A's pack routine: gather the blocks whose block-id has radix-r
// digit x equal to z into a contiguous message — plus the variable-extent
// gather/scatter the irregular (vector) plan executor packs through and
// the strided `coll::Layout` datatypes resolve their cells into (a
// layout-mapped cell is just a ByteExtent walk over user memory).
//
// All routines here are pure local memory movement: they never block, never
// touch the fabric, and record nothing in the trace.  They are safe to call
// concurrently on disjoint buffers.
#pragma once

#include <cstdint>
#include <span>

namespace bruck::coll {

/// One byte run of a variable-extent cell map: `bytes` bytes at byte
/// `offset` of some buffer.  Zero-length extents are legal and skipped.
struct ByteExtent {
  std::int64_t offset = 0;
  std::int64_t bytes = 0;
};

/// Gather the extents of `src` back-to-back into `out` (which must hold at
/// least the summed extent bytes).  Returns the bytes packed.  Never
/// blocks; no trace side effects.
std::int64_t gather_extents(std::span<const std::byte> src,
                            std::span<const ByteExtent> extents,
                            std::span<std::byte> out);

/// Inverse of gather_extents: scatter `in` back-to-back into the extents of
/// `dst`.  Returns the bytes scattered.  Never blocks; no trace side
/// effects.
std::int64_t scatter_extents(std::span<std::byte> dst,
                             std::span<const ByteExtent> extents,
                             std::span<const std::byte> in);

/// Pack the blocks of `buffer` (n blocks of block_bytes) whose slot index
/// has digit x (radix r) equal to z into `packed`, in ascending slot order.
/// Returns the number of blocks packed; `packed` must hold at least that
/// many blocks (use radix_digit_census to size it).  The compiled Bruck
/// plan reaches the same slots through its cells; this standalone kernel is
/// what perfbench's pack layer times.
std::int64_t pack_by_digit(std::span<const std::byte> buffer,
                           std::span<std::byte> packed, std::int64_t n,
                           std::int64_t block_bytes, std::int64_t r, int x,
                           std::int64_t z);

}  // namespace bruck::coll
