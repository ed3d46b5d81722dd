#include "coll/pack.hpp"

#include <algorithm>
#include <cstring>

#include "util/assert.hpp"
#include "util/math.hpp"
#include "util/radix.hpp"

namespace bruck::coll {

std::int64_t gather_extents(std::span<const std::byte> src,
                            std::span<const ByteExtent> extents,
                            std::span<std::byte> out) {
  std::int64_t pos = 0;
  for (const ByteExtent& e : extents) {
    BRUCK_REQUIRE(e.offset >= 0 && e.bytes >= 0);
    BRUCK_REQUIRE(static_cast<std::int64_t>(src.size()) >= e.offset + e.bytes);
    BRUCK_REQUIRE(static_cast<std::int64_t>(out.size()) >= pos + e.bytes);
    if (e.bytes > 0) {
      std::memcpy(out.data() + pos, src.data() + e.offset,
                  static_cast<std::size_t>(e.bytes));
    }
    pos += e.bytes;
  }
  return pos;
}

std::int64_t scatter_extents(std::span<std::byte> dst,
                             std::span<const ByteExtent> extents,
                             std::span<const std::byte> in) {
  std::int64_t pos = 0;
  for (const ByteExtent& e : extents) {
    BRUCK_REQUIRE(e.offset >= 0 && e.bytes >= 0);
    BRUCK_REQUIRE(static_cast<std::int64_t>(dst.size()) >= e.offset + e.bytes);
    BRUCK_REQUIRE(static_cast<std::int64_t>(in.size()) >= pos + e.bytes);
    if (e.bytes > 0) {
      std::memcpy(dst.data() + e.offset, in.data() + pos,
                  static_cast<std::size_t>(e.bytes));
    }
    pos += e.bytes;
  }
  return pos;
}

std::int64_t pack_by_digit(std::span<const std::byte> buffer,
                           std::span<std::byte> packed, std::int64_t n,
                           std::int64_t block_bytes, std::int64_t r, int x,
                           std::int64_t z) {
  BRUCK_REQUIRE(static_cast<std::int64_t>(buffer.size()) == n * block_bytes);
  BRUCK_REQUIRE(z >= 1 && z < r);
  // Walk the slots with digit x == z in ascending order without
  // materializing the member list: slots are q·r^{x+1} + z·r^x + t for
  // t ∈ [0, r^x).
  const std::int64_t lo = ipow(r, x);
  const std::int64_t period = lo * r;
  std::int64_t count = 0;
  for (std::int64_t base = z * lo; base < n; base += period) {
    const std::int64_t end = std::min(base + lo, n);
    for (std::int64_t slot = base; slot < end; ++slot) {
      BRUCK_REQUIRE(static_cast<std::int64_t>(packed.size()) >=
                    (count + 1) * block_bytes);
      if (block_bytes > 0) {
        std::memcpy(packed.data() + count * block_bytes,
                    buffer.data() + slot * block_bytes,
                    static_cast<std::size_t>(block_bytes));
      }
      ++count;
    }
  }
  BRUCK_ENSURE(count == radix_digit_census(n, r, x, z));
  return count;
}

}  // namespace bruck::coll
