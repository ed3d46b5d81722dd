// The wire unit of the multiport message-passing substrate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace bruck::mps {

/// Per-segment wire metadata without the payload: what a fabric that copies
/// bytes (the shm ring) carries beside each record, and what it hands the
/// port engine with a record it consumes in place.  The destination is
/// implicit (the channel's owner).
struct WireFrame {
  std::int64_t src = 0;
  std::int64_t seq = 0;
  std::int32_t tag = 0;
  std::int32_t round = 0;
};

struct Message {
  std::int64_t src = 0;
  std::int64_t dst = 0;
  /// Per-(src, dst, tag) sequence number assigned by the sender; receivers
  /// check it to assert FIFO channel order was preserved within the tag
  /// namespace.  Segmented payloads consume one sequence number per segment.
  std::int64_t seq = 0;
  /// Port-namespace tag (0 = the default/blocking namespace).  Concurrent
  /// collectives on one communicator each run in their own tag, so their
  /// wire segments can never alias: matching, sequencing, and the per-round
  /// port budget are all tag-scoped.
  int tag = 0;
  /// Global communication-round index supplied by the algorithm; carried for
  /// trace/bookkeeping only (matching is FIFO per channel).
  int round = 0;
  /// Owned payload storage.  The port engine moves buffers end-to-end:
  /// a packed send's staging vector becomes this member without a copy, and
  /// a whole-message receive can steal it back out.
  std::vector<std::byte> payload;
  /// Segmented sends ship one logical buffer as several wire messages
  /// without copying: each segment shares ownership of the buffer and views
  /// its own [shared_offset, shared_offset + shared_length) slice.  When
  /// `shared` is null the message is unsegmented and `payload` holds the
  /// bytes.
  std::shared_ptr<const std::vector<std::byte>> shared;
  std::int64_t shared_offset = 0;
  std::int64_t shared_length = 0;

  /// The bytes this wire message carries, wherever they live.
  [[nodiscard]] std::span<const std::byte> view() const {
    if (shared) {
      return std::span<const std::byte>(shared->data() + shared_offset,
                                        static_cast<std::size_t>(shared_length));
    }
    return payload;
  }

  [[nodiscard]] std::size_t size_bytes() const { return view().size(); }
};

}  // namespace bruck::mps
