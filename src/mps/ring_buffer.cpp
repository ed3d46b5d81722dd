#include "mps/ring_buffer.hpp"

#include <bit>
#include <cstring>

#include "util/assert.hpp"

namespace bruck::mps {

namespace {

constexpr std::size_t kRecordAlign = 8;

constexpr std::size_t align_up(std::size_t v) {
  return (v + (kRecordAlign - 1)) & ~(kRecordAlign - 1);
}

}  // namespace

std::size_t MpscByteRing::region_bytes(std::size_t capacity) {
  BRUCK_REQUIRE_MSG(std::has_single_bit(capacity),
                    "ring capacity must be a power of two");
  return sizeof(Control) + capacity;
}

std::size_t MpscByteRing::round_up_capacity(std::size_t wanted) {
  const std::size_t floor = 4096;
  return std::bit_ceil(wanted < floor ? floor : wanted);
}

MpscByteRing MpscByteRing::create(void* region, std::size_t capacity) {
  BRUCK_REQUIRE_MSG(std::has_single_bit(capacity),
                    "ring capacity must be a power of two");
  BRUCK_REQUIRE_MSG(reinterpret_cast<std::uintptr_t>(region) % 64 == 0,
                    "ring region must be 64-byte aligned");
  // Zero everything first: the empty-vs-unpublished discipline relies on
  // free space reading as zero commit words.
  std::memset(region, 0, region_bytes(capacity));
  MpscByteRing ring;
  ring.ctl_ = new (region) Control;
  ring.ctl_->capacity = capacity;
  ring.ctl_->tail.store(0, std::memory_order_relaxed);
  ring.ctl_->head.store(0, std::memory_order_relaxed);
  ring.data_ = static_cast<std::byte*>(region) + sizeof(Control);
  ring.capacity_ = capacity;
  // The magic is published last: attach-side open() spins on it when racing
  // a named-segment creator.
  reinterpret_cast<std::atomic<std::uint64_t>*>(&ring.ctl_->magic)
      ->store(kMagic, std::memory_order_release);
  return ring;
}

MpscByteRing MpscByteRing::open(void* region) {
  MpscByteRing ring;
  ring.ctl_ = static_cast<Control*>(region);
  const std::uint64_t magic =
      reinterpret_cast<std::atomic<std::uint64_t>*>(&ring.ctl_->magic)
          ->load(std::memory_order_acquire);
  BRUCK_REQUIRE_MSG(magic == kMagic, "ring region not initialized");
  ring.data_ = static_cast<std::byte*>(region) + sizeof(Control);
  ring.capacity_ = static_cast<std::size_t>(ring.ctl_->capacity);
  return ring;
}

std::size_t MpscByteRing::max_payload_bytes() const {
  // A record must leave room for itself plus a worst-case pad on one lap.
  return capacity_ / 2 - sizeof(RecordHeader);
}

bool MpscByteRing::try_push(const WireFrame& frame,
                            std::span<const std::byte> payload) {
  const std::size_t total =
      align_up(sizeof(RecordHeader) + payload.size());
  BRUCK_REQUIRE_MSG(
      payload.size() <= max_payload_bytes(),
      "wire segment larger than the shm ring (raise BRUCK_SHM_RING_BYTES)");
  std::uint64_t t = ctl_->tail.load(std::memory_order_relaxed);
  std::uint64_t pad = 0;
  for (;;) {
    const std::uint64_t pos = t & (capacity_ - 1);
    const std::uint64_t to_end = capacity_ - pos;
    pad = to_end < total ? to_end : 0;
    // seq_cst: pairs with release()'s head store for a producer parked on
    // a Doorbell until space frees up.
    const std::uint64_t head = ctl_->head.load(std::memory_order_seq_cst);
    if (t + pad + total - head > capacity_) return false;  // full
    if (ctl_->tail.compare_exchange_weak(t, t + pad + total,
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
      break;
    }
    // t was reloaded by the failed CAS; recompute pad/space.
  }
  const std::uint64_t pos = t & (capacity_ - 1);
  if (pad != 0) {
    // Publish the tail-gap pad record; the real record starts at offset 0.
    // The pad region beyond its commit word is already zero (consumer
    // zeroes on free), so nothing else to write.
    header_at(pos)->commit.store(static_cast<std::uint32_t>(pad) | kPadFlag,
                                 std::memory_order_release);
  }
  const std::uint64_t slot = pad != 0 ? 0 : pos;
  RecordHeader* h = header_at(slot);
  h->payload_bytes = static_cast<std::uint32_t>(payload.size());
  h->src = frame.src;
  h->seq = frame.seq;
  h->tag = frame.tag;
  h->round = frame.round;
  if (!payload.empty()) {
    std::memcpy(data_ + slot + sizeof(RecordHeader), payload.data(),
                payload.size());
  }
  // seq_cst: a consumer parked on a Doorbell tests readable() after
  // announcing itself, and the pusher rings after this store.
  h->commit.store(static_cast<std::uint32_t>(total),
                  std::memory_order_seq_cst);
  return true;
}

bool MpscByteRing::readable() const {
  return head_record()->commit.load(std::memory_order_seq_cst) != 0;
}

void MpscByteRing::free_head(std::uint64_t total) {
  const std::uint64_t head = ctl_->head.load(std::memory_order_relaxed);
  // Zero before freeing: the next lap's producers must find zero commit
  // words anywhere in the region they reserve.
  std::memset(data_ + (head & (capacity_ - 1)), 0,
              static_cast<std::size_t>(total));
  ctl_->head.store(head + total, std::memory_order_seq_cst);
}

bool MpscByteRing::peek(WireFrame& frame, std::span<const std::byte>& payload) {
  for (;;) {
    const RecordHeader* h = head_record();
    const std::uint32_t commit = h->commit.load(std::memory_order_acquire);
    if (commit == 0) return false;  // empty, or oldest record mid-write
    if ((commit & kPadFlag) != 0) {
      free_head(commit & ~kPadFlag);  // tail-gap pad: next lap
      continue;
    }
    frame.src = h->src;
    frame.seq = h->seq;
    frame.tag = h->tag;
    frame.round = h->round;
    payload = std::span<const std::byte>(
        reinterpret_cast<const std::byte*>(h) + sizeof(RecordHeader),
        h->payload_bytes);
    return true;
  }
}

void MpscByteRing::release() {
  const std::uint32_t commit =
      head_record()->commit.load(std::memory_order_relaxed);
  BRUCK_REQUIRE_MSG(commit != 0 && (commit & kPadFlag) == 0,
                    "ring release() without a peeked record");
  free_head(commit);
}

}  // namespace bruck::mps
