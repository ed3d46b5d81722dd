// Lock-free multi-producer / single-consumer byte ring — the wire channel
// of the shared-memory fabric.  Unlike the thread fabric's inbox (a queue
// of moved Message handles, inbox.hpp) it is bounded and carries payload
// bytes inline, so the same region works across processes.
//
// Design: one contiguous power-of-two byte region indexed by two monotonic
// 64-bit offsets (`tail` = bytes reserved by producers, `head` = bytes
// consumed).  Producers reserve space with a CAS on `tail`, write their
// record body straight from the caller's bytes, then *publish* it by
// storing the record's commit word (seq_cst); the consumer walks records
// strictly in reservation order, waiting on an unpublished commit word even
// if later records are already published (per-ring FIFO is part of the
// wire contract — sequence numbers downstream assert it).  Records never
// wrap: a producer whose record would straddle the end of the region
// publishes a PAD record covering the tail gap and starts at offset 0 of
// the next lap.
//
// Consumption is in place: peek() hands out the oldest record's frame and a
// view of its payload inside the slot, and release() frees it.  Between
// the two the slot stays reserved — producers can never lap into it,
// because `head` has not moved — so the consumer copies the bytes straight
// to their destination with no intermediate buffer.  No view may outlive
// its release().
//
// Memory reclamation: release() zeroes a record's region before advancing
// `head`.  A producer's space check reads `head`, so any region it may
// write into is (a) free and (b) all-zero — which is what lets the
// consumer distinguish "reserved but not yet published" (commit word still
// 0) from garbage left by a previous lap.  (A commit word that also
// encoded the lap would not be enough on its own: with variable-size
// records a later lap's header can land on stale payload bytes of an
// earlier lap, which may hold any value.)
//
// The ring is *address-free*: all state is plain data + lock-free
// std::atomic offsets inside the region itself, so the same region mapped
// at different addresses in different processes (MAP_SHARED) works.  The
// single consumer must be the region's owning rank; producers may be any
// number of threads or processes.
//
// Blocking is the caller's job: try_push/peek never wait.  A full ring
// returns false from try_push (fabric backpressure — the shm communicator
// retries under its drain deadline); an empty or mid-publish ring returns
// false from peek.  The publish store, the head store and both sides'
// reads of them are seq_cst, so a waiter can park on a Doorbell
// (doorbell.hpp) with readable() or a try_push() as its predicate.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>

#include "mps/message.hpp"

namespace bruck::mps {

class MpscByteRing {
 public:
  /// An empty handle (no region attached); assign from create()/open()
  /// before use.
  MpscByteRing() = default;

  /// Bytes a region must provide for a ring of `capacity` data bytes
  /// (capacity must be a power of two; the header rides in front).
  [[nodiscard]] static std::size_t region_bytes(std::size_t capacity);

  /// Round `wanted` up to the smallest valid ring capacity (power of two,
  /// at least one max-size record's worth of headroom).
  [[nodiscard]] static std::size_t round_up_capacity(std::size_t wanted);

  /// Placement-initialize a ring over `region` (region_bytes(capacity)
  /// bytes; the region is fully zeroed here).  Returns a process-local
  /// handle; exactly one side (the consumer) initializes, everyone else
  /// opens.  The region itself is position-independent — handles in other
  /// processes may map it at different addresses.
  static MpscByteRing create(void* region, std::size_t capacity);

  /// Attach to a region initialized by create() (same or another process).
  static MpscByteRing open(void* region);

  /// Largest payload a single record may carry on a ring of this capacity.
  [[nodiscard]] std::size_t max_payload_bytes() const;

  /// Producer side (any thread or process): reserve-write-publish one
  /// record.  Returns false when the ring lacks space (retry after the
  /// consumer drains).  Throws ContractViolation if the payload can never
  /// fit (caller should size the ring for the fabric's largest wire
  /// segment).
  bool try_push(const WireFrame& frame, std::span<const std::byte> payload);

  /// Consumer side (owning rank only): the oldest published record, in
  /// place.  `payload` views the record's slot and stays valid until
  /// release().  Frees any wrap pads in front of it.  False when the ring
  /// is empty or the oldest reservation is not yet published.
  bool peek(WireFrame& frame, std::span<const std::byte>& payload);

  /// Consumer side: free the record the last successful peek() returned
  /// (zero its region, then advance `head`).
  void release();

  /// Consumer side: true when the oldest slot holds a published record or
  /// pad (one seq_cst load; a Doorbell predicate).
  [[nodiscard]] bool readable() const;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  static constexpr std::uint64_t kMagic = 0x6272'7563'6b72'696eULL;  // "bruckrin"
  static constexpr std::uint32_t kPadFlag = 0x8000'0000u;

  /// Per-record header, laid out at the record's start inside the region.
  /// `commit` is 0 while the record is reserved-but-unpublished; once
  /// published it holds the record's total size (kPadFlag set for pads).
  struct RecordHeader {
    std::atomic<std::uint32_t> commit;
    std::uint32_t payload_bytes;
    std::int64_t src;
    std::int64_t seq;
    std::int32_t tag;
    std::int32_t round;
  };
  static_assert(sizeof(RecordHeader) == 32);

  /// The shared control block at the front of the region.
  struct Control {
    std::uint64_t magic;
    std::uint64_t capacity;
    alignas(64) std::atomic<std::uint64_t> tail;  ///< bytes reserved
    alignas(64) std::atomic<std::uint64_t> head;  ///< bytes consumed
  };
  static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
                "the shm ring needs address-free lock-free 64-bit atomics");

  [[nodiscard]] RecordHeader* header_at(std::uint64_t slot) const {
    return reinterpret_cast<RecordHeader*>(data_ + slot);
  }
  /// The record at `head`, whose commit word the caller has read.
  [[nodiscard]] RecordHeader* head_record() const {
    return header_at(ctl_->head.load(std::memory_order_relaxed) &
                     (capacity_ - 1));
  }
  /// Zero `total` bytes at `head` and advance past them.
  void free_head(std::uint64_t total);

  Control* ctl_ = nullptr;
  std::byte* data_ = nullptr;
  std::size_t capacity_ = 0;
};

}  // namespace bruck::mps
