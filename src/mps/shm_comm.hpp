// Shared-memory process fabric: the first *real* transport backend.
//
// Layout of one POSIX shared-memory region (anonymous MAP_SHARED inherited
// across fork(), or shm_open()-named for independently launched processes):
//
//   [ ShmControl | rank line 0 .. n-1 | ring 0 | ring 1 | ... | ring n-1 ]
//
// ShmControl carries the fabric geometry (n, k, ring bytes, trace flag,
// receive timeout) so attaching needs nothing but the region and a rank,
// plus a generation-based sense-reversing barrier with its own doorbell and
// an abort flag.  Rank line i (one cache line each) holds rank i's
// doorbell and the count of producers blocked on its full ring.  Ring i is
// the MPSC inbound channel of rank i: any rank may push (producers), only
// rank i consumes — the cross-process counterpart of the thread fabric's
// lock-free Inbox, with payload bytes copied into a bounded MpscByteRing
// instead of message handles moved through an unbounded queue.
//
// ShmComm subclasses WirePortEngine, so the entire nonblocking port-engine
// contract — matching, per-tag sequencing, early-arrival stash, drain
// deadlines — is the same tested machinery ThreadComm runs; only the wire
// hooks differ.  The data path copies each payload byte once per side: a
// send pushes every wire segment from the caller's span straight into the
// destination ring (WirePush::kCopy), and a receive hands the engine each
// record in place, which copies it straight from the ring slot into the
// posted landing span or the engine's reusable buffer-mode storage before
// the slot is freed.  Because rings are bounded, a push under backpressure
// *eagerly drains* this rank's own inbound ring into a local pending queue
// (copied out) while waiting for space — two ranks pushing into each
// other's full rings would otherwise deadlock; wire_pull serves that queue
// first.
//
// Waits (a receive on an empty ring, a push on a full one, the barrier)
// spin, yield, then park on a Doorbell (doorbell.hpp) in the region: a push
// rings its destination's doorbell after publishing; a consumer that frees
// ring space while producers are blocked on it rings every rank's
// doorbell (a blocked producer waits on its own, so inbound traffic wakes
// it too); the last barrier arriver rings the barrier's.
//
// Failure story: the launcher (spawn_local) sets the region's abort flag
// when any rank process dies and rings every doorbell, and every wait in
// here tests the flag — surviving ranks throw a ContractViolation instead
// of hanging until their drain deadline.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "mps/port_engine.hpp"
#include "mps/ring_buffer.hpp"
#include "mps/trace.hpp"

namespace bruck::mps {

/// Geometry + policy of a shared-memory fabric, fixed at region init.
struct ShmFabricOptions {
  std::int64_t n = 1;
  int k = 1;
  /// Capacity of each rank's inbound ring (rounded up to a power of two).
  /// One wire segment must fit in half a ring; the engine throws with a
  /// pointer at BRUCK_SHM_RING_BYTES when a payload cannot.
  std::size_t ring_bytes = std::size_t{1} << 20;
  bool record_trace = true;
  std::chrono::milliseconds recv_timeout{30000};
};

/// RAII POSIX shared-memory mapping.  Anonymous mappings are created before
/// fork() and inherited; named mappings bootstrap independently launched
/// processes via shm_open().
class ShmSegment {
 public:
  /// MAP_SHARED | MAP_ANONYMOUS region (fork-inheritance bootstrap).
  static ShmSegment create_anonymous(std::size_t bytes);

  /// Create (O_CREAT | O_EXCL) and map a named segment; the creating
  /// segment unlinks the name on destruction.
  static ShmSegment create_named(const std::string& name, std::size_t bytes);

  /// Map an existing named segment created by another process.
  static ShmSegment open_named(const std::string& name, std::size_t bytes);

  ShmSegment() = default;
  ShmSegment(ShmSegment&& other) noexcept;
  ShmSegment& operator=(ShmSegment&& other) noexcept;
  ShmSegment(const ShmSegment&) = delete;
  ShmSegment& operator=(const ShmSegment&) = delete;
  ~ShmSegment();

  [[nodiscard]] void* data() const { return mem_; }
  [[nodiscard]] std::size_t size() const { return bytes_; }

 private:
  void* mem_ = nullptr;
  std::size_t bytes_ = 0;
  std::string unlink_name_;  ///< non-empty on the creating side of a named segment
};

class ShmComm final : public WirePortEngine {
 public:
  /// Bytes a region must provide for a fabric of these options.
  [[nodiscard]] static std::size_t region_bytes(const ShmFabricOptions& options);

  /// Initialize a region (control block + all n rings).  Exactly one
  /// process calls this, before any rank attaches; attach-side magic
  /// checks catch ordering mistakes.
  static void init_region(void* region, const ShmFabricOptions& options);

  /// Raise the region's abort flag and ring every doorbell: every rank
  /// blocked in this fabric throws promptly instead of waiting out its
  /// deadline.  Safe from any process mapping the region (the launcher
  /// calls it on child death).
  static void abort_region(void* region);

  /// Attach rank `rank` to an initialized region.  The region must outlive
  /// the communicator.
  ShmComm(void* region, std::int64_t rank);

  [[nodiscard]] std::int64_t rank() const override { return rank_; }
  [[nodiscard]] std::int64_t size() const override { return n_; }
  [[nodiscard]] int ports() const override { return k_; }
  [[nodiscard]] std::chrono::milliseconds recv_timeout() const override {
    return recv_timeout_;
  }
  void barrier() override;
  void record_plan_event(const PlanEvent& event) override;

  /// This rank's locally recorded events; the launcher ships them back to
  /// the parent to assemble a full Trace.
  [[nodiscard]] const TraceSink& trace_sink() const { return sink_; }

 protected:
  void wire_push_bytes(std::int64_t dst, const WireFrame& frame,
                       std::span<const std::byte> bytes) override;
  bool wire_pull(std::span<const std::int64_t> waiting_srcs,
                 std::chrono::milliseconds timeout) override;
  void record_send_event(int round, std::int64_t dst, std::int64_t bytes,
                         int tag) override;

 private:
  struct Control;
  struct RankLine;
  [[nodiscard]] static std::size_t control_area_bytes(std::int64_t n);
  [[nodiscard]] static RankLine* rank_line(std::byte* region,
                                           std::int64_t rank);
  [[nodiscard]] static std::byte* ring_base(std::byte* region, const Control* c,
                                            std::int64_t rank);
  [[nodiscard]] Control* control() const;
  [[nodiscard]] RankLine& line(std::int64_t rank) const;
  /// Whether the abort flag is up (seq_cst: a Doorbell predicate).
  [[nodiscard]] bool aborted() const;
  /// Throw if the abort flag is up (peer death / launcher teardown).
  void check_abort() const;
  /// Hand the oldest pending or inbound message to the engine; false if
  /// there is none yet.
  bool pull_one();
  /// Free the peeked inbound record and wake producers blocked on space.
  void release_inbound();
  /// Copy every published inbound record into `pending_in_`.
  void drain_inbound();
  /// Retry a push into dst's full ring until it fits (or the deadline).
  void push_under_backpressure(std::int64_t dst, const WireFrame& frame,
                               std::span<const std::byte> bytes);

  std::byte* region_ = nullptr;
  std::int64_t rank_ = 0;
  std::int64_t n_ = 0;
  int k_ = 1;
  bool record_trace_ = false;
  std::chrono::milliseconds recv_timeout_{30000};
  MpscByteRing inbound_;                 ///< this rank's ring (consumer side)
  std::vector<MpscByteRing> peer_ring_;  ///< producer handles, indexed by dst
  /// Messages drained from `inbound_` while waiting out push backpressure.
  std::deque<Message> pending_in_;
  TraceSink sink_;
};

}  // namespace bruck::mps
