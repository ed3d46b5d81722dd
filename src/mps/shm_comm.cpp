#include "mps/shm_comm.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <new>
#include <thread>
#include <utility>

#include "mps/doorbell.hpp"
#include "util/assert.hpp"

namespace bruck::mps {

namespace {

constexpr std::uint64_t kShmMagic = 0x6272'7563'6b73'686dULL;  // "bruckshm"

constexpr std::size_t align64(std::size_t v) { return (v + 63) & ~std::size_t{63}; }

}  // namespace

// ---------------------------------------------------------------------------
// ShmSegment

ShmSegment ShmSegment::create_anonymous(std::size_t bytes) {
  void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  BRUCK_REQUIRE_MSG(mem != MAP_FAILED, "mmap(MAP_SHARED|MAP_ANONYMOUS) failed");
  ShmSegment seg;
  seg.mem_ = mem;
  seg.bytes_ = bytes;
  return seg;
}

ShmSegment ShmSegment::create_named(const std::string& name, std::size_t bytes) {
  const int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  BRUCK_REQUIRE_MSG(fd >= 0, "shm_open(O_CREAT|O_EXCL) failed for " + name);
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    ::close(fd);
    ::shm_unlink(name.c_str());
    BRUCK_REQUIRE_MSG(false, "ftruncate failed for shm segment " + name);
  }
  void* mem =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (mem == MAP_FAILED) {
    ::shm_unlink(name.c_str());
    BRUCK_REQUIRE_MSG(false, "mmap failed for shm segment " + name);
  }
  ShmSegment seg;
  seg.mem_ = mem;
  seg.bytes_ = bytes;
  seg.unlink_name_ = name;
  return seg;
}

ShmSegment ShmSegment::open_named(const std::string& name, std::size_t bytes) {
  const int fd = ::shm_open(name.c_str(), O_RDWR, 0);
  BRUCK_REQUIRE_MSG(fd >= 0, "shm_open failed for " + name);
  void* mem =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  BRUCK_REQUIRE_MSG(mem != MAP_FAILED, "mmap failed for shm segment " + name);
  ShmSegment seg;
  seg.mem_ = mem;
  seg.bytes_ = bytes;
  return seg;
}

ShmSegment::ShmSegment(ShmSegment&& other) noexcept
    : mem_(std::exchange(other.mem_, nullptr)),
      bytes_(std::exchange(other.bytes_, 0)),
      unlink_name_(std::exchange(other.unlink_name_, {})) {}

ShmSegment& ShmSegment::operator=(ShmSegment&& other) noexcept {
  if (this != &other) {
    this->~ShmSegment();
    new (this) ShmSegment(std::move(other));
  }
  return *this;
}

ShmSegment::~ShmSegment() {
  if (mem_ != nullptr) ::munmap(mem_, bytes_);
  if (!unlink_name_.empty()) ::shm_unlink(unlink_name_.c_str());
}

// ---------------------------------------------------------------------------
// ShmComm

/// The shared control block at the front of a fabric region.  Everything a
/// rank needs to attach travels here, so openers pass only (region, rank).
struct ShmComm::Control {
  std::uint64_t magic;
  std::int64_t n;
  std::int32_t k;
  std::uint32_t record_trace;
  std::uint64_t ring_capacity;  ///< data bytes per ring (power of two)
  std::uint64_t ring_stride;    ///< 64-byte-aligned region bytes per ring
  std::int64_t recv_timeout_ms;
  alignas(64) std::atomic<std::uint64_t> barrier_arrived;
  alignas(64) std::atomic<std::uint64_t> barrier_generation;
  alignas(64) Doorbell barrier_bell;  ///< rung by the last arriver
  alignas(64) std::atomic<std::uint32_t> abort_flag;
};

/// One rank's wait state, on its own cache line after the control block.
struct alignas(64) ShmComm::RankLine {
  Doorbell bell;  ///< rung by every push into this rank's ring
  /// Producers waiting for space in this rank's ring (each parked on its
  /// own doorbell); the consumer rings all doorbells while it is nonzero.
  std::atomic<std::uint32_t> blocked_producers;
};

std::size_t ShmComm::control_area_bytes(std::int64_t n) {
  return align64(sizeof(Control)) +
         static_cast<std::size_t>(n) * sizeof(RankLine);
}

ShmComm::RankLine* ShmComm::rank_line(std::byte* region, std::int64_t rank) {
  return reinterpret_cast<RankLine*>(region + align64(sizeof(Control))) +
         rank;
}

std::byte* ShmComm::ring_base(std::byte* region, const Control* c,
                              std::int64_t rank) {
  return region + control_area_bytes(c->n) +
         static_cast<std::size_t>(rank) * c->ring_stride;
}

std::size_t ShmComm::region_bytes(const ShmFabricOptions& options) {
  const std::size_t cap = MpscByteRing::round_up_capacity(options.ring_bytes);
  const std::size_t stride = align64(MpscByteRing::region_bytes(cap));
  return control_area_bytes(options.n) +
         static_cast<std::size_t>(options.n) * stride;
}

void ShmComm::init_region(void* region, const ShmFabricOptions& options) {
  BRUCK_REQUIRE(options.n >= 1);
  BRUCK_REQUIRE(options.k >= 1);
  BRUCK_REQUIRE_MSG(reinterpret_cast<std::uintptr_t>(region) % 64 == 0,
                    "shm fabric region must be 64-byte aligned");
  const std::size_t cap = MpscByteRing::round_up_capacity(options.ring_bytes);
  const std::size_t stride = align64(MpscByteRing::region_bytes(cap));
  auto* base = static_cast<std::byte*>(region);
  std::memset(base, 0, control_area_bytes(options.n));
  auto* c = new (base) Control;
  c->n = options.n;
  c->k = options.k;
  c->record_trace = options.record_trace ? 1 : 0;
  c->ring_capacity = cap;
  c->ring_stride = stride;
  c->recv_timeout_ms = options.recv_timeout.count();
  c->barrier_arrived.store(0, std::memory_order_relaxed);
  c->barrier_generation.store(0, std::memory_order_relaxed);
  c->abort_flag.store(0, std::memory_order_relaxed);
  for (std::int64_t r = 0; r < options.n; ++r) {
    new (rank_line(base, r)) RankLine;
    rank_line(base, r)->blocked_producers.store(0, std::memory_order_relaxed);
    (void)MpscByteRing::create(ring_base(base, c, r), cap);
  }
  // Published last: a named-segment opener spins on the magic before
  // touching anything else in the region.
  reinterpret_cast<std::atomic<std::uint64_t>*>(&c->magic)->store(
      kShmMagic, std::memory_order_release);
}

void ShmComm::abort_region(void* region) {
  auto* base = static_cast<std::byte*>(region);
  auto* c = static_cast<Control*>(region);
  // seq_cst before the rings: every wait's predicate tests the flag.
  c->abort_flag.store(1, std::memory_order_seq_cst);
  (void)c->barrier_bell.ring();
  for (std::int64_t r = 0; r < c->n; ++r) (void)rank_line(base, r)->bell.ring();
}

ShmComm::Control* ShmComm::control() const {
  return reinterpret_cast<Control*>(region_);
}

ShmComm::RankLine& ShmComm::line(std::int64_t rank) const {
  return *rank_line(region_, rank);
}

ShmComm::ShmComm(void* region, std::int64_t rank)
    : WirePortEngine(
          [&] {
            // Wait for the initializer to publish the region (named-segment
            // openers may attach while init_region is still running).
            // Nothing rings for this, so it polls.
            auto* c = static_cast<Control*>(region);
            const DrainDeadline deadline(std::chrono::milliseconds(10000));
            while (reinterpret_cast<std::atomic<std::uint64_t>*>(&c->magic)
                       ->load(std::memory_order_acquire) != kShmMagic) {
              BRUCK_REQUIRE_MSG(!deadline.expired(),
                                "shm fabric region was never initialized");
              std::this_thread::yield();
            }
            return c->n;
          }(),
          WirePush::kCopy),
      region_(static_cast<std::byte*>(region)),
      rank_(rank) {
  Control* c = control();
  n_ = c->n;
  k_ = c->k;
  record_trace_ = c->record_trace != 0;
  recv_timeout_ = std::chrono::milliseconds(c->recv_timeout_ms);
  BRUCK_REQUIRE(rank_ >= 0 && rank_ < n_);
  inbound_ = MpscByteRing::open(ring_base(region_, c, rank_));
  peer_ring_.reserve(static_cast<std::size_t>(n_));
  for (std::int64_t r = 0; r < n_; ++r) {
    peer_ring_.push_back(MpscByteRing::open(ring_base(region_, c, r)));
  }
}

bool ShmComm::aborted() const {
  return control()->abort_flag.load(std::memory_order_seq_cst) != 0;
}

void ShmComm::check_abort() const {
  BRUCK_REQUIRE_MSG(!aborted(),
                    "shm fabric aborted: a peer rank exited abnormally");
}

void ShmComm::wire_push_bytes(std::int64_t dst, const WireFrame& frame,
                              std::span<const std::byte> bytes) {
  if (!peer_ring_[static_cast<std::size_t>(dst)].try_push(frame, bytes)) {
    push_under_backpressure(dst, frame, bytes);
  }
  (void)line(dst).bell.ring();
}

void ShmComm::push_under_backpressure(std::int64_t dst, const WireFrame& frame,
                                      std::span<const std::byte> bytes) {
  // The destination ring is full.  Drain our own inbound ring while waiting
  // — two ranks pushing into each other's full rings must not deadlock —
  // and park on our own doorbell, which rings on every push into our ring
  // and whenever the destination frees space while we count as blocked.
  MpscByteRing& ring = peer_ring_[static_cast<std::size_t>(dst)];
  std::atomic<std::uint32_t>& blocked = line(dst).blocked_producers;
  // seq_cst: pairs with the consumer's head store and blocked load.
  blocked.fetch_add(1, std::memory_order_seq_cst);
  struct Unblock {
    std::atomic<std::uint32_t>& count;
    ~Unblock() { count.fetch_sub(1, std::memory_order_relaxed); }
  } unblock{blocked};
  bool pushed = false;
  (void)line(rank_).bell.wait_until(
      [&] {
        if (aborted()) return true;
        drain_inbound();
        pushed = ring.try_push(frame, bytes);
        return pushed;
      },
      Doorbell::Clock::now() + recv_timeout_);
  check_abort();
  BRUCK_REQUIRE_MSG(pushed,
                    "shm fabric send timed out: destination ring stayed "
                    "full past the receive deadline (peer stuck?)");
}

void ShmComm::release_inbound() {
  inbound_.release();
  // seq_cst: pairs with a blocked producer's count increment (see
  // push_under_backpressure).  A ring costs one load when nobody is parked.
  if (line(rank_).blocked_producers.load(std::memory_order_seq_cst) != 0) {
    for (std::int64_t r = 0; r < n_; ++r) (void)line(r).bell.ring();
  }
}

void ShmComm::drain_inbound() {
  WireFrame frame;
  std::span<const std::byte> bytes;
  while (inbound_.peek(frame, bytes)) {
    Message m;
    m.src = frame.src;
    m.dst = rank_;
    m.seq = frame.seq;
    m.tag = frame.tag;
    m.round = frame.round;
    m.payload.assign(bytes.begin(), bytes.end());
    pending_in_.push_back(std::move(m));
    release_inbound();
  }
}

bool ShmComm::pull_one() {
  if (!pending_in_.empty()) {
    Message m = std::move(pending_in_.front());
    pending_in_.pop_front();
    accept(std::move(m));
    return true;
  }
  WireFrame frame;
  std::span<const std::byte> bytes;
  if (!inbound_.peek(frame, bytes)) return false;
  accept(frame, bytes);  // copies the bytes out of the slot
  release_inbound();
  return true;
}

bool ShmComm::wire_pull(std::span<const std::int64_t> waiting_srcs,
                        std::chrono::milliseconds timeout) {
  // Single inbound channel: the filter is unused (the engine stashes
  // messages from sources it is not yet waiting for).
  (void)waiting_srcs;
  if (pull_one()) return true;
  if (timeout.count() == 0) return false;
  const Doorbell::Clock::time_point deadline =
      Doorbell::Clock::now() + timeout;
  for (;;) {
    const bool ready = line(rank_).bell.wait_until(
        [this] { return inbound_.readable() || aborted(); }, deadline);
    check_abort();
    // A wrap pad reads as readable but carries no message: wait again.
    if (pull_one()) return true;
    if (!ready) return false;
  }
}

void ShmComm::record_send_event(int round, std::int64_t dst,
                                std::int64_t bytes, int tag) {
  if (record_trace_) sink_.record_send(round, dst, bytes, tag);
}

void ShmComm::record_plan_event(const PlanEvent& event) {
  if (record_trace_) sink_.record_plan(event);
}

void ShmComm::barrier() {
  Control* c = control();
  const std::uint64_t generation =
      c->barrier_generation.load(std::memory_order_acquire);
  const std::uint64_t arrived =
      c->barrier_arrived.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (arrived == static_cast<std::uint64_t>(n_)) {
    // Last arriver: reset the counter for the next generation, then release
    // everyone.  Waiters acquire the generation bump, which orders the
    // reset before any of their next-barrier arrivals.
    c->barrier_arrived.store(0, std::memory_order_relaxed);
    c->barrier_generation.fetch_add(1, std::memory_order_seq_cst);
    (void)c->barrier_bell.ring();
    return;
  }
  const bool released = c->barrier_bell.wait_until(
      [&] {
        return c->barrier_generation.load(std::memory_order_seq_cst) !=
                   generation ||
               aborted();
      },
      Doorbell::Clock::now() + recv_timeout_);
  check_abort();
  BRUCK_REQUIRE_MSG(released, "shm fabric barrier timed out waiting for peers");
}

}  // namespace bruck::mps
