// The shared *native* implementation of the nonblocking port-engine
// contract, factored out of ThreadComm so that every real fabric — threads
// with lock-free inboxes, processes over shared-memory rings, processes over TCP —
// runs the exact same matching/ordering machinery and differs only in how
// wire messages physically move.
//
// A WirePortEngine owns the receive side of the contract entirely:
// pending-receive matching in per-(tag, source) FIFO order, wire-segment
// sequence and length checks, the early-arrival stash for tags whose
// receive is not posted yet, per-tag round monotonicity and port budgets,
// and arrival-order completion reporting.  All of that state is touched
// only by the owning rank's thread (the engine's single-thread contract),
// so a subclass's wire hooks never need to synchronize with the engine.
//
// A fabric subclass implements three hooks:
//  * a push hook — move one wire segment toward its destination.  Which
//    one the engine calls is fixed at construction (WirePush): a kMove
//    fabric (the thread inboxes) is handed owned Message buffers through
//    wire_push(Message&&); a kCopy fabric (the shm ring), which copies
//    every byte onto the wire anyway, is handed each segment as a view of
//    the sender's buffer through wire_push_bytes(), so a send is captured
//    straight from the caller's span with no staging copy.  Either may
//    block on fabric backpressure, bounded by the fabric's own deadline
//    discipline.
//  * wire_pull(waiting_srcs, timeout) — hand at most one arrived wire
//    message to accept(), blocking up to `timeout` (0 = poll).  A fabric
//    that owns the message passes it by value (accept(Message&&)); one
//    that can consume it in place passes its frame and a view of its bytes
//    (accept(frame, bytes)), valid only for the call — the engine copies
//    them straight into the posted receive.  The engine stashes anything
//    it is not yet waiting for, so fabrics that must drain their channel
//    eagerly (bounded rings) may surface messages from any source.
//  * record_send_event(...) — the trace hook (one event per *logical* send).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mps/communicator.hpp"
#include "mps/message.hpp"

namespace bruck::mps {

/// Byte length of segment `i` of a `total`-byte payload split `segments`
/// ways: the remainder is spread over the leading segments, so sender and
/// receiver derive identical layouts from (total, segments) alone.
[[nodiscard]] std::int64_t wire_segment_length(std::int64_t total, int segments,
                                               int i);

/// Effective wire segment count: never more segments than bytes.
[[nodiscard]] int effective_wire_segments(std::int64_t total, int segments);

/// How a fabric takes outgoing wire segments (see the header comment).
enum class WirePush {
  kMove,  ///< owned buffers, via wire_push(Message&&)
  kCopy,  ///< views of the sender's bytes, via wire_push_bytes()
};

class WirePortEngine : public Communicator {
 public:
  void post_send(int round, std::int64_t dst, std::span<const std::byte> data,
                 int segments = 1, int tag = 0) override;
  void post_send(int round, std::int64_t dst, std::vector<std::byte>&& data,
                 int segments = 1, int tag = 0) override;
  PortHandle post_recv(int round, std::int64_t src, std::span<std::byte> data,
                       int segments = 1, int tag = 0) override;
  PortHandle post_recv_buffer(int round, std::int64_t src, std::int64_t bytes,
                              int segments = 1, int tag = 0) override;
  std::span<const std::byte> take_payload(PortHandle h) override;
  bool test_recv(PortHandle h) override;
  void wait_recv(PortHandle h) override;
  PortHandle wait_any_recv() override;
  PortHandle wait_any_recv_within(const DrainDeadline& deadline) override;
  void wait_all_recvs() override;
  std::optional<PortHandle> poll_any_recv() override;
  void release_tag(int tag) override;
  [[nodiscard]] bool native_port_engine() const override { return true; }

  /// Highest round index this rank has posted in the default (tag-0)
  /// namespace, or −1.  Tagged namespaces keep their own counters.
  [[nodiscard]] int last_round() const { return tag0_rounds_.last_round; }

 protected:
  /// `peers` is the fabric size (dense per-peer sequence tables).
  WirePortEngine(std::int64_t peers, WirePush push);

  // -- Wire hooks a fabric must implement ----------------------------------

  /// kMove fabrics: move one wire segment toward m.dst (src/seq/tag/round
  /// already set).
  virtual void wire_push(Message&& m);

  /// kCopy fabrics: copy one wire segment (`bytes`, a view of the sender's
  /// buffer) onto the wire toward `dst` before returning.
  virtual void wire_push_bytes(std::int64_t dst, const WireFrame& frame,
                               std::span<const std::byte> bytes);

  /// Hand at most one arrived wire message for this rank to accept(),
  /// blocking up to `timeout` (0 = nonblocking poll); false if none came.
  /// `waiting_srcs` lists the distinct sources with a pending receive —
  /// fabrics with per-source channels may use it as a pop filter; fabrics
  /// with one inbound channel ignore it and rely on the engine's stash.
  virtual bool wire_pull(std::span<const std::int64_t> waiting_srcs,
                         std::chrono::milliseconds timeout) = 0;

  /// Take one wire message the fabric owns (its buffer may be stolen).
  void accept(Message&& m);
  /// Take one wire message in place: `bytes` is only read during the call.
  void accept(const WireFrame& frame, std::span<const std::byte> bytes);

  /// One *logical* send (regardless of wire segmentation), at post time.
  virtual void record_send_event(int round, std::int64_t dst,
                                 std::int64_t bytes, int tag) = 0;

 private:
  /// One posted logical receive.
  struct RecvOp {
    PortHandle handle = 0;
    std::int64_t src = 0;
    int tag = 0;
    int round = 0;
    std::span<std::byte> landing;  ///< copy-into mode target
    /// Buffer mode storage: a stolen wire payload, or a pooled buffer the
    /// segments are appended to (`pooled`).
    std::vector<std::byte> owned;
    bool pooled = false;
    bool take_buffer = false;
    std::int64_t total = 0;  ///< logical message bytes
    int segments = 1;
    int seg_done = 0;
    std::int64_t offset = 0;  ///< next segment's write offset
  };

  /// An early arrival: a wire message whose receive is not posted yet.
  /// `pooled` marks a payload copied out of a fabric's slot into a pooled
  /// buffer (accept(frame, bytes)); otherwise it is the fabric's own.
  struct Early {
    Message m;
    bool pooled = false;
  };
  /// One (tag, source) channel's early arrivals in FIFO order.  Kept when
  /// drained, so a steady stream of early arrivals reuses its storage.
  struct EarlyQueue {
    std::vector<Early> items;
    std::size_t head = 0;
    [[nodiscard]] bool empty() const { return head == items.size(); }
  };

  /// Round/port-budget counters of one tag namespace.
  struct TagRoundState {
    int last_round = -1;
    int sends_in_round = 0;
    int recvs_in_round = 0;
  };

  /// Composite key for per-(tag, peer) state maps.
  [[nodiscard]] static std::uint64_t tag_peer_key(int tag, std::int64_t peer) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)) << 32) |
           static_cast<std::uint32_t>(peer);
  }

  [[nodiscard]] TagRoundState& round_state(int tag);
  [[nodiscard]] std::int64_t& send_seq(int tag, std::int64_t dst);
  [[nodiscard]] std::int64_t& recv_seq(int tag, std::int64_t src);

  /// Shared post-side contract checks; advances the tag's round counters.
  void check_post(int round, std::int64_t peer, std::int64_t bytes,
                  bool is_send, int tag);
  /// Split `payload` into wire segments and push them as owned buffers
  /// (kMove; records the logical send in the trace).
  void wire_send(int round, std::int64_t dst, std::vector<std::byte>&& payload,
                 int segments, int tag);
  /// Split `payload` into wire segments and push each as a view (kCopy;
  /// records the logical send in the trace).
  void wire_send_bytes(int round, std::int64_t dst,
                       std::span<const std::byte> payload, int segments,
                       int tag);
  PortHandle add_recv_op(RecvOp&& op);
  /// The oldest pending receive for (src, tag), or recv_ops_.end().
  [[nodiscard]] std::list<RecvOp>::iterator find_op(std::int64_t src, int tag);
  /// Write one wire segment (`bytes`, FIFO seq and segment length checked)
  /// into the matched pending receive; complete the op on its last
  /// segment.  `whole`, when non-null, owns `bytes` and may be stolen by
  /// an unsegmented buffer-mode receive (`whole_pooled` says where it came
  /// from).
  void deliver(std::list<RecvOp>::iterator it, std::int64_t src,
               std::int64_t seq, std::span<const std::byte> bytes,
               std::vector<std::byte>* whole, bool whole_pooled);
  /// Queue an early arrival for (tag, src).
  void stash(Early&& e);
  /// Deliver stashed (tag, src) messages that now have a pending receive.
  void drain_stash(int tag, std::int64_t src);
  /// A pooled buffer (empty, possibly with capacity) and its return.
  [[nodiscard]] std::vector<std::byte> take_spare();
  void recycle(std::vector<std::byte>&& buffer);
  /// Pop-and-apply one available message without blocking; false if none.
  bool try_progress();
  /// Pop-and-apply one message, blocking up to `deadline.remaining()`
  /// (expiry ⇒ ContractViolation naming the sources still awaited).
  void progress_blocking(const DrainDeadline& deadline);
  /// Report h as consumed: drop landing-mode bookkeeping.
  void retire_if_landing(PortHandle h);

  const WirePush push_;
  TagRoundState tag0_rounds_;                          // tag-0 hot path
  std::unordered_map<int, TagRoundState> tag_rounds_;  // tags > 0
  // Wire sequencing is per (tag, peer) channel; tag 0 keeps dense per-rank
  // vectors as its hot path.
  std::vector<std::int64_t> send_seq0_;  // per-destination next sequence
  std::vector<std::int64_t> recv_seq0_;  // per-source next expected sequence
  std::unordered_map<std::uint64_t, std::int64_t> send_seq_tagged_;
  std::unordered_map<std::uint64_t, std::int64_t> recv_seq_tagged_;
  // Early arrivals: wire messages popped for a (tag, src) with no pending
  // receive yet, in arrival (= per-channel FIFO) order.
  std::unordered_map<std::uint64_t, EarlyQueue> stash_;
  std::size_t stashed_count_ = 0;
  // Buffer-mode and early-arrival storage, reused across calls: buffers the
  // engine filled by copy return here once consumed, so a steady stream of
  // receives allocates nothing and never zero-fills.
  std::vector<std::vector<std::byte>> spare_;
  std::vector<std::byte> lent_;  ///< the last take_payload() result
  bool lent_pooled_ = false;
  std::list<RecvOp> recv_ops_;  // incomplete, in post order
  // Distinct sources with ≥1 incomplete receive, maintained incrementally
  // (the receive hot path consults this once per arriving wire message).
  std::vector<std::int64_t> waiting_srcs_;
  std::unordered_map<std::int64_t, int> pending_per_src_;
  std::unordered_set<PortHandle> incomplete_;
  std::unordered_map<PortHandle, RecvOp> completed_;
  std::deque<PortHandle> unreported_;  // completed, not yet handed out
  PortHandle next_handle_ = 1;
};

}  // namespace bruck::mps
