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
//  * wire_push(Message&&)  — move one wire segment toward its destination
//    (inbox push, ring push, socket write ...).  May block on fabric
//    backpressure, bounded by the fabric's own deadline discipline.
//  * wire_pop(waiting_srcs, timeout) — surface one arrived wire message for
//    this rank, blocking up to `timeout` (0 = poll).  The engine stashes
//    anything it is not yet waiting for, so fabrics that must drain their
//    channel eagerly (bounded rings) may return messages from any source.
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
  std::vector<std::byte> take_payload(PortHandle h) override;
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
  explicit WirePortEngine(std::int64_t peers);

  // -- Wire hooks a fabric must implement ----------------------------------

  /// Move one wire segment toward m.dst (src/seq/tag/round already set).
  virtual void wire_push(Message&& m) = 0;

  /// Surface one arrived wire message for this rank, blocking up to
  /// `timeout` (0 = nonblocking poll).  `waiting_srcs` lists the distinct
  /// sources with a pending receive — fabrics with per-source channels may
  /// use it as a pop filter; fabrics with one inbound channel ignore it and
  /// rely on the engine's stash.
  virtual std::optional<Message> wire_pop(
      std::span<const std::int64_t> waiting_srcs,
      std::chrono::milliseconds timeout) = 0;

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
    std::vector<std::byte> owned;  ///< buffer mode storage
    bool take_buffer = false;
    std::int64_t total = 0;  ///< logical message bytes
    int segments = 1;
    int seg_done = 0;
    std::int64_t offset = 0;  ///< next segment's write offset
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
  /// Split `payload` into wire segments and push them (records the logical
  /// send in the trace).
  void wire_send(int round, std::int64_t dst, std::vector<std::byte>&& payload,
                 int segments, int tag);
  PortHandle add_recv_op(RecvOp&& op);
  /// Write `m`'s bytes into the matched pending receive (FIFO seq and
  /// segment length checked); complete the op on its last segment.
  void deliver(std::list<RecvOp>::iterator it, Message&& m);
  /// Match one arrived wire message to the oldest pending (source, tag)
  /// receive, or stash it if its tag's receive is not posted yet.
  void apply_message(Message&& m);
  /// Deliver stashed (tag, src) messages that now have a pending receive.
  void drain_stash(int tag, std::int64_t src);
  /// Pop-and-apply one available message without blocking; false if none.
  bool try_progress();
  /// Pop-and-apply one message, blocking up to `deadline.remaining()`
  /// (expiry ⇒ ContractViolation naming the sources still awaited).
  void progress_blocking(const DrainDeadline& deadline);
  /// Report h as consumed: drop landing-mode bookkeeping.
  void retire_if_landing(PortHandle h);

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
  std::unordered_map<std::uint64_t, std::deque<Message>> stash_;
  std::size_t stashed_count_ = 0;
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
