// TCP socket fabric: the inter-node transport backend (exercised over
// loopback in this repo's tests; the wire protocol is host-order and
// assumes a homogeneous cluster).
//
// Topology is a full mesh of TCP connections bootstrapped
// connect-to-lower / accept-from-higher: rank i dials every rank j < i
// (each dial opens with a hello frame naming the dialer's rank) and
// accepts one connection from every rank j > i.  The launcher hands each
// rank its pre-bound listening socket plus the port table, so no rank
// races another for an address.
//
// Wire protocol: length-framed records, one FrameHeader (40 bytes,
// host-order) followed by the payload.  Data frames carry one port-engine
// wire segment; hello frames bootstrap; barrier frames implement a
// rank-0-coordinated barrier (everyone sends arrive to rank 0, rank 0
// broadcasts release).
//
// All sockets run nonblocking under one epoll instance per rank.  Sends
// append to a per-peer outbox and flush opportunistically — partial
// writes (short ::send) simply leave the tail in the outbox, and the
// BRUCK_SOCKET_MAX_WRITE_BYTES knob caps each ::send so tests can force
// that path deterministically.  Receives parse incrementally: a frame
// split across arbitrarily many TCP reads assembles correctly.
//
// Failure story: a peer that dies drops its connection; EOF on a socket
// marks the peer dead, and any blocking wait that still needs traffic
// from a dead peer throws a ContractViolation immediately instead of
// waiting out the drain deadline.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "mps/port_engine.hpp"
#include "mps/trace.hpp"

namespace bruck::mps {

/// Everything one rank needs to join a socket fabric.
struct SocketFabricOptions {
  std::int64_t n = 1;
  std::int64_t rank = 0;
  int k = 1;
  /// This rank's already-bound, already-listening socket (ownership moves
  /// to the communicator).
  int listen_fd = -1;
  /// Loopback listen ports indexed by rank.
  std::vector<std::uint16_t> ports;
  bool record_trace = true;
  std::chrono::milliseconds recv_timeout{30000};
};

/// A set of pre-bound loopback listeners, one per rank, created by the
/// launcher before forking so every rank knows every port up front.
struct SocketListeners {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
};

/// Bind and listen on `n` ephemeral loopback ports (127.0.0.1:0).
[[nodiscard]] SocketListeners create_loopback_listeners(std::int64_t n);

class SocketComm final : public WirePortEngine {
 public:
  explicit SocketComm(SocketFabricOptions options);
  ~SocketComm() override;

  [[nodiscard]] std::int64_t rank() const override { return options_.rank; }
  [[nodiscard]] std::int64_t size() const override { return options_.n; }
  [[nodiscard]] int ports() const override { return options_.k; }
  [[nodiscard]] std::chrono::milliseconds recv_timeout() const override {
    return options_.recv_timeout;
  }
  void barrier() override;
  void record_plan_event(const PlanEvent& event) override;

  /// This rank's locally recorded events (the launcher ships them home).
  [[nodiscard]] const TraceSink& trace_sink() const { return sink_; }

 protected:
  void wire_push(Message&& m) override;
  bool wire_pull(std::span<const std::int64_t> waiting_srcs,
                 std::chrono::milliseconds timeout) override;
  void record_send_event(int round, std::int64_t dst, std::int64_t bytes,
                         int tag) override;

 private:
  /// Per-peer connection state: the socket, its unsent outbox tail, and the
  /// incremental parse buffer of its inbound byte stream.
  struct Peer {
    int fd = -1;
    bool eof = false;
    std::deque<std::byte> outbox;
    std::vector<std::byte> inbuf;
  };

  void connect_mesh();
  /// Append one frame (header + payload) to dst's outbox and try to flush.
  void enqueue_frame(std::int64_t dst, std::uint32_t kind, std::int64_t seq,
                     std::int32_t tag, std::int32_t round,
                     std::span<const std::byte> payload);
  /// Write as much of peer's outbox as the socket accepts (short writes
  /// leave the tail; EPIPE/reset ⇒ ContractViolation naming the peer).
  void flush_outbox(std::int64_t peer);
  void flush_all_outboxes();
  /// Drain readable bytes from peer's socket into its parse buffer and
  /// extract complete frames (data ⇒ inbox_, barrier ⇒ counters).
  void read_from_peer(std::int64_t peer);
  /// One epoll pass: flush outboxes, wait up to `wait`, ingest readable
  /// sockets.  Returns true if any frame or write progress happened.
  bool pump(std::chrono::milliseconds wait);
  /// Throw if `src` is dead with nothing buffered while traffic from it is
  /// still required.
  void require_alive(std::int64_t src) const;

  SocketFabricOptions options_;
  int epoll_fd_ = -1;
  std::size_t max_write_bytes_;  ///< per-::send cap (test knob)
  std::vector<Peer> peers_;      ///< indexed by rank; self entry unused
  std::deque<Message> inbox_;    ///< parsed data frames, arrival order
  // Rank-0-coordinated barrier state.
  std::int64_t barrier_arrivals_ = 0;  ///< rank 0: arrive frames this generation
  std::int64_t barrier_generation_ = 0;
  std::int64_t barrier_release_seen_ = -1;  ///< ranks != 0: last release generation
  TraceSink sink_;
};

}  // namespace bruck::mps
