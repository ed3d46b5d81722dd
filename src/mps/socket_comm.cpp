#include "mps/socket_comm.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>
#include <thread>

#include "mps/bootstrap.hpp"
#include "util/assert.hpp"

namespace bruck::mps {

namespace {

constexpr std::uint32_t kFrameMagic = 0x6272'466dU;  // "brFm"

enum FrameKind : std::uint32_t {
  kData = 0,
  kHello = 1,
  kBarrierArrive = 2,
  kBarrierRelease = 3,
};

/// The 40-byte wire frame header (host byte order: loopback / homogeneous
/// cluster protocol).
struct FrameHeader {
  std::uint32_t magic;
  std::uint32_t kind;
  std::int64_t src;
  std::int64_t seq;
  std::int32_t tag;
  std::int32_t round;
  std::uint64_t payload_bytes;
};
static_assert(sizeof(FrameHeader) == 40);
static_assert(std::is_trivially_copyable_v<FrameHeader>);

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  BRUCK_REQUIRE_MSG(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                    "fcntl(O_NONBLOCK) failed");
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Blocking full write during bootstrap (sockets are still blocking there).
void write_fully(int fd, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const std::byte*>(data);
  while (bytes > 0) {
    const ssize_t w = ::send(fd, p, bytes, MSG_NOSIGNAL);
    BRUCK_REQUIRE_MSG(w > 0, "socket bootstrap write failed");
    p += w;
    bytes -= static_cast<std::size_t>(w);
  }
}

/// Blocking full read during bootstrap.
void read_fully(int fd, void* data, std::size_t bytes) {
  auto* p = static_cast<std::byte*>(data);
  while (bytes > 0) {
    const ssize_t r = ::recv(fd, p, bytes, 0);
    BRUCK_REQUIRE_MSG(r > 0, "socket bootstrap read failed (peer died?)");
    p += r;
    bytes -= static_cast<std::size_t>(r);
  }
}

}  // namespace

SocketListeners create_loopback_listeners(std::int64_t n) {
  SocketListeners out;
  out.fds.reserve(static_cast<std::size_t>(n));
  out.ports.reserve(static_cast<std::size_t>(n));
  for (std::int64_t r = 0; r < n; ++r) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    BRUCK_REQUIRE_MSG(fd >= 0, "socket() failed");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // kernel-assigned ephemeral port
    BRUCK_REQUIRE_MSG(
        ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0,
        "bind(127.0.0.1:0) failed");
    BRUCK_REQUIRE_MSG(::listen(fd, 128) == 0, "listen() failed");
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    BRUCK_REQUIRE_MSG(
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0,
        "getsockname() failed");
    out.fds.push_back(fd);
    out.ports.push_back(ntohs(bound.sin_port));
  }
  return out;
}

SocketComm::SocketComm(SocketFabricOptions options)
    : WirePortEngine(options.n, WirePush::kMove),
      options_(std::move(options)),
      max_write_bytes_(default_socket_max_write_bytes()) {
  BRUCK_REQUIRE(options_.rank >= 0 && options_.rank < options_.n);
  BRUCK_REQUIRE(static_cast<std::int64_t>(options_.ports.size()) == options_.n);
  epoll_fd_ = ::epoll_create1(0);
  BRUCK_REQUIRE_MSG(epoll_fd_ >= 0, "epoll_create1 failed");
  connect_mesh();
}

void SocketComm::connect_mesh() {
  const std::int64_t n = options_.n;
  const std::int64_t rank = options_.rank;
  peers_.resize(static_cast<std::size_t>(n));

  // Dial every lower rank, opening each connection with a hello frame that
  // names us (the accepter cannot tell ranks apart otherwise).
  for (std::int64_t r = 0; r < rank; ++r) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    BRUCK_REQUIRE_MSG(fd >= 0, "socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.ports[static_cast<std::size_t>(r)]);
    const DrainDeadline deadline(options_.recv_timeout);
    for (;;) {
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        break;
      }
      BRUCK_REQUIRE_MSG(
          (errno == ECONNREFUSED || errno == EINTR) && !deadline.expired(),
          "connect to peer rank " + std::to_string(r) + " failed");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    FrameHeader hello{};
    hello.magic = kFrameMagic;
    hello.kind = kHello;
    hello.src = rank;
    write_fully(fd, &hello, sizeof(hello));
    peers_[static_cast<std::size_t>(r)].fd = fd;
  }

  // Accept one connection from every higher rank; the hello frame tells us
  // which rank dialed (accept order is arbitrary).
  const DrainDeadline accept_deadline(options_.recv_timeout);
  for (std::int64_t pending = n - 1 - rank; pending > 0; --pending) {
    pollfd pfd{options_.listen_fd, POLLIN, 0};
    for (;;) {
      const int pr =
          ::poll(&pfd, 1,
                 static_cast<int>(
                     std::min<std::int64_t>(accept_deadline.remaining().count(),
                                            100)));
      if (pr > 0) break;
      BRUCK_REQUIRE_MSG(!accept_deadline.expired(),
                        "timed out accepting fabric connections");
    }
    const int fd = ::accept(options_.listen_fd, nullptr, nullptr);
    BRUCK_REQUIRE_MSG(fd >= 0, "accept() failed");
    FrameHeader hello{};
    read_fully(fd, &hello, sizeof(hello));
    BRUCK_REQUIRE_MSG(hello.magic == kFrameMagic && hello.kind == kHello &&
                          hello.src > rank && hello.src < n,
                      "bad hello frame during fabric bootstrap");
    BRUCK_REQUIRE_MSG(peers_[static_cast<std::size_t>(hello.src)].fd < 0,
                      "duplicate hello from one rank");
    peers_[static_cast<std::size_t>(hello.src)].fd = fd;
  }
  ::close(options_.listen_fd);
  options_.listen_fd = -1;

  for (std::int64_t r = 0; r < n; ++r) {
    if (r == rank) continue;
    Peer& p = peers_[static_cast<std::size_t>(r)];
    set_nonblocking(p.fd);
    set_nodelay(p.fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = static_cast<std::uint64_t>(r);
    BRUCK_REQUIRE_MSG(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, p.fd, &ev) == 0,
                      "epoll_ctl(ADD) failed");
  }
}

SocketComm::~SocketComm() {
  // Flush every outbox before closing: our sends complete at post time, so
  // unsent tails would otherwise vanish with the connection.  TCP delivers
  // everything written before close(), so peers still mid-collective read
  // our data and only then see EOF.
  try {
    const DrainDeadline deadline(options_.recv_timeout);
    for (;;) {
      bool unsent = false;
      for (const Peer& p : peers_) {
        if (p.fd >= 0 && !p.eof && !p.outbox.empty()) unsent = true;
      }
      if (!unsent || deadline.expired()) break;
      pump(std::chrono::milliseconds(10));
    }
  } catch (...) {
    // Teardown best-effort: a peer that died mid-flush is its own error.
  }
  for (Peer& p : peers_) {
    if (p.fd >= 0) ::close(p.fd);
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (options_.listen_fd >= 0) ::close(options_.listen_fd);
}

void SocketComm::enqueue_frame(std::int64_t dst, std::uint32_t kind,
                               std::int64_t seq, std::int32_t tag,
                               std::int32_t round,
                               std::span<const std::byte> payload) {
  FrameHeader h{};
  h.magic = kFrameMagic;
  h.kind = kind;
  h.src = options_.rank;
  h.seq = seq;
  h.tag = tag;
  h.round = round;
  h.payload_bytes = payload.size();
  Peer& p = peers_[static_cast<std::size_t>(dst)];
  BRUCK_REQUIRE_MSG(!p.eof, "send to peer rank " + std::to_string(dst) +
                                " after it closed its connection");
  const auto* hb = reinterpret_cast<const std::byte*>(&h);
  p.outbox.insert(p.outbox.end(), hb, hb + sizeof(h));
  p.outbox.insert(p.outbox.end(), payload.begin(), payload.end());
  flush_outbox(dst);
}

void SocketComm::flush_outbox(std::int64_t peer) {
  Peer& p = peers_[static_cast<std::size_t>(peer)];
  if (p.fd < 0 || p.eof) return;
  std::byte chunk[64 * 1024];
  bool blocked = false;
  while (!p.outbox.empty()) {
    const std::size_t want = std::min(
        {p.outbox.size(), sizeof(chunk), max_write_bytes_});
    std::copy_n(p.outbox.begin(), want, chunk);
    const ssize_t w = ::send(p.fd, chunk, want, MSG_NOSIGNAL);
    if (w > 0) {
      p.outbox.erase(p.outbox.begin(), p.outbox.begin() + w);
      continue;  // short write: loop re-tries the tail immediately
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      blocked = true;
      break;
    }
    BRUCK_REQUIRE_MSG(false, "peer rank " + std::to_string(peer) +
                                 " closed its connection mid-send");
  }
  // Level-triggered EPOLLOUT only while a tail is actually pending.
  epoll_event ev{};
  ev.events = blocked ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.u64 = static_cast<std::uint64_t>(peer);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, p.fd, &ev);
}

void SocketComm::flush_all_outboxes() {
  for (std::int64_t r = 0; r < options_.n; ++r) {
    if (r == options_.rank) continue;
    if (!peers_[static_cast<std::size_t>(r)].outbox.empty()) flush_outbox(r);
  }
}

void SocketComm::read_from_peer(std::int64_t peer) {
  Peer& p = peers_[static_cast<std::size_t>(peer)];
  if (p.fd < 0 || p.eof) return;
  std::byte chunk[64 * 1024];
  for (;;) {
    const ssize_t r = ::recv(p.fd, chunk, sizeof(chunk), 0);
    if (r > 0) {
      p.inbuf.insert(p.inbuf.end(), chunk, chunk + r);
      continue;
    }
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (r < 0 && errno == EINTR) continue;
    // EOF or hard reset: everything sent before the peer's close has been
    // ingested above; the death is only an error for whoever still waits
    // on fresh traffic (require_alive).
    p.eof = true;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, p.fd, nullptr);
    break;
  }
  // Extract complete frames from the front of the parse buffer.
  std::size_t consumed = 0;
  while (p.inbuf.size() - consumed >= sizeof(FrameHeader)) {
    FrameHeader h{};
    std::memcpy(&h, p.inbuf.data() + consumed, sizeof(h));
    BRUCK_REQUIRE_MSG(h.magic == kFrameMagic,
                      "corrupt frame from peer rank " + std::to_string(peer));
    const std::size_t total = sizeof(FrameHeader) + h.payload_bytes;
    if (p.inbuf.size() - consumed < total) break;
    const std::byte* body = p.inbuf.data() + consumed + sizeof(FrameHeader);
    switch (h.kind) {
      case kData: {
        Message m;
        m.src = h.src;
        m.dst = options_.rank;
        m.seq = h.seq;
        m.tag = h.tag;
        m.round = h.round;
        m.payload.assign(body, body + h.payload_bytes);
        inbox_.push_back(std::move(m));
        break;
      }
      case kBarrierArrive:
        ++barrier_arrivals_;
        break;
      case kBarrierRelease:
        barrier_release_seen_ = h.seq;
        break;
      default:
        BRUCK_REQUIRE_MSG(false, "unexpected frame kind on established link");
    }
    consumed += total;
  }
  if (consumed > 0) {
    p.inbuf.erase(p.inbuf.begin(),
                  p.inbuf.begin() + static_cast<std::ptrdiff_t>(consumed));
  }
}

bool SocketComm::pump(std::chrono::milliseconds wait) {
  flush_all_outboxes();
  epoll_event events[64];
  const int nev = ::epoll_wait(epoll_fd_, events, 64,
                               static_cast<int>(wait.count()));
  for (int i = 0; i < nev; ++i) {
    const auto r = static_cast<std::int64_t>(events[i].data.u64);
    if ((events[i].events & EPOLLOUT) != 0) flush_outbox(r);
    if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
      read_from_peer(r);
    }
  }
  return nev > 0;
}

void SocketComm::require_alive(std::int64_t src) const {
  if (src == options_.rank) return;
  const Peer& p = peers_[static_cast<std::size_t>(src)];
  if (!p.eof) return;
  // A closed connection is fine as long as every frame we still need from
  // that peer already arrived; parse leftovers or inbox entries mean data
  // is still flowing through.
  if (!p.inbuf.empty()) return;
  for (const Message& m : inbox_) {
    if (m.src == src) return;
  }
  BRUCK_REQUIRE_MSG(false,
                    "peer rank " + std::to_string(src) +
                        " died (connection closed) while traffic from it "
                        "was still expected");
}

void SocketComm::wire_push(Message&& m) {
  enqueue_frame(m.dst, kData, m.seq, m.tag, m.round, m.view());
}

bool SocketComm::wire_pull(std::span<const std::int64_t> waiting_srcs,
                           std::chrono::milliseconds timeout) {
  auto take = [this] {
    if (inbox_.empty()) return false;
    Message m = std::move(inbox_.front());
    inbox_.pop_front();
    accept(std::move(m));
    return true;
  };
  if (take()) return true;
  if (timeout.count() == 0) {
    pump(std::chrono::milliseconds(0));
    return take();
  }
  const DrainDeadline deadline(timeout);
  for (;;) {
    for (const std::int64_t src : waiting_srcs) require_alive(src);
    pump(std::min(deadline.remaining(), std::chrono::milliseconds(50)));
    if (take()) return true;
    if (deadline.expired()) return false;
  }
}

void SocketComm::record_send_event(int round, std::int64_t dst,
                                   std::int64_t bytes, int tag) {
  if (options_.record_trace) sink_.record_send(round, dst, bytes, tag);
}

void SocketComm::record_plan_event(const PlanEvent& event) {
  if (options_.record_trace) sink_.record_plan(event);
}

void SocketComm::barrier() {
  const std::int64_t generation = barrier_generation_++;
  if (options_.n == 1) return;
  const DrainDeadline deadline(options_.recv_timeout);
  if (options_.rank == 0) {
    // Collect one arrive per peer, then broadcast the release.  Arrivals of
    // a *later* generation cannot overtake: a peer only sends arrive g+1
    // after it received release g, which we have not sent yet.
    while (barrier_arrivals_ < options_.n - 1) {
      for (std::int64_t r = 1; r < options_.n; ++r) require_alive(r);
      BRUCK_REQUIRE_MSG(!deadline.expired(),
                        "socket fabric barrier timed out waiting for peers");
      pump(std::min(deadline.remaining(), std::chrono::milliseconds(50)));
    }
    barrier_arrivals_ -= options_.n - 1;
    for (std::int64_t r = 1; r < options_.n; ++r) {
      enqueue_frame(r, kBarrierRelease, generation, 0, 0, {});
    }
  } else {
    enqueue_frame(0, kBarrierArrive, generation, 0, 0, {});
    while (barrier_release_seen_ < generation) {
      require_alive(0);
      BRUCK_REQUIRE_MSG(!deadline.expired(),
                        "socket fabric barrier timed out waiting for release");
      pump(std::min(deadline.remaining(), std::chrono::milliseconds(50)));
    }
  }
}

}  // namespace bruck::mps
