#include "mps/port_engine.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <utility>

#include "util/assert.hpp"

namespace bruck::mps {

std::int64_t wire_segment_length(std::int64_t total, int segments, int i) {
  const std::int64_t base = total / segments;
  const std::int64_t rem = total % segments;
  return base + (i < rem ? 1 : 0);
}

int effective_wire_segments(std::int64_t total, int segments) {
  return static_cast<int>(
      std::clamp<std::int64_t>(segments, 1, std::max<std::int64_t>(1, total)));
}

namespace {

/// Pooled buffers kept for reuse; past this, recycled buffers are freed.
constexpr std::size_t kMaxSpareBuffers = 64;

}  // namespace

WirePortEngine::WirePortEngine(std::int64_t peers, WirePush push)
    : push_(push),
      send_seq0_(static_cast<std::size_t>(peers), 0),
      recv_seq0_(static_cast<std::size_t>(peers), 0) {
  BRUCK_REQUIRE(peers >= 1);
}

WirePortEngine::TagRoundState& WirePortEngine::round_state(int tag) {
  if (tag == 0) return tag0_rounds_;
  return tag_rounds_[tag];
}

std::int64_t& WirePortEngine::send_seq(int tag, std::int64_t dst) {
  if (tag == 0) return send_seq0_[static_cast<std::size_t>(dst)];
  return send_seq_tagged_[tag_peer_key(tag, dst)];
}

std::int64_t& WirePortEngine::recv_seq(int tag, std::int64_t src) {
  if (tag == 0) return recv_seq0_[static_cast<std::size_t>(src)];
  return recv_seq_tagged_[tag_peer_key(tag, src)];
}

void WirePortEngine::check_post(int round, std::int64_t peer,
                                std::int64_t bytes, bool is_send, int tag) {
  BRUCK_REQUIRE(round >= 0);
  BRUCK_REQUIRE_MSG(tag >= 0, "negative port-namespace tag");
  TagRoundState& rs = round_state(tag);
  BRUCK_REQUIRE_MSG(round >= rs.last_round,
                    "port-engine posts must use non-decreasing rounds "
                    "(within each tag namespace)");
  if (round > rs.last_round) {
    rs.last_round = round;
    rs.sends_in_round = 0;
    rs.recvs_in_round = 0;
  }
  BRUCK_REQUIRE_MSG(peer != rank(), is_send
                                        ? "self-send (local data needs no port)"
                                        : "self-receive");
  BRUCK_REQUIRE(peer >= 0 && peer < size());
  BRUCK_REQUIRE_MSG(bytes > 0, "empty message");
  if (is_send) {
    BRUCK_REQUIRE_MSG(++rs.sends_in_round <= ports(),
                      "more sends than ports in one round");
  } else {
    BRUCK_REQUIRE_MSG(++rs.recvs_in_round <= ports(),
                      "more receives than ports in one round");
  }
}

void WirePortEngine::wire_push(Message&& m) {
  (void)m;
  BRUCK_ENSURE_MSG(false, "this fabric takes its wire segments as views");
}

void WirePortEngine::wire_push_bytes(std::int64_t dst, const WireFrame& frame,
                                     std::span<const std::byte> bytes) {
  (void)dst;
  (void)frame;
  (void)bytes;
  BRUCK_ENSURE_MSG(false, "this fabric takes its wire segments as buffers");
}

void WirePortEngine::wire_send(int round, std::int64_t dst,
                               std::vector<std::byte>&& payload, int segments,
                               int tag) {
  const std::int64_t total = static_cast<std::int64_t>(payload.size());
  // One logical send event, regardless of wire segmentation: C1/C2 stay the
  // paper's measures of the declared round structure.
  record_send_event(round, dst, total, tag);
  const int s = effective_wire_segments(total, segments);
  auto& seq = send_seq(tag, dst);
  if (s == 1) {
    Message m;
    m.src = rank();
    m.dst = dst;
    m.seq = seq++;
    m.tag = tag;
    m.round = round;
    m.payload = std::move(payload);
    wire_push(std::move(m));
    return;
  }
  // Segments share ownership of the one payload buffer: no copies, and the
  // receiver can consume segment i while later segments are still queued.
  auto buffer =
      std::make_shared<const std::vector<std::byte>>(std::move(payload));
  std::int64_t offset = 0;
  for (int i = 0; i < s; ++i) {
    const std::int64_t len = wire_segment_length(total, s, i);
    Message m;
    m.src = rank();
    m.dst = dst;
    m.seq = seq++;
    m.tag = tag;
    m.round = round;
    m.shared = buffer;
    m.shared_offset = offset;
    m.shared_length = len;
    wire_push(std::move(m));
    offset += len;
  }
}

void WirePortEngine::wire_send_bytes(int round, std::int64_t dst,
                                     std::span<const std::byte> payload,
                                     int segments, int tag) {
  const std::int64_t total = static_cast<std::int64_t>(payload.size());
  record_send_event(round, dst, total, tag);
  const int s = effective_wire_segments(total, segments);
  auto& seq = send_seq(tag, dst);
  WireFrame frame;
  frame.src = rank();
  frame.tag = tag;
  frame.round = round;
  std::size_t offset = 0;
  for (int i = 0; i < s; ++i) {
    const auto len =
        static_cast<std::size_t>(wire_segment_length(total, s, i));
    frame.seq = seq++;
    wire_push_bytes(dst, frame, payload.subspan(offset, len));
    offset += len;
  }
}

void WirePortEngine::post_send(int round, std::int64_t dst,
                               std::span<const std::byte> data, int segments,
                               int tag) {
  check_post(round, dst, static_cast<std::int64_t>(data.size()), true, tag);
  if (push_ == WirePush::kCopy) {
    wire_send_bytes(round, dst, data, segments, tag);
    return;
  }
  wire_send(round, dst, std::vector<std::byte>(data.begin(), data.end()),
            segments, tag);
}

void WirePortEngine::post_send(int round, std::int64_t dst,
                               std::vector<std::byte>&& data, int segments,
                               int tag) {
  check_post(round, dst, static_cast<std::int64_t>(data.size()), true, tag);
  if (push_ == WirePush::kCopy) {
    wire_send_bytes(round, dst, data, segments, tag);
    return;
  }
  wire_send(round, dst, std::move(data), segments, tag);
}

PortHandle WirePortEngine::add_recv_op(RecvOp&& op) {
  op.handle = next_handle_++;
  op.segments = effective_wire_segments(op.total, op.segments);
  const PortHandle h = op.handle;
  const int tag = op.tag;
  const std::int64_t src = op.src;
  incomplete_.insert(h);
  if (pending_per_src_[src]++ == 0) waiting_srcs_.push_back(src);
  recv_ops_.push_back(std::move(op));
  // An early arrival for this (tag, src) may already be stashed (its wire
  // messages beat the post); deliver it now — this can complete the op.
  drain_stash(tag, src);
  return h;
}

PortHandle WirePortEngine::post_recv(int round, std::int64_t src,
                                     std::span<std::byte> data, int segments,
                                     int tag) {
  check_post(round, src, static_cast<std::int64_t>(data.size()), false, tag);
  RecvOp op;
  op.src = src;
  op.tag = tag;
  op.round = round;
  op.landing = data;
  op.total = static_cast<std::int64_t>(data.size());
  op.segments = segments;
  return add_recv_op(std::move(op));
}

PortHandle WirePortEngine::post_recv_buffer(int round, std::int64_t src,
                                            std::int64_t bytes, int segments,
                                            int tag) {
  check_post(round, src, bytes, false, tag);
  RecvOp op;
  op.src = src;
  op.tag = tag;
  op.round = round;
  op.take_buffer = true;
  op.total = bytes;
  op.segments = segments;
  // Storage is attached by the first delivered segment (deliver).
  return add_recv_op(std::move(op));
}

std::vector<std::byte> WirePortEngine::take_spare() {
  if (spare_.empty()) return {};
  std::vector<std::byte> buffer = std::move(spare_.back());
  spare_.pop_back();
  return buffer;
}

void WirePortEngine::recycle(std::vector<std::byte>&& buffer) {
  if (buffer.capacity() == 0 || spare_.size() >= kMaxSpareBuffers) return;
  buffer.clear();
  spare_.push_back(std::move(buffer));
}

std::list<WirePortEngine::RecvOp>::iterator WirePortEngine::find_op(
    std::int64_t src, int tag) {
  return std::find_if(
      recv_ops_.begin(), recv_ops_.end(),
      [&](const RecvOp& op) { return op.src == src && op.tag == tag; });
}

void WirePortEngine::deliver(std::list<RecvOp>::iterator it, std::int64_t src,
                             std::int64_t seq, std::span<const std::byte> bytes,
                             std::vector<std::byte>* whole, bool whole_pooled) {
  RecvOp& op = *it;
  const std::int64_t expected_seq = recv_seq(op.tag, src)++;
  const std::int64_t expected_len =
      wire_segment_length(op.total, op.segments, op.seg_done);
  if (seq != expected_seq ||
      static_cast<std::int64_t>(bytes.size()) != expected_len) {
    std::ostringstream os;
    os << "rank " << rank() << " round " << op.round << " tag " << op.tag
       << ": message from rank " << src << " has seq " << seq
       << " (expected " << expected_seq << ") and " << bytes.size()
       << " bytes (expected " << expected_len << ")";
    throw ContractViolation(os.str());
  }
  if (!op.take_buffer) {
    std::memcpy(op.landing.data() + op.offset, bytes.data(), bytes.size());
  } else if (op.segments == 1 && whole != nullptr) {
    // Whole unsegmented message into an engine-owned buffer: steal the wire
    // payload — the buffer has now moved sender-pack → wire → receiver
    // without a single copy.
    op.owned = std::move(*whole);
    op.pooled = whole_pooled;
  } else {
    if (op.seg_done == 0) {
      // A pooled buffer, grown only when this receive is its largest use
      // yet; segments append, so it is never zero-filled.
      op.owned = take_spare();
      op.owned.reserve(static_cast<std::size_t>(op.total));
      op.pooled = true;
    }
    op.owned.insert(op.owned.end(), bytes.begin(), bytes.end());
  }
  op.offset += expected_len;
  if (++op.seg_done == op.segments) {
    const PortHandle h = op.handle;
    incomplete_.erase(h);
    unreported_.push_back(h);
    if (--pending_per_src_[op.src] == 0) {
      pending_per_src_.erase(op.src);
      std::erase(waiting_srcs_, op.src);
    }
    completed_.emplace(h, std::move(op));
    recv_ops_.erase(it);
  }
}

void WirePortEngine::stash(Early&& e) {
  // The wire pull can surface a message for another tag whose receive is
  // not posted yet (concurrent collectives progress independently per
  // rank), or — on fabrics that drain their inbound channel eagerly — a
  // message from a source with no pending receive at all.  Stash it in
  // per-channel FIFO order; add_recv_op delivers it when its receive
  // appears.  A genuinely unmatched message therefore surfaces as a
  // drain-deadline timeout reporting the stash, not an immediate throw.
  ++stashed_count_;
  stash_[tag_peer_key(e.m.tag, e.m.src)].items.push_back(std::move(e));
}

void WirePortEngine::accept(Message&& m) {
  const auto it = find_op(m.src, m.tag);
  if (it == recv_ops_.end()) {
    stash(Early{std::move(m), false});
    return;
  }
  deliver(it, m.src, m.seq, m.view(), m.shared ? nullptr : &m.payload,
          /*whole_pooled=*/false);
}

void WirePortEngine::accept(const WireFrame& frame,
                            std::span<const std::byte> bytes) {
  const auto it = find_op(frame.src, frame.tag);
  if (it != recv_ops_.end()) {
    deliver(it, frame.src, frame.seq, bytes, nullptr, false);
    return;
  }
  // Early arrival: the one case that copies the bytes out of the fabric's
  // slot, into a pooled buffer.
  Early e;
  e.m.src = frame.src;
  e.m.dst = rank();
  e.m.seq = frame.seq;
  e.m.tag = frame.tag;
  e.m.round = frame.round;
  e.m.payload = take_spare();
  e.m.payload.assign(bytes.begin(), bytes.end());
  e.pooled = true;
  stash(std::move(e));
}

void WirePortEngine::drain_stash(int tag, std::int64_t src) {
  const auto sit = stash_.find(tag_peer_key(tag, src));
  if (sit == stash_.end()) return;
  EarlyQueue& q = sit->second;
  while (!q.empty()) {
    const auto it = find_op(src, tag);
    if (it == recv_ops_.end()) break;
    Early& e = q.items[q.head++];
    --stashed_count_;
    deliver(it, e.m.src, e.m.seq, e.m.view(),
            e.m.shared ? nullptr : &e.m.payload, e.pooled);
    if (e.pooled) recycle(std::move(e.m.payload));
    e.m = Message{};
  }
  if (q.empty()) {
    q.items.clear();
    q.head = 0;
  }
}

bool WirePortEngine::try_progress() {
  return wire_pull(waiting_srcs_, std::chrono::milliseconds{0});
}

void WirePortEngine::progress_blocking(const DrainDeadline& deadline) {
  if (!wire_pull(waiting_srcs_, deadline.remaining())) {
    std::ostringstream os;
    os << "rank " << rank() << ": port-engine receive timed out after "
       << deadline.budget().count()
       << " ms (one whole-drain budget, BRUCK_RECV_TIMEOUT_MS) waiting on "
          "rank(s)";
    for (const std::int64_t s : waiting_srcs_) os << ' ' << s;
    if (stashed_count_ > 0) {
      os << "; " << stashed_count_
         << " message(s) stashed for other tag namespaces";
    }
    os << " (deadlock or mismatched exchange?)";
    throw ContractViolation(os.str());
  }
}

void WirePortEngine::retire_if_landing(PortHandle h) {
  const auto it = completed_.find(h);
  if (it != completed_.end() && !it->second.take_buffer) completed_.erase(it);
}

std::span<const std::byte> WirePortEngine::take_payload(PortHandle h) {
  const auto it = completed_.find(h);
  BRUCK_REQUIRE_MSG(it != completed_.end() && it->second.take_buffer,
                    "take_payload needs a completed buffer-mode receive");
  // The previous payload's view has expired: its buffer goes back to the
  // pool (stolen wire payloads are not pooled — they are freed).
  if (lent_pooled_) recycle(std::move(lent_));
  lent_ = std::move(it->second.owned);
  lent_pooled_ = it->second.pooled;
  completed_.erase(it);
  return lent_;
}

bool WirePortEngine::test_recv(PortHandle h) {
  while (incomplete_.contains(h)) {
    if (!try_progress()) return false;
  }
  const auto it = completed_.find(h);
  BRUCK_REQUIRE_MSG(it != completed_.end(),
                    "unknown or already-consumed receive handle");
  std::erase(unreported_, h);
  retire_if_landing(h);
  return true;
}

void WirePortEngine::wait_recv(PortHandle h) {
  const DrainDeadline deadline(recv_timeout());
  while (incomplete_.contains(h)) progress_blocking(deadline);
  const auto it = completed_.find(h);
  BRUCK_REQUIRE_MSG(it != completed_.end(),
                    "unknown or already-consumed receive handle");
  std::erase(unreported_, h);
  retire_if_landing(h);
}

PortHandle WirePortEngine::wait_any_recv() {
  const DrainDeadline deadline(recv_timeout());
  return wait_any_recv_within(deadline);
}

PortHandle WirePortEngine::wait_any_recv_within(const DrainDeadline& deadline) {
  while (unreported_.empty()) {
    BRUCK_REQUIRE_MSG(!recv_ops_.empty(),
                      "wait_any_recv with no outstanding receive");
    progress_blocking(deadline);
  }
  const PortHandle h = unreported_.front();
  unreported_.pop_front();
  retire_if_landing(h);
  return h;
}

void WirePortEngine::wait_all_recvs() {
  const DrainDeadline deadline(recv_timeout());
  while (!recv_ops_.empty()) progress_blocking(deadline);
  for (const PortHandle h : unreported_) retire_if_landing(h);
  unreported_.clear();
}

std::optional<PortHandle> WirePortEngine::poll_any_recv() {
  while (unreported_.empty()) {
    if (!try_progress()) return std::nullopt;
  }
  const PortHandle h = unreported_.front();
  unreported_.pop_front();
  retire_if_landing(h);
  return h;
}

void WirePortEngine::release_tag(int tag) {
  BRUCK_REQUIRE_MSG(tag > 0, "release_tag needs a nonzero collective tag");
  for (const RecvOp& op : recv_ops_) {
    BRUCK_REQUIRE_MSG(
        op.tag != tag,
        "release_tag with receives still outstanding under the tag");
  }
  const auto in_tag = [tag](std::uint64_t key) {
    return static_cast<int>(key >> 32) == tag;
  };
  for (const auto& [key, q] : stash_) {
    BRUCK_REQUIRE_MSG(
        !(in_tag(key) && !q.empty()),
        "release_tag with stashed wire messages still undelivered under "
        "the tag");
  }
  std::erase_if(stash_, [&](const auto& kv) { return in_tag(kv.first); });
  tag_rounds_.erase(tag);
  std::erase_if(send_seq_tagged_,
                [&](const auto& kv) { return in_tag(kv.first); });
  std::erase_if(recv_seq_tagged_,
                [&](const auto& kv) { return in_tag(kv.first); });
}

}  // namespace bruck::mps
