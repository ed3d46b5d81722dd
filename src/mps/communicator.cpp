// Default implementations of the nonblocking port-engine primitives and of
// `exchange` on the abstract Communicator.
//
// The two sides are mutually defined: the default `exchange` is a shim over
// the (virtual) engine primitives, and the default engine primitives defer
// posted operations and flush them round-by-round through the (virtual)
// `exchange` on the first wait.  A concrete communicator overrides exactly
// one side; overriding neither is a programming error that surfaces as a
// loud ContractViolation out of the recursion guard below.
#include "mps/communicator.hpp"

#include <algorithm>
#include <deque>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "mps/thread_comm.hpp"  // default_recv_timeout
#include "util/assert.hpp"

namespace bruck::mps {

std::chrono::milliseconds Communicator::recv_timeout() const {
  return default_recv_timeout();
}

DrainDeadline::DrainDeadline(std::chrono::milliseconds budget)
    : deadline_(std::chrono::steady_clock::now() + budget), budget_(budget) {}

std::chrono::milliseconds DrainDeadline::remaining() const {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline_ - std::chrono::steady_clock::now());
  return std::max(left, std::chrono::milliseconds{0});
}

namespace detail {

class DeferredEngine {
 public:
  explicit DeferredEngine(Communicator& owner) : owner_(&owner) {}

  void post_send(int round, std::int64_t dst, std::vector<std::byte>&& data) {
    Round& r = round_for_post(round);
    r.sends.push_back(DeferredSend{dst, std::move(data)});
  }

  PortHandle post_recv(int round, std::int64_t src,
                       std::span<std::byte> landing) {
    Round& r = round_for_post(round);
    const PortHandle h = next_handle_++;
    r.recvs.push_back(DeferredRecv{h, src, landing, {}, /*take_buffer=*/false});
    return h;
  }

  PortHandle post_recv_buffer(int round, std::int64_t src, std::int64_t bytes) {
    Round& r = round_for_post(round);
    const PortHandle h = next_handle_++;
    DeferredRecv op{h, src, {}, {}, /*take_buffer=*/true};
    op.owned.resize(static_cast<std::size_t>(bytes));
    r.recvs.push_back(std::move(op));
    return h;
  }

  std::span<const std::byte> take_payload(PortHandle h) {
    const auto it = completed_.find(h);
    BRUCK_REQUIRE_MSG(it != completed_.end() && it->second.take_buffer,
                      "take_payload needs a completed buffer-mode receive");
    lent_ = std::move(it->second.owned);
    completed_.erase(it);
    return lent_;
  }

  bool test_recv(PortHandle h) {
    // The deferred engine cannot make progress without blocking in
    // `exchange`, so test degrades to wait for posted-but-unflushed
    // receives (documented on Communicator::test_recv's fallback).
    if (completed_.contains(h)) return true;
    wait_recv(h);
    return true;
  }

  void wait_recv(PortHandle h) {
    const DrainDeadline deadline(default_recv_timeout());
    while (!completed_.contains(h)) {
      BRUCK_REQUIRE_MSG(!rounds_.empty(),
                        "wait on an unknown or already-consumed receive");
      check_deadline(deadline, "wait_recv");
      flush_front();
    }
    erase_unreported(h);
    retire_if_landing(h);
  }

  PortHandle wait_any_recv() {
    const DrainDeadline deadline(default_recv_timeout());
    while (unreported_.empty()) {
      BRUCK_REQUIRE_MSG(!rounds_.empty(),
                        "wait_any_recv with no outstanding receive");
      check_deadline(deadline, "wait_any_recv");
      flush_front();
    }
    const PortHandle h = unreported_.front();
    unreported_.pop_front();
    retire_if_landing(h);
    return h;
  }

  void wait_all() {
    const DrainDeadline deadline(default_recv_timeout());
    while (!rounds_.empty()) {
      check_deadline(deadline, "wait_all_recvs");
      flush_front();
    }
    for (const PortHandle h : unreported_) retire_if_landing(h);
    unreported_.clear();
  }

  [[nodiscard]] std::optional<PortHandle> poll_any_recv() {
    // Cannot make progress without blocking in `exchange`: report only
    // already-flushed completions.
    if (unreported_.empty()) return std::nullopt;
    const PortHandle h = unreported_.front();
    unreported_.pop_front();
    retire_if_landing(h);
    return h;
  }

  /// True while a flush is re-entering owner_->exchange: the engine
  /// primitives must not be called from inside it (recursion guard for
  /// subclasses that override neither side).
  [[nodiscard]] bool in_flush() const { return in_flush_; }

 private:
  struct DeferredSend {
    std::int64_t dst = 0;
    std::vector<std::byte> data;
  };
  struct DeferredRecv {
    PortHandle handle = 0;
    std::int64_t src = 0;
    std::span<std::byte> landing;
    std::vector<std::byte> owned;
    bool take_buffer = false;
  };
  struct Round {
    int round = 0;
    std::vector<DeferredSend> sends;
    std::vector<DeferredRecv> recvs;
  };

  /// One total BRUCK_RECV_TIMEOUT_MS budget per drain call.  Each flushed
  /// round blocks inside the wrapper's `exchange` under that comm's own
  /// per-round timeout, so before this check a many-round drain could take
  /// rounds x timeout — and a wrapper whose exchange returns without
  /// completing anything could extend the loop with no deadline at all.
  static void check_deadline(const DrainDeadline& deadline, const char* what) {
    if (!deadline.expired()) return;
    std::ostringstream os;
    os << "deferred port engine: " << what
       << " exceeded the receive deadline (" << deadline.budget().count()
       << " ms, BRUCK_RECV_TIMEOUT_MS) with rounds still queued "
          "(deadlock, or a wrapper exchange making no progress?)";
    throw ContractViolation(os.str());
  }

  Round& round_for_post(int round) {
    BRUCK_REQUIRE_MSG(!in_flush_,
                      "Communicator subclass overrides neither exchange() nor "
                      "the port-engine primitives");
    if (rounds_.empty() || round > rounds_.back().round) {
      rounds_.push_back(Round{round, {}, {}});
    }
    BRUCK_REQUIRE_MSG(round == rounds_.back().round,
                      "port-engine posts must use non-decreasing rounds");
    return rounds_.back();
  }

  void flush_front() {
    Round r = std::move(rounds_.front());
    rounds_.pop_front();
    std::vector<SendSpec> sends;
    sends.reserve(r.sends.size());
    for (const DeferredSend& s : r.sends) sends.push_back(SendSpec{s.dst, s.data});
    std::vector<RecvSpec> recvs;
    recvs.reserve(r.recvs.size());
    for (DeferredRecv& op : r.recvs) {
      recvs.push_back(RecvSpec{
          op.src, op.take_buffer ? std::span<std::byte>(op.owned) : op.landing});
    }
    in_flush_ = true;
    try {
      owner_->exchange(r.round, sends, recvs);
    } catch (...) {
      in_flush_ = false;
      throw;
    }
    in_flush_ = false;
    for (DeferredRecv& op : r.recvs) {
      unreported_.push_back(op.handle);
      completed_.emplace(op.handle, std::move(op));
    }
  }

  /// Landing-mode receives carry no retrievable payload: drop their
  /// bookkeeping as soon as they are reported (buffer-mode entries live on
  /// until take_payload).
  void retire_if_landing(PortHandle h) {
    const auto it = completed_.find(h);
    if (it != completed_.end() && !it->second.take_buffer) completed_.erase(it);
  }

  void erase_unreported(PortHandle h) {
    for (auto it = unreported_.begin(); it != unreported_.end(); ++it) {
      if (*it == h) {
        unreported_.erase(it);
        return;
      }
    }
  }

  Communicator* owner_;
  std::deque<Round> rounds_;  // posted, unflushed; ascending round order
  std::unordered_map<PortHandle, DeferredRecv> completed_;
  std::deque<PortHandle> unreported_;  // completed, not yet handed out
  std::vector<std::byte> lent_;  // the last take_payload() result
  PortHandle next_handle_ = 1;
  bool in_flush_ = false;
};

}  // namespace detail

Communicator::Communicator() = default;
Communicator::~Communicator() = default;

detail::DeferredEngine& Communicator::deferred() {
  if (!deferred_) deferred_ = std::make_unique<detail::DeferredEngine>(*this);
  return *deferred_;
}

namespace {

/// The deferred fallback flushes through a wrapper's `exchange`, which has
/// no tag concept: only the default namespace is representable.  Callers
/// that want tags must check native_port_engine() first (the coll::
/// progress engine degrades to serial tag-0 execution on wrappers).
void require_default_tag(int tag) {
  BRUCK_REQUIRE_MSG(tag == 0,
                    "the deferred (exchange-backed) port engine supports "
                    "only tag 0");
}

}  // namespace

void Communicator::post_send(int round, std::int64_t dst,
                             std::span<const std::byte> data, int segments,
                             int tag) {
  (void)segments;  // the deferred fallback ships unsegmented (symmetrically)
  require_default_tag(tag);
  deferred().post_send(round, dst,
                       std::vector<std::byte>(data.begin(), data.end()));
}

void Communicator::post_send(int round, std::int64_t dst,
                             std::vector<std::byte>&& data, int segments,
                             int tag) {
  (void)segments;
  require_default_tag(tag);
  deferred().post_send(round, dst, std::move(data));
}

PortHandle Communicator::post_recv(int round, std::int64_t src,
                                   std::span<std::byte> data, int segments,
                                   int tag) {
  (void)segments;
  require_default_tag(tag);
  return deferred().post_recv(round, src, data);
}

PortHandle Communicator::post_recv_buffer(int round, std::int64_t src,
                                          std::int64_t bytes, int segments,
                                          int tag) {
  (void)segments;
  require_default_tag(tag);
  return deferred().post_recv_buffer(round, src, bytes);
}

std::span<const std::byte> Communicator::take_payload(PortHandle h) {
  return deferred().take_payload(h);
}

bool Communicator::test_recv(PortHandle h) { return deferred().test_recv(h); }

void Communicator::wait_recv(PortHandle h) { deferred().wait_recv(h); }

PortHandle Communicator::wait_any_recv() { return deferred().wait_any_recv(); }

void Communicator::wait_all_recvs() {
  if (deferred_) deferred_->wait_all();
}

std::optional<PortHandle> Communicator::poll_any_recv() {
  // Do not lazily create the engine: with nothing ever posted there is
  // nothing to report.
  if (!deferred_) return std::nullopt;
  return deferred_->poll_any_recv();
}

void Communicator::exchange(int round, std::span<const SendSpec> sends,
                            std::span<const RecvSpec> recvs) {
  BRUCK_REQUIRE_MSG(round > last_exchange_round_,
                    "round indices must be strictly increasing per rank");
  BRUCK_REQUIRE_MSG(static_cast<int>(sends.size()) <= ports(),
                    "more sends than ports in one round");
  BRUCK_REQUIRE_MSG(static_cast<int>(recvs.size()) <= ports(),
                    "more receives than ports in one round");
  last_exchange_round_ = round;
  for (const SendSpec& s : sends) post_send(round, s.dst, s.data);
  std::vector<PortHandle> handles;
  handles.reserve(recvs.size());
  for (const RecvSpec& r : recvs) handles.push_back(post_recv(round, r.src, r.data));
  for (const PortHandle h : handles) wait_recv(h);
}

}  // namespace bruck::mps
