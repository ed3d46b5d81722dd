// Delivery-chaos fuzzer for the port engine over the thread fabric's
// inboxes.  ChaosComm is a WirePortEngine whose wire hooks are adversarial
// but legal: wire_pull holds back a random subset of the messages that have
// arrived and releases them shuffled across sources and tags (FIFO only
// within each (source, tag) channel, the one ordering the wire contract
// promises), and wire_push sometimes defers a delivery until this rank's
// next hook call.  Blocking and concurrently submitted nonblocking
// collectives run under several seeds; every rank's output must match a
// plain ThreadComm run bitwise.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "coll/api.hpp"
#include "coll/request.hpp"
#include "mps/runtime.hpp"
#include "util/rng.hpp"

namespace bruck {
namespace {

using namespace std::chrono_literals;

/// How much chaos the hooks actually caused (all ranks, all runs), so a
/// test can show it was not vacuous.
struct ChaosStats {
  std::atomic<long> deferred_pushes{0};
  std::atomic<long> held_back_polls{0};
  std::atomic<long> reordered_releases{0};
};
ChaosStats g_stats;

class ChaosComm final : public mps::WirePortEngine {
 public:
  ChaosComm(mps::Fabric& fabric, std::int64_t rank, std::uint64_t seed)
      : WirePortEngine(fabric.n(), mps::WirePush::kMove),
        fabric_(&fabric),
        rank_(rank),
        rng_(seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(rank)) {}
  ~ChaosComm() override { flush_deferred(); }

  [[nodiscard]] std::int64_t rank() const override { return rank_; }
  [[nodiscard]] std::int64_t size() const override { return fabric_->n(); }
  [[nodiscard]] int ports() const override { return fabric_->k(); }
  [[nodiscard]] std::chrono::milliseconds recv_timeout() const override {
    return fabric_->options().recv_timeout;
  }

  void barrier() override {
    flush_deferred();
    fabric_->arrive_at_barrier();
  }

 protected:
  void wire_push(mps::Message&& m) override {
    flush_deferred();
    if (chance(3)) {
      g_stats.deferred_pushes.fetch_add(1);
      deferred_.push_back(std::move(m));
    } else {
      (void)fabric_->inbox(m.dst).push(std::move(m));
    }
  }

  bool wire_pull(std::span<const std::int64_t>,
                 std::chrono::milliseconds timeout) override {
    flush_deferred();
    take_arrived();
    if (timeout.count() == 0) {
      // A poll may come back empty even though messages have arrived.
      if (held_count_ == 0) return false;
      if (chance(2)) {
        g_stats.held_back_polls.fetch_add(1);
        return false;
      }
      accept(release());
      return true;
    }
    if (held_count_ > 0 && chance(4)) {
      // Let more arrive first, so the release has more to shuffle.
      std::this_thread::sleep_for(
          std::chrono::microseconds(rng_.next_below(200)));
      take_arrived();
    }
    if (held_count_ == 0) {
      std::optional<mps::Message> m = fabric_->inbox(rank_).pop(timeout);
      if (!m.has_value()) return false;  // a genuine timeout
      hold(std::move(*m));
    }
    accept(release());
    return true;
  }

  void record_send_event(int, std::int64_t, std::int64_t, int) override {}

 private:
  /// True with probability 1/`one_in`.
  bool chance(std::uint64_t one_in) { return rng_.next_below(one_in) == 0; }

  void flush_deferred() {
    for (mps::Message& m : deferred_) {
      (void)fabric_->inbox(m.dst).push(std::move(m));
    }
    deferred_.clear();
  }

  void hold(mps::Message&& m) {
    held_[{m.src, m.tag}].emplace_back(arrivals_++, std::move(m));
    ++held_count_;
  }

  void take_arrived() {
    while (std::optional<mps::Message> m = fabric_->inbox(rank_).try_pop()) {
      hold(std::move(*m));
    }
  }

  /// The oldest held message of a random (source, tag) channel.
  mps::Message release() {
    auto it = held_.begin();
    std::advance(it,
                 static_cast<std::ptrdiff_t>(rng_.next_below(held_.size())));
    auto [arrival, m] = std::move(it->second.front());
    it->second.pop_front();
    for (const auto& [channel, q] : held_) {
      if (!q.empty() && q.front().first < arrival) {
        g_stats.reordered_releases.fetch_add(1);
        break;
      }
    }
    if (it->second.empty()) held_.erase(it);
    --held_count_;
    return m;
  }

  mps::Fabric* fabric_;
  std::int64_t rank_;
  SplitMix64 rng_;
  std::vector<mps::Message> deferred_;
  /// Held messages per (source, tag) channel, tagged with arrival order.
  std::map<std::pair<std::int64_t, int>,
           std::deque<std::pair<std::uint64_t, mps::Message>>>
      held_;
  std::size_t held_count_ = 0;
  std::uint64_t arrivals_ = 0;
};

using Outputs = std::vector<std::vector<std::byte>>;
using Body = std::vector<std::byte> (*)(mps::Communicator&);

/// Run `body` on every rank of an n-rank thread fabric under ChaosComm;
/// returns each rank's output.
Outputs run_chaos(std::int64_t n, std::uint64_t seed, Body body) {
  mps::FabricOptions options;
  options.n = n;
  options.record_trace = false;
  mps::Fabric fabric(options);
  Outputs out(static_cast<std::size_t>(n));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  {
    std::vector<std::jthread> threads;
    for (std::int64_t rank = 0; rank < n; ++rank) {
      threads.emplace_back([&, rank] {
        const auto r = static_cast<std::size_t>(rank);
        try {
          ChaosComm comm(fabric, rank, seed);
          out[r] = body(comm);
        } catch (...) {
          errors[r] = std::current_exception();
          fabric.drop_from_barrier();
        }
      });
    }
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return out;
}

/// The same body over plain ThreadComms: the oracle.
Outputs run_plain(std::int64_t n, Body body) {
  Outputs out(static_cast<std::size_t>(n));
  mps::run_spmd(n, 1, [&](mps::Communicator& comm) {
    out[static_cast<std::size_t>(comm.rank())] = body(comm);
  });
  return out;
}

std::vector<std::byte> random_bytes(std::int64_t rank, std::uint64_t salt,
                                    std::size_t len) {
  SplitMix64 rng(salt * 0xD1B54A32D192ED03ull +
                 static_cast<std::uint64_t>(rank));
  std::vector<std::byte> out(len);
  for (std::byte& b : out) b = static_cast<std::byte>(rng.next_below(256));
  return out;
}

/// Order-exact f64 values (small integers), so any combine order sums to
/// the same bits.
std::vector<std::byte> reduce_input(std::int64_t rank, std::uint64_t salt,
                                    std::size_t elems) {
  SplitMix64 rng(salt + static_cast<std::uint64_t>(rank) * 7919);
  std::vector<double> v(elems);
  for (double& x : v) {
    x = static_cast<double>(static_cast<int>(rng.next_below(201)) - 100);
  }
  std::vector<std::byte> out(elems * sizeof(double));
  std::memcpy(out.data(), v.data(), out.size());
  return out;
}

void append(std::vector<std::byte>& out, const std::vector<std::byte>& part) {
  out.insert(out.end(), part.begin(), part.end());
}

/// Blocking alltoall (whole and in forced wire segments), allgather and
/// allreduce, chained through their returned round indices.
std::vector<std::byte> blocking_chain(mps::Communicator& comm) {
  const std::int64_t n = comm.size();
  const std::int64_t me = comm.rank();
  std::vector<std::byte> out;
  int next = 0;
  for (const int segments : {1, 3}) {
    constexpr std::int64_t b = 24;
    const auto send =
        random_bytes(me, 11 + static_cast<std::uint64_t>(segments),
                     static_cast<std::size_t>(n * b));
    std::vector<std::byte> recv(send.size());
    coll::AlltoallOptions o;
    o.start_round = next;
    o.segments = segments;
    next = coll::alltoall(comm, send, recv, b, o);
    append(out, recv);
  }
  {
    constexpr std::int64_t b = 40;
    const auto send = random_bytes(me, 23, b);
    std::vector<std::byte> recv(static_cast<std::size_t>(n * b));
    coll::AllgatherOptions o;
    o.start_round = next;
    next = coll::allgather(comm, send, recv, b, o);
    append(out, recv);
  }
  {
    const auto send = reduce_input(me, 31, 37);
    std::vector<std::byte> recv(send.size());
    coll::AllreduceOptions o;
    o.start_round = next;
    (void)coll::allreduce(comm, send, recv,
                          coll::ReduceOp::sum(coll::ReduceElem::kF64), o);
    append(out, recv);
  }
  return out;
}

/// Nonblocking alltoall, allgather and allreduce submitted together (each
/// in its own tag namespace), completed by polling one and waiting on the
/// rest in reverse submission order.
std::vector<std::byte> concurrent_nonblocking(mps::Communicator& comm) {
  const std::int64_t n = comm.size();
  const std::int64_t me = comm.rank();
  constexpr std::int64_t ab = 16;
  constexpr std::int64_t gb = 8;
  const auto a_send = random_bytes(me, 41, static_cast<std::size_t>(n * ab));
  std::vector<std::byte> a_recv(a_send.size());
  const auto g_send = random_bytes(me, 43, gb);
  std::vector<std::byte> g_recv(static_cast<std::size_t>(n * gb));
  const auto r_send = reduce_input(me, 47, 29);
  std::vector<std::byte> r_recv(r_send.size());
  const auto a2_send = random_bytes(me, 53, static_cast<std::size_t>(n * ab));
  std::vector<std::byte> a2_recv(a2_send.size());
  {
    std::vector<coll::Request> reqs;
    reqs.push_back(coll::ialltoall(comm, a_send, a_recv, ab));
    reqs.push_back(coll::iallgather(comm, g_send, g_recv, gb));
    reqs.push_back(coll::iallreduce(
        comm, r_send, r_recv, coll::ReduceOp::sum(coll::ReduceElem::kF64)));
    reqs.push_back(coll::ialltoall(comm, a2_send, a2_recv, ab));
    while (!reqs[1].test()) {
    }
    for (auto it = reqs.rbegin(); it != reqs.rend(); ++it) (void)it->wait();
  }
  std::vector<std::byte> out;
  append(out, a_recv);
  append(out, g_recv);
  append(out, r_recv);
  append(out, a2_recv);
  return out;
}

void expect_chaos_matches_plain(Body body, const char* what) {
  g_stats.deferred_pushes = 0;
  g_stats.held_back_polls = 0;
  g_stats.reordered_releases = 0;
  for (const std::int64_t n : {3, 5, 8}) {
    const Outputs plain = run_plain(n, body);
    for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
      const Outputs chaos = run_chaos(n, seed, body);
      for (std::size_t r = 0; r < plain.size(); ++r) {
        EXPECT_TRUE(chaos[r] == plain[r])
            << what << ": n=" << n << " seed=" << seed << " rank " << r;
      }
    }
  }
  // The adversary really acted: deliveries were deferred and released out
  // of arrival order.
  EXPECT_GT(g_stats.deferred_pushes.load(), 0) << what;
  EXPECT_GT(g_stats.reordered_releases.load(), 0) << what;
}

TEST(DeliveryChaos, BlockingCollectivesMatchThePlainFabricBitwise) {
  expect_chaos_matches_plain(&blocking_chain, "blocking chain");
}

TEST(DeliveryChaos,
     ConcurrentNonblockingCollectivesMatchThePlainFabricBitwise) {
  expect_chaos_matches_plain(&concurrent_nonblocking, "concurrent i*");
  // Request::test() polls, so some polls came back empty on purpose.
  EXPECT_GT(g_stats.held_back_polls.load(), 0);
}

}  // namespace
}  // namespace bruck
