// The multiport message-passing substrate: the lock-free inbox and its
// doorbell, the threaded communicator, trace aggregation, and failure
// behaviour.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <new>
#include <numeric>
#include <thread>
#include <vector>

#include "mps/doorbell.hpp"
#include "mps/inbox.hpp"
#include "mps/runtime.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace bruck::mps {
namespace {

using namespace std::chrono_literals;

std::vector<std::byte> bytes_of(std::initializer_list<int> vals) {
  std::vector<std::byte> out;
  for (int v : vals) out.push_back(static_cast<std::byte>(v));
  return out;
}

Message message_from(std::int64_t src, std::int64_t seq,
                     std::initializer_list<int> vals) {
  Message m;
  m.src = src;
  m.seq = seq;
  m.payload = bytes_of(vals);
  return m;
}

TEST(Inbox, FifoPerSourceInArrivalOrder) {
  // No source filter: the oldest message from any source comes out first,
  // and each source's messages keep their order.
  Inbox box;
  box.push(message_from(3, 0, {1}));
  box.push(message_from(1, 0, {10}));
  box.push(message_from(3, 1, {2}));
  const std::int64_t want_src[] = {3, 1, 3};
  const std::vector<std::byte> want_payload[] = {bytes_of({1}),
                                                  bytes_of({10}),
                                                  bytes_of({2})};
  for (int i = 0; i < 3; ++i) {
    const auto m = box.pop(1000ms);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->src, want_src[i]);
    EXPECT_EQ(m->payload, want_payload[i]);
  }
  EXPECT_FALSE(box.try_pop().has_value());
}

TEST(Inbox, TryPopNeverBlocks) {
  Inbox box;
  EXPECT_FALSE(box.try_pop().has_value());
  EXPECT_FALSE(box.pop(0ms).has_value());  // 0 = poll
  box.push(message_from(2, 0, {7}));
  const auto got = box.try_pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->src, 2);
  EXPECT_EQ(got->payload, bytes_of({7}));
}

TEST(Inbox, MovesPayloadBuffersEndToEnd) {
  // push/pop never copy the payload: the buffer that goes in is the buffer
  // that comes out — an owned vector and a shared segment buffer alike.
  Inbox box;
  Message whole = message_from(5, 0, {1, 2, 3, 4});
  const std::byte* data = whole.payload.data();
  box.push(std::move(whole));
  Message segment;
  segment.src = 5;
  segment.seq = 1;
  segment.shared =
      std::make_shared<const std::vector<std::byte>>(bytes_of({5, 6, 7}));
  segment.shared_offset = 1;
  segment.shared_length = 2;
  const std::vector<std::byte>* shared = segment.shared.get();
  box.push(std::move(segment));
  const auto out_whole = box.pop(1000ms);
  ASSERT_TRUE(out_whole.has_value());
  EXPECT_EQ(out_whole->payload.data(), data);
  const auto out_segment = box.pop(1000ms);
  ASSERT_TRUE(out_segment.has_value());
  EXPECT_EQ(out_segment->shared.get(), shared);
  EXPECT_EQ(out_segment->view().data(), shared->data() + 1);
  EXPECT_EQ(out_segment->size_bytes(), 2u);
}

TEST(Inbox, PopTimesOutWithEmptyOptional) {
  Inbox box;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(box.pop(50ms).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 50ms);
}

TEST(Inbox, ReceiveTimeoutNamesTheAwaitedSource) {
  // The inbox only reports "nothing arrived"; the port engine turns an
  // expired receive deadline into a diagnostic naming the awaited rank.
  FabricOptions options;
  options.n = 3;
  options.k = 1;
  options.recv_timeout = 100ms;
  try {
    run_spmd(options, [&](Communicator& comm) {
      if (comm.rank() != 0) return;
      std::vector<std::byte> in(1);
      comm.wait_recv(comm.post_recv(0, 2, in));  // rank 2 never sends
    });
    FAIL() << "expected timeout";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("timed out"), std::string::npos) << what;
    EXPECT_NE(what.find("waiting on rank(s) 2"), std::string::npos) << what;
  }
}

TEST(Inbox, StressManyProducersWithAParkingConsumer) {
  // 8 producers × 10k messages into one inbox, pushed in bursts.  Between
  // bursts the producers hold off until the consumer has drained everything
  // and then for a few milliseconds more, so the consumer runs out of work
  // and parks on the futex over and over.  Every message must arrive
  // exactly once, in sequence order per source.
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 10'000;
  constexpr int kBursts = 10;
  constexpr int kPerBurst = kPerProducer / kBursts;
  constexpr int kTotal = kProducers * kPerProducer;
  Inbox box;
  std::atomic<int> pushed{0};
  std::atomic<int> consumed{0};
  std::atomic<int> woke_parked{0};
  std::atomic<bool> consumer_failed{false};
  // Burst boundary: wait for the consumer to catch up, then stay quiet long
  // enough (spin and yield budgets are tens of microseconds) that it parks.
  std::barrier burst_end(kProducers, [&]() noexcept {
    while (consumed.load() < pushed.load() && !consumer_failed.load()) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(5ms);
  });
  std::vector<std::jthread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int burst = 0; burst < kBursts; ++burst) {
        for (int i = 0; i < kPerBurst; ++i) {
          const int seq = burst * kPerBurst + i;
          pushed.fetch_add(1);
          if (box.push(message_from(p, seq, {(p ^ seq) & 0xFF}))) {
            woke_parked.fetch_add(1);
          }
        }
        burst_end.arrive_and_wait();
      }
    });
  }
  std::vector<std::int64_t> next_seq(kProducers, 0);
  for (int got = 0; got < kTotal; ++got) {
    const auto m = box.pop(30s);
    if (!m.has_value()) {
      consumer_failed.store(true);
      ADD_FAILURE() << "inbox starved after " << got << " messages";
      break;
    }
    const auto src = static_cast<std::size_t>(m->src);
    const bool in_order = m->src >= 0 && m->src < kProducers &&
                          m->seq == next_seq[src] &&
                          m->payload == bytes_of({static_cast<int>(
                                             (m->src ^ m->seq) & 0xFF)});
    if (!in_order) {
      consumer_failed.store(true);
      ADD_FAILURE() << "message " << got << " from " << m->src << " seq "
                    << m->seq << " out of order or corrupt";
      break;
    }
    ++next_seq[src];
    consumed.fetch_add(1);
  }
  producers.clear();  // join
  EXPECT_EQ(consumed.load(), kTotal);
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_seq[static_cast<std::size_t>(p)], kPerProducer);
  }
  EXPECT_FALSE(box.try_pop().has_value());
  EXPECT_GT(woke_parked.load(), 0);  // the consumer really parked
}

TEST(Doorbell, RingWithoutStateChangeDeliversNothing) {
  // A spurious wake — here a ring while the waiter's condition stays false
  // — must not end the wait: the waiter re-parks until its deadline.
  Doorbell bell;
  std::atomic<bool> published{false};
  std::atomic<bool> done{false};
  std::atomic<int> woke_parked{0};
  std::jthread ringer([&] {
    while (!done.load()) {
      std::this_thread::sleep_for(10ms);
      if (bell.ring()) woke_parked.fetch_add(1);
    }
  });
  const auto t0 = std::chrono::steady_clock::now();
  const bool ready = bell.wait_until([&] { return published.load(); },
                                     t0 + 200ms);
  const auto waited = std::chrono::steady_clock::now() - t0;
  done.store(true);
  ringer.join();
  EXPECT_FALSE(ready);
  EXPECT_GE(waited, 200ms);
  EXPECT_GT(woke_parked.load(), 0);  // the rings really reached a parked waiter
}

TEST(Doorbell, RingAfterPublishWakesAParkedWaiter) {
  Doorbell bell;
  std::atomic<bool> published{false};
  std::jthread producer([&] {
    std::this_thread::sleep_for(20ms);  // long enough for the waiter to park
    published.store(true);
    (void)bell.ring();
  });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(bell.wait_until([&] { return published.load(); }, t0 + 20s));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 10s);
}

TEST(Doorbell, WakesAWaiterInAnotherProcessThroughASharedMapping) {
  // The doorbell is one 32-bit word on process-shared futex operations, so
  // a forked child can park on it in a MAP_SHARED mapping and be rung by
  // the parent.
  struct Shared {
    Doorbell bell;
    std::atomic<std::uint32_t> published{0};
  };
  void* mem = ::mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(mem, MAP_FAILED);
  auto* shared = new (mem) Shared;
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const bool ok = shared->bell.wait_until(
        [&] { return shared->published.load() != 0; },
        Doorbell::Clock::now() + 20s);
    ::_exit(ok ? 0 : 1);
  }
  std::this_thread::sleep_for(50ms);  // let the child park
  shared->published.store(1);
  (void)shared->bell.ring();
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  shared->~Shared();
  ::munmap(mem, sizeof(Shared));
}

TEST(Runtime, PingPongDeliversPayload) {
  const std::vector<std::byte> ping = bytes_of({1, 2, 3});
  const std::vector<std::byte> pong = bytes_of({9, 8});
  run_spmd(2, 1, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<std::byte> in(2);
      comm.send_and_recv(0, ping, 1, in, 1);
      BRUCK_ENSURE(in == pong);
    } else {
      std::vector<std::byte> in(3);
      comm.send_and_recv(0, pong, 0, in, 0);
      BRUCK_ENSURE(in == ping);
    }
  });
}

TEST(Runtime, TraceRecordsRoundsAndBytes) {
  RunResult rr = run_spmd(3, 1, [&](Communicator& comm) {
    const std::int64_t me = comm.rank();
    std::vector<std::byte> out(static_cast<std::size_t>(me + 1),
                               std::byte{0xAB});
    std::vector<std::byte> in(
        static_cast<std::size_t>(pos_mod(me - 1, 3) + 1));
    comm.send_and_recv(0, out, pos_mod(me + 1, 3), in, pos_mod(me - 1, 3));
  });
  const model::CostMetrics m = rr.trace->metrics();
  EXPECT_EQ(m.c1, 1);
  EXPECT_EQ(m.c2, 3);  // largest message in the single round
  EXPECT_EQ(m.total_bytes, 1 + 2 + 3);
  const sched::Schedule s = rr.trace->to_schedule();
  EXPECT_EQ(s.round_count(), 1u);
  EXPECT_EQ(s.rounds()[0].transfers.size(), 3u);
}

TEST(Runtime, MultiPortExchange) {
  // Rank r sends one message to every other rank in a single round (k = 3,
  // n = 4); everything must land, and the trace must validate.
  const std::int64_t n = 4;
  RunResult rr = run_spmd(n, 3, [&](Communicator& comm) {
    const std::int64_t me = comm.rank();
    std::vector<std::vector<std::byte>> outs;
    std::vector<std::vector<std::byte>> ins(3, std::vector<std::byte>(4));
    std::vector<SendSpec> sends;
    std::vector<RecvSpec> recvs;
    int slot = 0;
    for (std::int64_t peer = 0; peer < n; ++peer) {
      if (peer == me) continue;
      outs.push_back(std::vector<std::byte>(4, static_cast<std::byte>(me)));
      sends.push_back(SendSpec{peer, outs.back()});
      recvs.push_back(RecvSpec{peer, ins[static_cast<std::size_t>(slot++)]});
    }
    comm.exchange(0, sends, recvs);
    slot = 0;
    for (std::int64_t peer = 0; peer < n; ++peer) {
      if (peer == me) continue;
      for (std::byte v : ins[static_cast<std::size_t>(slot)]) {
        BRUCK_ENSURE(v == static_cast<std::byte>(peer));
      }
      ++slot;
    }
  });
  const model::CostMetrics m = rr.trace->metrics();
  EXPECT_EQ(m.c1, 1);
  EXPECT_EQ(m.c2, 4);
  EXPECT_EQ(m.total_bytes, n * (n - 1) * 4);
}

TEST(Runtime, RejectsTooManySendsForPorts) {
  EXPECT_THROW(
      run_spmd(3, 1,
               [&](Communicator& comm) {
                 if (comm.rank() != 0) {
                   // Rank 1 and 2 wait for nothing; rank 0 violates ports.
                   return;
                 }
                 std::vector<std::byte> a(1), b(1);
                 const SendSpec sends[2] = {{1, a}, {2, b}};
                 comm.exchange(0, sends, {});
               }),
      ContractViolation);
}

TEST(Runtime, RejectsNonMonotoneRounds) {
  EXPECT_THROW(run_spmd(2, 1,
                        [&](Communicator& comm) {
                          std::vector<std::byte> a(1);
                          std::vector<std::byte> in(1);
                          const std::int64_t peer = 1 - comm.rank();
                          comm.send_and_recv(1, a, peer, in, peer);
                          comm.send_and_recv(1, a, peer, in, peer);  // reused
                        }),
               ContractViolation);
}

TEST(Runtime, RejectsSelfSend) {
  EXPECT_THROW(run_spmd(2, 1,
                        [&](Communicator& comm) {
                          std::vector<std::byte> a(1);
                          std::vector<std::byte> in(1);
                          comm.send_and_recv(0, a, comm.rank(), in,
                                             comm.rank());
                        }),
               ContractViolation);
}

TEST(Runtime, SizeMismatchIsDiagnosed) {
  FabricOptions options;
  options.n = 2;
  options.k = 1;
  options.recv_timeout = 2000ms;
  try {
    run_spmd(options, [&](Communicator& comm) {
      std::vector<std::byte> out(3);
      std::vector<std::byte> in(comm.rank() == 0 ? 3 : 5);  // rank 1 lies
      const std::int64_t peer = 1 - comm.rank();
      comm.send_and_recv(0, out, peer, in, peer);
    });
    FAIL() << "expected mismatch";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("bytes (expected"), std::string::npos)
        << e.what();
  }
}

TEST(Runtime, DeadlockTimesOutInsteadOfHanging) {
  FabricOptions options;
  options.n = 2;
  options.k = 1;
  options.recv_timeout = 100ms;
  EXPECT_THROW(run_spmd(options,
                        [&](Communicator& comm) {
                          // Both ranks receive, nobody sends.
                          std::vector<std::byte> in(1);
                          const RecvSpec r{1 - comm.rank(), in};
                          comm.exchange(0, {}, {&r, 1});
                        }),
               ContractViolation);
}

TEST(Runtime, BarrierSynchronizesAllRanks) {
  const std::int64_t n = 8;
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  run_spmd(n, 1, [&](Communicator& comm) {
    before.fetch_add(1);
    comm.barrier();
    if (before.load() != n) violated.store(true);
  });
  EXPECT_FALSE(violated.load());
}

TEST(Runtime, ExceptionInOneRankPropagatesAndUnblocksBarrier) {
  FabricOptions options;
  options.n = 4;
  options.k = 1;
  options.recv_timeout = 2000ms;
  EXPECT_THROW(run_spmd(options,
                        [&](Communicator& comm) {
                          if (comm.rank() == 2) {
                            throw ContractViolation("rank 2 gives up");
                          }
                          comm.barrier();
                        }),
               ContractViolation);
}

TEST(Runtime, TraceDisabledRecordsNothing) {
  FabricOptions options;
  options.n = 2;
  options.k = 1;
  options.record_trace = false;
  RunResult rr = run_spmd(options, [&](Communicator& comm) {
    std::vector<std::byte> a(1), in(1);
    const std::int64_t peer = 1 - comm.rank();
    comm.send_and_recv(0, a, peer, in, peer);
  });
  EXPECT_EQ(rr.trace->event_count(), 0u);
}

TEST(Runtime, StressManyRoundsRandomSizes) {
  // 8 ranks, 50 rounds of ring exchanges with pseudo-random message sizes:
  // sequence numbers, sizes and contents must all line up.
  const std::int64_t n = 8;
  const int rounds = 50;
  RunResult rr = run_spmd(n, 1, [&](Communicator& comm) {
    const std::int64_t me = comm.rank();
    for (int t = 0; t < rounds; ++t) {
      // All ranks derive the same size schedule.
      SplitMix64 rng(static_cast<std::uint64_t>(t) * 977);
      const std::size_t len = 1 + rng.next_below(64);
      std::vector<std::byte> out(len, static_cast<std::byte>(me ^ t));
      std::vector<std::byte> in(len);
      comm.send_and_recv(t, out, pos_mod(me + 1, n), in, pos_mod(me - 1, n));
      for (std::byte v : in) {
        BRUCK_ENSURE(v == static_cast<std::byte>(pos_mod(me - 1, n) ^ t));
      }
    }
  });
  const model::CostMetrics m = rr.trace->metrics();
  EXPECT_EQ(m.c1, rounds);
  EXPECT_EQ(rr.trace->event_count(), static_cast<std::size_t>(n * rounds));
}

TEST(Runtime, WallTimeIsMeasured) {
  RunResult rr = run_spmd(2, 1, [&](Communicator& comm) { comm.barrier(); });
  EXPECT_GT(rr.wall_seconds, 0.0);
  EXPECT_LT(rr.wall_seconds, 30.0);
}

// ---------------------------------------------------------------------------
// Port-namespace tags: round monotonicity, port budgets, and wire
// sequencing are all scoped per tag (the substrate of the nonblocking
// collectives' concurrency).

TEST(Runtime, TagNamespacesInterleaveIndependently) {
  // Two tags, each running its own "round 0" with a full port budget, and
  // completed in the opposite order from posting: neither namespace may
  // see the other's rounds, budgets, or sequence numbers.
  run_spmd(2, 1, [&](Communicator& comm) {
    const std::int64_t peer = 1 - comm.rank();
    const int t1 = comm.allocate_collective_tag();
    const int t2 = comm.allocate_collective_tag();
    BRUCK_ENSURE(t1 == 1 && t2 == 2);  // monotonic, never reused

    const std::vector<std::byte> out1 = bytes_of({10, 11});
    const std::vector<std::byte> out2 = bytes_of({20, 21, 22});
    comm.post_send(/*round=*/0, peer, std::span<const std::byte>(out1),
                   /*segments=*/1, t1);
    comm.post_send(/*round=*/0, peer, std::span<const std::byte>(out2),
                   /*segments=*/1, t2);
    std::vector<std::byte> in1(out1.size());
    std::vector<std::byte> in2(out2.size());
    const PortHandle h1 = comm.post_recv(0, peer, in1, 1, t1);
    const PortHandle h2 = comm.post_recv(0, peer, in2, 1, t2);
    comm.wait_recv(h2);  // reverse completion order
    comm.wait_recv(h1);
    BRUCK_ENSURE(in1 == out1);
    BRUCK_ENSURE(in2 == out2);
    comm.release_tag(t1);
    comm.release_tag(t2);
  });
}

TEST(Runtime, EarlyArrivalForUnpostedTagIsStashed) {
  // Rank 0 sends tag 2 *before* tag 1; rank 1 waits on tag 1 first.  The
  // inbox pops in arrival order, so the tag-2 message surfaces while tag 1
  // drains — it must be stashed and delivered when its receive is finally
  // posted, not dropped or misdelivered.
  run_spmd(2, 1, [&](Communicator& comm) {
    const int t1 = comm.allocate_collective_tag();
    const int t2 = comm.allocate_collective_tag();
    const std::vector<std::byte> first = bytes_of({2, 2, 2});   // tag 2
    const std::vector<std::byte> second = bytes_of({1, 1});     // tag 1
    if (comm.rank() == 0) {
      comm.post_send(0, 1, std::span<const std::byte>(first), 1, t2);
      comm.post_send(0, 1, std::span<const std::byte>(second), 1, t1);
      comm.barrier();
    } else {
      comm.barrier();  // both sends are already in the inbox
      std::vector<std::byte> in1(second.size());
      const PortHandle h1 = comm.post_recv(0, 0, in1, 1, t1);
      comm.wait_recv(h1);  // pops (and stashes) the earlier tag-2 message
      BRUCK_ENSURE(in1 == second);
      std::vector<std::byte> in2(first.size());
      const PortHandle h2 = comm.post_recv(0, 0, in2, 1, t2);
      BRUCK_ENSURE(comm.test_recv(h2));  // served from the stash: no wait
      BRUCK_ENSURE(in2 == first);
    }
    comm.release_tag(t1);
    comm.release_tag(t2);
  });
}

TEST(Runtime, ReleaseTagResetsNamespaceState) {
  // After release_tag, the tag's round counters and wire sequence numbers
  // are gone: a (hypothetical) fresh user of the same tag value may start
  // again at round 0 without tripping the monotonicity check.
  run_spmd(2, 1, [&](Communicator& comm) {
    const std::int64_t peer = 1 - comm.rank();
    const int tag = comm.allocate_collective_tag();
    const std::vector<std::byte> out = bytes_of({7});
    std::vector<std::byte> in(1);
    comm.post_send(/*round=*/5, peer, std::span<const std::byte>(out), 1, tag);
    comm.wait_recv(comm.post_recv(5, peer, in, 1, tag));
    BRUCK_ENSURE(in == out);
    comm.release_tag(tag);
    comm.barrier();  // both ranks fully drained before the tag is reborn
    comm.post_send(/*round=*/0, peer, std::span<const std::byte>(out), 1, tag);
    comm.wait_recv(comm.post_recv(0, peer, in, 1, tag));
    BRUCK_ENSURE(in == out);
  });
}

}  // namespace
}  // namespace bruck::mps
