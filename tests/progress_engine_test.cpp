// Nonblocking collectives through the multi-tenant progress engine:
// single-operation correctness per family, randomized concurrent sweeps of
// 2-8 tagged operations with payload and per-tag trace equality against
// sequential execution, wait_any collection, the serial FIFO fallback on
// exchange-only wrappers, the drop-before-wait destructor contract, and
// same-shape batching (fusion) statistics.
//
// Reduction data is order-exact (small integers in f64), so fused,
// concurrent, and blocking executions are compared bitwise.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "coll/api.hpp"
#include "coll/plan_cache.hpp"
#include "coll/progress.hpp"
#include "coll/verify.hpp"
#include "gtest/gtest.h"
#include "mps/runtime.hpp"
#include "sched/schedule.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace bruck {
namespace {

using coll::AllgatherOptions;
using coll::AllreduceOptions;
using coll::AlltoallOptions;
using coll::AlltoallvOptions;
using coll::ConcatAlgorithm;
using coll::ExecutionPath;
using coll::IndexAlgorithm;
using coll::ProgressEngine;
using coll::ProgressStats;
using coll::ReduceElem;
using coll::ReduceOp;
using coll::ReduceScatterOptions;
using coll::Request;

/// Order-exact f64 test value for (source rank, element id): small
/// integers, so sums are exact in any combine order.
double rs_value(std::int64_t src, std::int64_t idx) {
  SplitMix64 rng(0xFEEDF00Dull +
                 static_cast<std::uint64_t>(src) * 0x9E3779B97F4A7C15ull +
                 static_cast<std::uint64_t>(idx));
  return static_cast<double>(static_cast<std::int64_t>(rng.next() % 201) -
                             100);
}

/// Rank `src`'s reduce-scatter send buffer: n blocks of `elems` doubles,
/// block d element e keyed (src, salt + d * elems + e).
std::vector<std::byte> fill_reduce_send(std::int64_t n, std::int64_t src,
                                        std::int64_t elems,
                                        std::int64_t salt) {
  std::vector<std::byte> out(
      static_cast<std::size_t>(n * elems) * sizeof(double));
  auto* v = reinterpret_cast<double*>(out.data());
  for (std::int64_t i = 0; i < n * elems; ++i) {
    v[i] = rs_value(src, salt + i);
  }
  return out;
}

/// The combined block rank `dst` must end up with.
std::vector<double> expected_reduce_block(std::int64_t n, std::int64_t dst,
                                          std::int64_t elems,
                                          std::int64_t salt) {
  std::vector<double> out(static_cast<std::size_t>(elems), 0.0);
  for (std::int64_t src = 0; src < n; ++src) {
    for (std::int64_t e = 0; e < elems; ++e) {
      out[static_cast<std::size_t>(e)] +=
          rs_value(src, salt + dst * elems + e);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Single operations: each family's nonblocking path delivers the payload
// its blocking twin would, and the engine's books balance.

TEST(ProgressEngine, SingleAlltoallMatchesOracle) {
  const std::int64_t n = 8;
  const int k = 2;
  const std::int64_t b = 64;
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  std::vector<ProgressStats> stats(static_cast<std::size_t>(n));
  mps::RunResult rr = mps::run_spmd(n, k, [&](mps::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    std::vector<std::byte> send(static_cast<std::size_t>(n * b));
    std::vector<std::byte> recv(send.size(), std::byte{0xEE});
    coll::fill_index_send(send, n, rank, b, 11);
    Request req = coll::ialltoall(comm, send, recv, b);
    while (!req.test()) {
    }
    EXPECT_TRUE(req.valid());  // a true test() is sticky until wait()
    const int rounds = req.wait();
    EXPECT_GT(rounds, 0);
    EXPECT_FALSE(req.valid());
    errors[static_cast<std::size_t>(rank)] =
        coll::check_index_recv(recv, n, rank, b, 11);
    stats[static_cast<std::size_t>(rank)] =
        ProgressEngine::for_comm(comm).stats();
  });
  for (const std::string& e : errors) ASSERT_EQ(e, "");
  for (const ProgressStats& st : stats) {
    EXPECT_EQ(st.submitted, 1u);
    EXPECT_EQ(st.completed, 1u);
    EXPECT_EQ(st.serial_fallback, 0u);
    EXPECT_EQ(st.tags_used, 1u);
  }
  EXPECT_EQ(rr.trace->to_schedule().validate(), "");
}

TEST(ProgressEngine, SingleAllgatherMatchesOracle) {
  const std::int64_t n = 7;
  const std::int64_t b = 48;
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  mps::run_spmd(n, 2, [&](mps::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    std::vector<std::byte> send(static_cast<std::size_t>(b));
    std::vector<std::byte> recv(static_cast<std::size_t>(n * b),
                                std::byte{0xEE});
    coll::fill_concat_send(send, rank, b, 12);
    Request req = coll::iallgather(comm, send, recv, b);
    (void)req.wait();
    errors[static_cast<std::size_t>(rank)] =
        coll::check_concat_recv(recv, n, b, 12);
  });
  for (const std::string& e : errors) ASSERT_EQ(e, "");
}

TEST(ProgressEngine, SingleReduceScatterMatchesExpectation) {
  const std::int64_t n = 6;
  const std::int64_t elems = 9;
  const std::int64_t b = elems * static_cast<std::int64_t>(sizeof(double));
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  mps::run_spmd(n, 2, [&](mps::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    const std::vector<std::byte> send = fill_reduce_send(n, rank, elems, 0);
    std::vector<std::byte> recv(static_cast<std::size_t>(b), std::byte{0xEE});
    Request req = coll::ireduce_scatter(comm, send, recv, b,
                                        ReduceOp::sum(ReduceElem::kF64));
    (void)req.wait();
    const std::vector<double> want = expected_reduce_block(n, rank, elems, 0);
    if (std::memcmp(recv.data(), want.data(), recv.size()) != 0) {
      errors[static_cast<std::size_t>(rank)] = "reduce_scatter mismatch";
    }
  });
  for (const std::string& e : errors) ASSERT_EQ(e, "");
}

TEST(ProgressEngine, SingleAllreduceMatchesExpectation) {
  const std::int64_t n = 6;
  const std::int64_t elems = 13;  // pads: 13 = 6*3 - 5, exercises the tail
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  mps::run_spmd(n, 2, [&](mps::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    std::vector<std::byte> send(static_cast<std::size_t>(elems) *
                                sizeof(double));
    auto* sv = reinterpret_cast<double*>(send.data());
    for (std::int64_t i = 0; i < elems; ++i) sv[i] = rs_value(rank, i);
    std::vector<std::byte> recv(send.size(), std::byte{0xEE});
    Request req =
        coll::iallreduce(comm, send, recv, ReduceOp::sum(ReduceElem::kF64));
    (void)req.wait();
    std::vector<double> want(static_cast<std::size_t>(elems), 0.0);
    for (std::int64_t src = 0; src < n; ++src) {
      for (std::int64_t e = 0; e < elems; ++e) {
        want[static_cast<std::size_t>(e)] += rs_value(src, e);
      }
    }
    if (std::memcmp(recv.data(), want.data(), recv.size()) != 0) {
      errors[static_cast<std::size_t>(rank)] = "allreduce mismatch";
    }
  });
  for (const std::string& e : errors) ASSERT_EQ(e, "");
}

TEST(ProgressEngine, SingleAlltoallvMatchesBlockingTwin) {
  const std::int64_t n = 6;
  std::vector<std::int64_t> counts(static_cast<std::size_t>(n * n));
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      counts[static_cast<std::size_t>(i * n + j)] = ((i * 7 + j * 3) % 5) * 4;
    }
  }
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  mps::run_spmd(n, 2, [&](mps::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    std::int64_t send_bytes = 0;
    std::int64_t recv_bytes = 0;
    for (std::int64_t j = 0; j < n; ++j) {
      send_bytes += counts[static_cast<std::size_t>(rank * n + j)];
      recv_bytes += counts[static_cast<std::size_t>(j * n + rank)];
    }
    std::vector<std::byte> send(static_cast<std::size_t>(send_bytes));
    for (std::size_t i = 0; i < send.size(); ++i) {
      send[i] = static_cast<std::byte>((rank * 131 + static_cast<std::int64_t>(i)) & 0xFF);
    }
    std::vector<std::byte> recv_nb(static_cast<std::size_t>(recv_bytes),
                                   std::byte{0xEE});
    std::vector<std::byte> recv_b(recv_nb.size(), std::byte{0xDD});
    Request req = coll::ialltoallv(comm, send, recv_nb, counts);
    const int rounds_nb = req.wait();
    AlltoallvOptions blocking;
    blocking.start_round = rounds_nb;  // tag 0 rounds stay monotonic
    coll::alltoallv(comm, send, recv_b, counts, {}, {}, blocking);
    if (recv_nb != recv_b) {
      errors[static_cast<std::size_t>(rank)] =
          "nonblocking and blocking alltoallv payloads differ";
    }
  });
  for (const std::string& e : errors) ASSERT_EQ(e, "");
}

// ---------------------------------------------------------------------------
// Concurrency: several outstanding tagged operations on one communicator.

TEST(ProgressEngine, ConcurrentTracePerTagMatchesSoloRuns) {
  // Three interleaved collectives; each tag's executed sub-trace must be
  // exactly the trace a solo blocking (pipelined) run of that operation
  // produces.
  const std::int64_t n = 9;
  const int k = 2;
  const std::int64_t b0 = 24, b1 = 16, b2 = 40;
  const std::uint64_t s0 = 101, s1 = 102, s2 = 103;
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  mps::RunResult rr = mps::run_spmd(n, k, [&](mps::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    std::vector<std::byte> send0(static_cast<std::size_t>(n * b0));
    std::vector<std::byte> recv0(send0.size(), std::byte{0xEE});
    std::vector<std::byte> send1(static_cast<std::size_t>(b1));
    std::vector<std::byte> recv1(static_cast<std::size_t>(n * b1),
                                 std::byte{0xEE});
    std::vector<std::byte> send2(static_cast<std::size_t>(n * b2));
    std::vector<std::byte> recv2(send2.size(), std::byte{0xEE});
    coll::fill_index_send(send0, n, rank, b0, s0);
    coll::fill_concat_send(send1, rank, b1, s1);
    coll::fill_index_send(send2, n, rank, b2, s2);
    std::array<Request, 3> reqs = {coll::ialltoall(comm, send0, recv0, b0),
                                   coll::iallgather(comm, send1, recv1, b1),
                                   coll::ialltoall(comm, send2, recv2, b2)};
    coll::wait_all(reqs);
    std::string e = coll::check_index_recv(recv0, n, rank, b0, s0);
    if (e.empty()) e = coll::check_concat_recv(recv1, n, b1, s1);
    if (e.empty()) e = coll::check_index_recv(recv2, n, rank, b2, s2);
    errors[static_cast<std::size_t>(rank)] = e;
  });
  for (const std::string& e : errors) ASSERT_EQ(e, "");

  // Submission order fixes the tag order: op i runs in tag i + 1.
  const std::vector<int> tags = rr.trace->tags();
  EXPECT_TRUE(std::find(tags.begin(), tags.end(), 1) != tags.end());
  EXPECT_TRUE(std::find(tags.begin(), tags.end(), 3) != tags.end());

  const testutil::CollRun solo0 = testutil::run_index(
      n, k, b0,
      [&](mps::Communicator& comm, std::span<const std::byte> send,
          std::span<std::byte> recv) {
        return coll::alltoall(comm, send, recv, b0);
      },
      s0);
  const testutil::CollRun solo1 = testutil::run_concat(
      n, k, b1,
      [&](mps::Communicator& comm, std::span<const std::byte> send,
          std::span<std::byte> recv) {
        return coll::allgather(comm, send, recv, b1);
      },
      s1);
  const testutil::CollRun solo2 = testutil::run_index(
      n, k, b2,
      [&](mps::Communicator& comm, std::span<const std::byte> send,
          std::span<std::byte> recv) {
        return coll::alltoall(comm, send, recv, b2);
      },
      s2);
  ASSERT_EQ(solo0.error, "");
  ASSERT_EQ(solo1.error, "");
  ASSERT_EQ(solo2.error, "");
  const std::array<const testutil::CollRun*, 3> solos = {&solo0, &solo1,
                                                         &solo2};
  for (int i = 0; i < 3; ++i) {
    sched::Schedule concurrent = rr.trace->to_schedule_for_tag(i + 1);
    sched::Schedule solo = solos[static_cast<std::size_t>(i)]
                               ->trace->to_schedule();
    concurrent.normalize();
    solo.normalize();
    EXPECT_TRUE(concurrent == solo)
        << "tag " << (i + 1) << " trace diverges from its solo run";
  }
}

TEST(ProgressEngine, ConcurrentRandomizedSweep) {
  // 2-8 outstanding operations of mixed families and distinct geometries
  // per trial; every payload must match the blocking twin bitwise.
  SplitMix64 rng(0xA11C0DE);
  for (int trial = 0; trial < 12; ++trial) {
    const std::int64_t n = 3 + static_cast<std::int64_t>(rng.next_below(6));
    const int k = 1 + static_cast<int>(rng.next_below(3));
    const int ops = 2 + static_cast<int>(rng.next_below(7));
    const std::uint64_t seed = rng.next();
    SCOPED_TRACE("trial=" + std::to_string(trial) + " n=" + std::to_string(n) +
                 " k=" + std::to_string(k) + " ops=" + std::to_string(ops));
    std::vector<std::string> errors(static_cast<std::size_t>(n));
    std::vector<ProgressStats> stats(static_cast<std::size_t>(n));
    mps::run_spmd(n, k, [&](mps::Communicator& comm) {
      const std::int64_t rank = comm.rank();
      SplitMix64 local(seed);  // same stream on every rank: SPMD decisions
      struct OpBufs {
        int family;  // 0 = alltoall, 1 = allgather, 2 = reduce_scatter
        std::int64_t b = 0;
        std::int64_t elems = 0;
        std::uint64_t seed = 0;
        std::vector<std::byte> send;
        std::vector<std::byte> recv;
      };
      std::vector<OpBufs> bufs(static_cast<std::size_t>(ops));
      std::vector<Request> reqs;
      reqs.reserve(static_cast<std::size_t>(ops));
      for (int i = 0; i < ops; ++i) {
        OpBufs& ob = bufs[static_cast<std::size_t>(i)];
        ob.family = static_cast<int>(local.next_below(3));
        ob.seed = local.next();
        // Distinct block size per op index: no two ops share a fuse
        // signature, so nothing batches and every op gets its own tag.
        ob.b = 8 * (i + 1) + static_cast<std::int64_t>(local.next_below(8));
        switch (ob.family) {
          case 0:
            ob.send.resize(static_cast<std::size_t>(n * ob.b));
            ob.recv.assign(ob.send.size(), std::byte{0xEE});
            coll::fill_index_send(ob.send, n, rank, ob.b, ob.seed);
            reqs.push_back(coll::ialltoall(comm, ob.send, ob.recv, ob.b));
            break;
          case 1:
            ob.send.resize(static_cast<std::size_t>(ob.b));
            ob.recv.assign(static_cast<std::size_t>(n * ob.b),
                           std::byte{0xEE});
            coll::fill_concat_send(ob.send, rank, ob.b, ob.seed);
            reqs.push_back(coll::iallgather(comm, ob.send, ob.recv, ob.b));
            break;
          default:
            ob.elems = ob.b;  // elems, not bytes: keep shapes modest
            ob.b = ob.elems * static_cast<std::int64_t>(sizeof(double));
            ob.send = fill_reduce_send(
                n, rank, ob.elems, static_cast<std::int64_t>(ob.seed % 1024));
            ob.recv.assign(static_cast<std::size_t>(ob.b), std::byte{0xEE});
            reqs.push_back(
                coll::ireduce_scatter(comm, ob.send, ob.recv, ob.b,
                                      ReduceOp::sum(ReduceElem::kF64)));
            break;
        }
      }
      if (ProgressEngine::for_comm(comm).outstanding() !=
          static_cast<std::size_t>(ops)) {
        errors[static_cast<std::size_t>(rank)] = "outstanding() != ops";
        // fall through: the requests still have to be completed
      }
      // Complete in reverse submission order: every wait but the last
      // collects an operation the engine finished while driving others.
      for (int i = ops - 1; i >= 0; --i) {
        (void)reqs[static_cast<std::size_t>(i)].wait();
      }
      std::string& err = errors[static_cast<std::size_t>(rank)];
      for (int i = 0; i < ops && err.empty(); ++i) {
        const OpBufs& ob = bufs[static_cast<std::size_t>(i)];
        switch (ob.family) {
          case 0:
            err = coll::check_index_recv(ob.recv, n, rank, ob.b, ob.seed);
            break;
          case 1:
            err = coll::check_concat_recv(ob.recv, n, ob.b, ob.seed);
            break;
          default: {
            const std::vector<double> want = expected_reduce_block(
                n, rank, ob.elems, static_cast<std::int64_t>(ob.seed % 1024));
            if (std::memcmp(ob.recv.data(), want.data(), ob.recv.size()) !=
                0) {
              err = "reduce_scatter mismatch at op " + std::to_string(i);
            }
            break;
          }
        }
      }
      stats[static_cast<std::size_t>(rank)] =
          ProgressEngine::for_comm(comm).stats();
    });
    for (const std::string& e : errors) ASSERT_EQ(e, "");
    for (const ProgressStats& st : stats) {
      EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(ops));
      EXPECT_EQ(st.completed, static_cast<std::uint64_t>(ops));
      EXPECT_EQ(st.fused_groups, 0u);  // distinct shapes: nothing batches
      EXPECT_EQ(st.tags_used, static_cast<std::uint64_t>(ops));
      EXPECT_EQ(st.serial_fallback, 0u);
    }
  }
}

TEST(ProgressEngine, WaitAnyCollectsEveryRequestExactlyOnce) {
  const std::int64_t n = 8;
  const std::int64_t bs[] = {16, 32, 48, 64};
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  mps::run_spmd(n, 2, [&](mps::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    std::array<std::vector<std::byte>, 4> send;
    std::array<std::vector<std::byte>, 4> recv;
    std::vector<Request> reqs;
    for (int i = 0; i < 4; ++i) {
      send[static_cast<std::size_t>(i)].resize(
          static_cast<std::size_t>(n * bs[i]));
      recv[static_cast<std::size_t>(i)].assign(
          send[static_cast<std::size_t>(i)].size(), std::byte{0xEE});
      coll::fill_index_send(send[static_cast<std::size_t>(i)], n, rank, bs[i],
                            200 + static_cast<std::uint64_t>(i));
      reqs.push_back(coll::ialltoall(comm, send[static_cast<std::size_t>(i)],
                                     recv[static_cast<std::size_t>(i)],
                                     bs[i]));
    }
    std::set<std::size_t> seen;
    for (int i = 0; i < 4; ++i) {
      const std::size_t idx = coll::wait_any(reqs);
      if (!seen.insert(idx).second) {
        errors[static_cast<std::size_t>(rank)] = "wait_any repeated an index";
        return;
      }
    }
    std::string& err = errors[static_cast<std::size_t>(rank)];
    if (seen.size() != 4) err = "wait_any missed a request";
    for (int i = 0; i < 4 && err.empty(); ++i) {
      err = coll::check_index_recv(recv[static_cast<std::size_t>(i)], n, rank,
                                   bs[i], 200 + static_cast<std::uint64_t>(i));
    }
  });
  for (const std::string& e : errors) ASSERT_EQ(e, "");
}

TEST(ProgressEngine, DroppedRequestCompletesBeforeBuffersDie) {
  const std::int64_t n = 6;
  const std::int64_t b = 32;
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  mps::run_spmd(n, 2, [&](mps::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    std::vector<std::byte> send(static_cast<std::size_t>(n * b));
    std::vector<std::byte> recv(send.size(), std::byte{0xEE});
    coll::fill_index_send(send, n, rank, b, 31);
    {
      Request req = coll::ialltoall(comm, send, recv, b);
      // Dropped without wait(): the destructor must complete the operation
      // while send/recv are still alive.
    }
    if (ProgressEngine::for_comm(comm).outstanding() != 0) {
      errors[static_cast<std::size_t>(rank)] = "dropped request leaked";
      return;
    }
    errors[static_cast<std::size_t>(rank)] =
        coll::check_index_recv(recv, n, rank, b, 31);
  });
  for (const std::string& e : errors) ASSERT_EQ(e, "");
}

// ---------------------------------------------------------------------------
// Serial FIFO fallback: wrappers that only override exchange() have no tag
// namespaces; the engine must degrade, not deadlock.

class PassthroughComm final : public mps::Communicator {
 public:
  explicit PassthroughComm(Communicator& inner) : inner_(&inner) {}
  [[nodiscard]] std::int64_t rank() const override { return inner_->rank(); }
  [[nodiscard]] std::int64_t size() const override { return inner_->size(); }
  [[nodiscard]] int ports() const override { return inner_->ports(); }
  void barrier() override { inner_->barrier(); }
  void record_plan_event(const mps::PlanEvent& e) override {
    inner_->record_plan_event(e);
  }
  void exchange(int round, std::span<const mps::SendSpec> sends,
                std::span<const mps::RecvSpec> recvs) override {
    inner_->exchange(round, sends, recvs);
  }

 private:
  Communicator* inner_;
};

TEST(ProgressEngine, SerialFallbackOnExchangeOnlyWrappers) {
  const std::int64_t n = 6;
  const std::int64_t b = 16;
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  std::vector<ProgressStats> stats(static_cast<std::size_t>(n));
  mps::run_spmd(n, 2, [&](mps::Communicator& comm) {
    PassthroughComm wrapped(comm);
    const std::int64_t rank = comm.rank();
    std::vector<std::byte> send0(static_cast<std::size_t>(n * b));
    std::vector<std::byte> recv0(send0.size(), std::byte{0xEE});
    std::vector<std::byte> send1(static_cast<std::size_t>(b));
    std::vector<std::byte> recv1(static_cast<std::size_t>(n * b),
                                 std::byte{0xEE});
    coll::fill_index_send(send0, n, rank, b, 41);
    coll::fill_concat_send(send1, rank, b, 42);
    Request r0 = coll::ialltoall(wrapped, send0, recv0, b);
    Request r1 = coll::iallgather(wrapped, send1, recv1, b);
    // On the fallback, test() degrades to wait() and must return true.
    const bool done1 = r1.test();  // out of order: runs r0 first internally
    (void)r1.wait();
    (void)r0.wait();
    std::string e = done1 ? "" : "fallback test() returned false";
    if (e.empty()) e = coll::check_index_recv(recv0, n, rank, b, 41);
    if (e.empty()) e = coll::check_concat_recv(recv1, n, b, 42);
    errors[static_cast<std::size_t>(rank)] = e;
    stats[static_cast<std::size_t>(rank)] =
        ProgressEngine::for_comm(wrapped).stats();
  });
  for (const std::string& e : errors) ASSERT_EQ(e, "");
  for (const ProgressStats& st : stats) {
    EXPECT_EQ(st.submitted, 2u);
    EXPECT_EQ(st.completed, 2u);
    EXPECT_EQ(st.serial_fallback, 2u);
    EXPECT_EQ(st.tags_used, 0u);  // tag 0 only: no namespaces allocated
    EXPECT_EQ(st.fused_groups, 0u);
  }
}

// ---------------------------------------------------------------------------
// One option resolver per family: an i* call must key the very plan its
// blocking twin just ran.  If the two resolutions ever drift (a different
// segment count, strategy, radix, or layout digest), the twin misses the
// PlanCache and this test names the family.

/// Runs `call(comm, start_round, nonblocking)` blocking and then as its i*
/// twin on every rank — on the native communicator and on an exchange-only
/// wrapper (the engine's serial fallback) — and checks that every PlanEvent
/// of the twin is a cache hit with the blocking run's rounds and bytes.
/// The cache starts empty, so only the blocking run's keys can hit.
template <typename Call>
void expect_twin_shares_plan(const std::string& label, const Call& call) {
  const std::int64_t n = 6;
  for (const bool wrap : {false, true}) {
    SCOPED_TRACE(label + (wrap ? " (exchange-only wrapper)" : ""));
    coll::PlanCache::global().clear();
    mps::RunResult rr = mps::run_spmd(n, 2, [&](mps::Communicator& comm) {
      PassthroughComm wrapped(comm);
      mps::Communicator& c = wrap ? static_cast<mps::Communicator&>(wrapped)
                                  : comm;
      const int next = call(c, 0, false);
      (void)call(c, next, true);
    });
    for (std::int64_t r = 0; r < n; ++r) {
      const std::vector<mps::PlanEvent>& events = rr.trace->sink(r).plans();
      ASSERT_FALSE(events.empty());
      ASSERT_EQ(events.size() % 2, 0u);
      const std::size_t half = events.size() / 2;
      for (std::size_t i = 0; i < half; ++i) {
        const mps::PlanEvent& blocking = events[i];
        const mps::PlanEvent& twin = events[half + i];
        EXPECT_TRUE(twin.cache_hit) << "rank " << r << " stage " << i;
        EXPECT_EQ(twin.rounds, blocking.rounds);
        EXPECT_EQ(twin.bytes_sent, blocking.bytes_sent);
        EXPECT_EQ(twin.bytes_reduced, blocking.bytes_reduced);
      }
    }
  }
}

TEST(ProgressEngine, BlockingAndNonblockingTwinsShareOnePlan) {
  const std::int64_t n = 6;
  const std::int64_t b = 16;
  const ReduceOp sum = ReduceOp::sum(ReduceElem::kF64);
  // Strided layouts whose pieces are whole f64 elements, so the reduction
  // families can use them too.
  const coll::Layout sl = coll::Layout::vector(2, 8, 12);
  const coll::Layout rl =
      coll::Layout::vector(2, 8, 16).with_block_stride(40);
  const auto bytes = [](std::int64_t count) {
    return std::vector<std::byte>(static_cast<std::size_t>(count));
  };
  std::vector<std::int64_t> counts(static_cast<std::size_t>(n * n));
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      counts[static_cast<std::size_t>(i * n + j)] = ((i * 7 + j * 3) % 5) * 4;
    }
  }
  const auto row_bytes = [&](std::int64_t rank, bool column) {
    std::int64_t total = 0;
    for (std::int64_t j = 0; j < n; ++j) {
      total += counts[static_cast<std::size_t>(column ? j * n + rank
                                                      : rank * n + j)];
    }
    return total;
  };

  expect_twin_shares_plan(
      "alltoall", [&](mps::Communicator& comm, int start, bool nb) {
        std::vector<std::byte> send = bytes(n * b);
        std::vector<std::byte> recv = bytes(n * b);
        AlltoallOptions o;
        o.start_round = start;
        return nb ? coll::ialltoall(comm, send, recv, b, o).wait()
                  : coll::alltoall(comm, send, recv, b, o);
      });
  expect_twin_shares_plan(
      "strided alltoall", [&](mps::Communicator& comm, int start, bool nb) {
        std::vector<std::byte> send = bytes(sl.span_bytes(n));
        std::vector<std::byte> recv = bytes(rl.span_bytes(n));
        AlltoallOptions o;
        o.start_round = start;
        return nb ? coll::ialltoall(comm, send, recv, sl, rl, o).wait()
                  : coll::alltoall(comm, send, recv, sl, rl, o);
      });
  expect_twin_shares_plan(
      "allgather", [&](mps::Communicator& comm, int start, bool nb) {
        std::vector<std::byte> send = bytes(b);
        std::vector<std::byte> recv = bytes(n * b);
        AllgatherOptions o;
        o.start_round = start;
        return nb ? coll::iallgather(comm, send, recv, b, o).wait()
                  : coll::allgather(comm, send, recv, b, o);
      });
  expect_twin_shares_plan(
      "strided allgather", [&](mps::Communicator& comm, int start, bool nb) {
        std::vector<std::byte> send = bytes(sl.span_bytes(1));
        std::vector<std::byte> recv = bytes(rl.span_bytes(n));
        AllgatherOptions o;
        o.start_round = start;
        return nb ? coll::iallgather(comm, send, recv, sl, rl, o).wait()
                  : coll::allgather(comm, send, recv, sl, rl, o);
      });
  expect_twin_shares_plan(
      "alltoallv", [&](mps::Communicator& comm, int start, bool nb) {
        std::vector<std::byte> send = bytes(row_bytes(comm.rank(), false));
        std::vector<std::byte> recv = bytes(row_bytes(comm.rank(), true));
        AlltoallvOptions o;
        o.start_round = start;
        return nb ? coll::ialltoallv(comm, send, recv, counts, {}, {}, o)
                        .wait()
                  : coll::alltoallv(comm, send, recv, counts, {}, {}, o);
      });
  expect_twin_shares_plan(
      "strided alltoallv", [&](mps::Communicator& comm, int start, bool nb) {
        std::vector<std::byte> send = bytes(sl.span_bytes(n));
        std::vector<std::byte> recv = bytes(rl.span_bytes(n));
        AlltoallvOptions o;
        o.start_round = start;
        return nb ? coll::ialltoallv(comm, send, recv, counts, {}, {}, sl, rl,
                                     o)
                        .wait()
                  : coll::alltoallv(comm, send, recv, counts, {}, {}, sl, rl,
                                    o);
      });
  expect_twin_shares_plan(
      "reduce_scatter", [&](mps::Communicator& comm, int start, bool nb) {
        std::vector<std::byte> send = bytes(n * b);
        std::vector<std::byte> recv = bytes(b);
        ReduceScatterOptions o;
        o.start_round = start;
        return nb ? coll::ireduce_scatter(comm, send, recv, b, sum, o).wait()
                  : coll::reduce_scatter(comm, send, recv, b, sum, o);
      });
  expect_twin_shares_plan(
      "strided reduce_scatter",
      [&](mps::Communicator& comm, int start, bool nb) {
        std::vector<std::byte> send = bytes(sl.span_bytes(n));
        std::vector<std::byte> recv = bytes(rl.span_bytes(1));
        ReduceScatterOptions o;
        o.start_round = start;
        return nb ? coll::ireduce_scatter(comm, send, recv, sl, rl, sum, o)
                        .wait()
                  : coll::reduce_scatter(comm, send, recv, sl, rl, sum, o);
      });
  expect_twin_shares_plan(
      "allreduce", [&](mps::Communicator& comm, int start, bool nb) {
        // 13 elements over 6 ranks: exercises the padded tail block.
        std::vector<std::byte> send = bytes(13 * 8);
        std::vector<std::byte> recv = bytes(13 * 8);
        AllreduceOptions o;
        o.start_round = start;
        return nb ? coll::iallreduce(comm, send, recv, sum, o).wait()
                  : coll::allreduce(comm, send, recv, sum, o);
      });
  expect_twin_shares_plan(
      "strided allreduce", [&](mps::Communicator& comm, int start, bool nb) {
        std::vector<std::byte> send = bytes(sl.span_bytes(1));
        std::vector<std::byte> recv = bytes(rl.span_bytes(1));
        AllreduceOptions o;
        o.start_round = start;
        return nb ? coll::iallreduce(comm, send, recv, sl, rl, sum, o).wait()
                  : coll::allreduce(comm, send, recv, sl, rl, sum, o);
      });
}

// ---------------------------------------------------------------------------
// Batching: same-shape operations submitted together fuse into one wire
// exchange when the model says the saved start-ups beat the pack cost.
// At k = 1 and small blocks the (G-1)·C1·β saving dwarfs the copies.

TEST(ProgressEngine, SameShapeAlltoallsFuseAtKOne) {
  const std::int64_t n = 8;
  const int k = 1;
  const std::int64_t b = 1024;  // fused block G·b = 4 KiB, under the cap
  const int G = 4;
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  std::vector<ProgressStats> stats(static_cast<std::size_t>(n));
  mps::run_spmd(n, k, [&](mps::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    std::vector<std::vector<std::byte>> send(static_cast<std::size_t>(G));
    std::vector<std::vector<std::byte>> recv(static_cast<std::size_t>(G));
    std::vector<Request> reqs;
    for (int g = 0; g < G; ++g) {
      send[static_cast<std::size_t>(g)].resize(
          static_cast<std::size_t>(n * b));
      recv[static_cast<std::size_t>(g)].assign(
          send[static_cast<std::size_t>(g)].size(), std::byte{0xEE});
      coll::fill_index_send(send[static_cast<std::size_t>(g)], n, rank, b,
                            500 + static_cast<std::uint64_t>(g));
      reqs.push_back(coll::ialltoall(comm, send[static_cast<std::size_t>(g)],
                                     recv[static_cast<std::size_t>(g)], b));
    }
    coll::wait_all(reqs);
    std::string& err = errors[static_cast<std::size_t>(rank)];
    for (int g = 0; g < G && err.empty(); ++g) {
      err = coll::check_index_recv(recv[static_cast<std::size_t>(g)], n, rank,
                                   b, 500 + static_cast<std::uint64_t>(g));
    }
    stats[static_cast<std::size_t>(rank)] =
        ProgressEngine::for_comm(comm).stats();
  });
  for (const std::string& e : errors) ASSERT_EQ(e, "");
  for (const ProgressStats& st : stats) {
    EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(G));
    EXPECT_EQ(st.completed, static_cast<std::uint64_t>(G));
    EXPECT_EQ(st.fused_groups, 1u);
    EXPECT_EQ(st.fused_members, static_cast<std::uint64_t>(G));
    EXPECT_EQ(st.tags_used, 1u);  // one wire exchange, one tag
  }
}

// The fused-block cap: a same-shape group whose fused wire block G·b would
// exceed BRUCK_FUSE_MAX_BLOCK (default 4 KiB) runs per-op instead — past a
// few KiB the substrate's large-message costs outgrow the start-up savings.
TEST(ProgressEngine, OversizedGroupFallsBackToPerOp) {
  const std::int64_t n = 8;
  const int k = 1;
  const std::int64_t b = 4096;  // fused block would be 16 KiB > 4 KiB cap
  const int G = 4;
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  std::vector<ProgressStats> stats(static_cast<std::size_t>(n));
  mps::run_spmd(n, k, [&](mps::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    std::vector<std::vector<std::byte>> send(static_cast<std::size_t>(G));
    std::vector<std::vector<std::byte>> recv(static_cast<std::size_t>(G));
    std::vector<Request> reqs;
    for (int g = 0; g < G; ++g) {
      send[static_cast<std::size_t>(g)].resize(
          static_cast<std::size_t>(n * b));
      recv[static_cast<std::size_t>(g)].assign(
          send[static_cast<std::size_t>(g)].size(), std::byte{0xEE});
      coll::fill_index_send(send[static_cast<std::size_t>(g)], n, rank, b,
                            800 + static_cast<std::uint64_t>(g));
      reqs.push_back(coll::ialltoall(comm, send[static_cast<std::size_t>(g)],
                                     recv[static_cast<std::size_t>(g)], b));
    }
    coll::wait_all(reqs);
    std::string& err = errors[static_cast<std::size_t>(rank)];
    for (int g = 0; g < G && err.empty(); ++g) {
      err = coll::check_index_recv(recv[static_cast<std::size_t>(g)], n, rank,
                                   b, 800 + static_cast<std::uint64_t>(g));
    }
    stats[static_cast<std::size_t>(rank)] =
        ProgressEngine::for_comm(comm).stats();
  });
  for (const std::string& e : errors) ASSERT_EQ(e, "");
  for (const ProgressStats& st : stats) {
    EXPECT_EQ(st.fused_groups, 0u);
    EXPECT_EQ(st.fused_members, 0u);
    EXPECT_EQ(st.tags_used, static_cast<std::uint64_t>(G));
  }
}

TEST(ProgressEngine, SameShapeReduceScattersFuseAtKOne) {
  const std::int64_t n = 8;
  const int k = 1;
  const std::int64_t elems = 256;  // fused block G·b = 4 KiB, at the cap
  const std::int64_t b = elems * static_cast<std::int64_t>(sizeof(double));
  const int G = 2;
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  std::vector<ProgressStats> stats(static_cast<std::size_t>(n));
  mps::run_spmd(n, k, [&](mps::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    std::vector<std::vector<std::byte>> send(static_cast<std::size_t>(G));
    std::vector<std::vector<std::byte>> recv(static_cast<std::size_t>(G));
    std::vector<Request> reqs;
    for (int g = 0; g < G; ++g) {
      send[static_cast<std::size_t>(g)] =
          fill_reduce_send(n, rank, elems, 7000 + g);
      recv[static_cast<std::size_t>(g)].assign(static_cast<std::size_t>(b),
                                               std::byte{0xEE});
      reqs.push_back(coll::ireduce_scatter(
          comm, send[static_cast<std::size_t>(g)],
          recv[static_cast<std::size_t>(g)], b,
          ReduceOp::sum(ReduceElem::kF64)));
    }
    coll::wait_all(reqs);
    std::string& err = errors[static_cast<std::size_t>(rank)];
    for (int g = 0; g < G && err.empty(); ++g) {
      const std::vector<double> want =
          expected_reduce_block(n, rank, elems, 7000 + g);
      if (std::memcmp(recv[static_cast<std::size_t>(g)].data(), want.data(),
                      recv[static_cast<std::size_t>(g)].size()) != 0) {
        err = "fused reduce_scatter mismatch at member " + std::to_string(g);
      }
    }
    stats[static_cast<std::size_t>(rank)] =
        ProgressEngine::for_comm(comm).stats();
  });
  for (const std::string& e : errors) ASSERT_EQ(e, "");
  for (const ProgressStats& st : stats) {
    EXPECT_EQ(st.fused_groups, 1u);
    EXPECT_EQ(st.fused_members, static_cast<std::uint64_t>(G));
  }
}

}  // namespace
}  // namespace bruck
