// The pipelined plan executor over the nonblocking port engine.
//
// The correctness story extends plan_cache_test's three-way cross-check to
// wire segmentation: for random (n, k, radix, b, segments) configurations,
// the pipelined executor must deliver exactly the payloads the kReference
// oracle does AND record the builder's schedule at its closed-form C1 —
// wire segmentation and out-of-order receive completion must be invisible
// above the transport.  Also covered here: idle-round
// tree-based baselines, the deferred engine fallback for wrapper
// communicators that only override exchange(), groups, segment tuning, and
// the drop_from_barrier exception-unwind path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <vector>

#include "coll/api.hpp"
#include "coll/plan.hpp"
#include "coll/plan_cache.hpp"
#include "coll/verify.hpp"
#include "model/tuner.hpp"
#include "mps/group.hpp"
#include "mps/runtime.hpp"
#include "test_util.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace bruck {
namespace {

using namespace std::chrono_literals;

using coll::AllgatherOptions;
using coll::AlltoallOptions;
using coll::ConcatAlgorithm;
using coll::ExecutionPath;
using coll::IndexAlgorithm;

// ---------------------------------------------------------------------------
// Random sweeps: pipelined vs the reference payloads, and vs the builder
// schedule and closed-form C1.

TEST(PipelinedExecutor, IndexRandomSweepMatchesReference) {
  SplitMix64 rng(0xF1FE11E5);
  for (int trial = 0; trial < 40; ++trial) {
    const std::int64_t n = 1 + static_cast<std::int64_t>(rng.next_below(24));
    const int k = 1 + static_cast<int>(rng.next_below(4));
    const std::int64_t b = static_cast<std::int64_t>(rng.next_below(24));
    const std::int64_t r =
        2 + static_cast<std::int64_t>(rng.next_below(
                static_cast<std::uint64_t>(std::max<std::int64_t>(1, n - 1))));
    const int segments = 1 + static_cast<int>(rng.next_below(4));
    SCOPED_TRACE("n=" + std::to_string(n) + " r=" + std::to_string(r) +
                 " k=" + std::to_string(k) + " b=" + std::to_string(b) +
                 " S=" + std::to_string(segments));
    const std::uint64_t seed = rng.next();

    AlltoallOptions pipelined;
    pipelined.algorithm = IndexAlgorithm::kBruck;
    pipelined.radix = r;
    pipelined.path = ExecutionPath::kPipelined;
    pipelined.segments = segments;
    AlltoallOptions reference = pipelined;
    reference.path = ExecutionPath::kReference;

    const testutil::CollRun run_p = testutil::run_index(
        n, k, b,
        [&](mps::Communicator& comm, std::span<const std::byte> send,
            std::span<std::byte> recv) {
          return coll::alltoall(comm, send, recv, b, pipelined);
        },
        seed);
    const testutil::CollRun run_r = testutil::run_index(
        n, k, b,
        [&](mps::Communicator& comm, std::span<const std::byte> send,
            std::span<std::byte> recv) {
          return coll::alltoall(comm, send, recv, b, reference);
        },
        seed);
    ASSERT_EQ(run_p.error, "");
    ASSERT_EQ(run_r.error, "");
    const testutil::Expected want =
        testutil::expected_index(IndexAlgorithm::kBruck, n, k, b, r);
    EXPECT_EQ(run_p.rounds_used, want.closed.c1);
    sched::Schedule exec_p = run_p.trace->to_schedule();
    exec_p.normalize();
    EXPECT_TRUE(exec_p == want.schedule)
        << "pipelined trace diverges from the built schedule";
  }
}

TEST(PipelinedExecutor, ConcatRandomSweepMatchesReference) {
  SplitMix64 rng(0x5E67ED);
  const ConcatAlgorithm algorithms[] = {ConcatAlgorithm::kBruck,
                                        ConcatAlgorithm::kFolklore,
                                        ConcatAlgorithm::kRing};
  const model::ConcatLastRound strategies[] = {
      model::ConcatLastRound::kAuto, model::ConcatLastRound::kColumnGranular,
      model::ConcatLastRound::kTwoRound};
  for (int trial = 0; trial < 40; ++trial) {
    const std::int64_t n = 1 + static_cast<std::int64_t>(rng.next_below(24));
    const int k = 1 + static_cast<int>(rng.next_below(4));
    const std::int64_t b = static_cast<std::int64_t>(rng.next_below(16));
    // kFolklore/kRing cover the idle-round tree/chain baselines: most ranks
    // sit out most rounds, and the pipelined executor must still count
    // rounds exactly as the reference does.
    const ConcatAlgorithm alg = algorithms[rng.next_below(3)];
    const model::ConcatLastRound strategy = strategies[rng.next_below(3)];
    const int segments = 1 + static_cast<int>(rng.next_below(4));
    SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k) +
                 " b=" + std::to_string(b) + " alg=" + coll::to_string(alg) +
                 " strat=" + std::to_string(static_cast<int>(strategy)) +
                 " S=" + std::to_string(segments));
    const std::uint64_t seed = rng.next();

    AllgatherOptions pipelined;
    pipelined.algorithm = alg;
    pipelined.last_round = strategy;
    pipelined.path = ExecutionPath::kPipelined;
    pipelined.segments = segments;
    AllgatherOptions reference = pipelined;
    reference.path = ExecutionPath::kReference;

    const testutil::CollRun run_p = testutil::run_concat(
        n, k, b,
        [&](mps::Communicator& comm, std::span<const std::byte> send,
            std::span<std::byte> recv) {
          return coll::allgather(comm, send, recv, b, pipelined);
        },
        seed);
    const testutil::CollRun run_r = testutil::run_concat(
        n, k, b,
        [&](mps::Communicator& comm, std::span<const std::byte> send,
            std::span<std::byte> recv) {
          return coll::allgather(comm, send, recv, b, reference);
        },
        seed);
    ASSERT_EQ(run_p.error, "");
    ASSERT_EQ(run_r.error, "");
    const testutil::Expected want =
        testutil::expected_concat(alg, n, k, b, strategy);
    // A b = 0 concatenation never enters the fabric: no rounds at all.
    EXPECT_EQ(run_p.rounds_used, b > 0 ? want.closed.c1 : 0);
    sched::Schedule exec_p = run_p.trace->to_schedule();
    exec_p.normalize();
    EXPECT_TRUE(exec_p == want.schedule)
        << "pipelined trace diverges from the built schedule";
  }
}

TEST(PipelinedExecutor, SegmentedRunMatchesReferenceTraceAndClosedForm) {
  // A segmented plan execution must deliver the reference oracle's
  // payloads, put the builder's message pattern on the wire, return the
  // closed-form next round, and report the closed-form byte volume and
  // round count in its plan stats.
  const std::int64_t n = 12;
  const int k = 2;
  const std::int64_t b = 32;
  const auto run_with = [&](ExecutionPath path) {
    AlltoallOptions options;
    options.algorithm = IndexAlgorithm::kBruck;
    options.radix = 3;
    options.path = path;
    options.segments = 2;
    return testutil::run_index(
        n, k, b,
        [&](mps::Communicator& comm, std::span<const std::byte> send,
            std::span<std::byte> recv) {
          return coll::alltoall(comm, send, recv, b, options);
        });
  };
  const testutil::CollRun reference = run_with(ExecutionPath::kReference);
  const testutil::CollRun pipelined = run_with(ExecutionPath::kPipelined);
  ASSERT_EQ(reference.error, "");
  ASSERT_EQ(pipelined.error, "");
  const testutil::Expected want =
      testutil::expected_index(IndexAlgorithm::kBruck, n, k, b, 3);
  EXPECT_EQ(pipelined.rounds_used, want.closed.c1);
  sched::Schedule sp = pipelined.trace->to_schedule();
  sp.normalize();
  EXPECT_TRUE(sp == want.schedule);
  EXPECT_EQ(pipelined.trace->plan_stats().bytes_sent, want.closed.total_bytes);
  EXPECT_EQ(pipelined.trace->plan_stats().rounds, n * want.closed.c1);
}

TEST(PipelinedExecutor, LargeBlocksActuallySegmentOnTheWire) {
  // Small-b sweeps collapse to one wire segment under the executor's
  // model::kMinSegmentBytes floor; this configuration's messages (≥ 2
  // blocks of 16 KiB under radix 2) genuinely split, exercising segmented
  // landing, reassembly, and the one-logical-trace-event accounting.
  const std::int64_t n = 4;
  const int k = 2;
  const std::int64_t b = 16384;
  AlltoallOptions pipelined;
  pipelined.algorithm = IndexAlgorithm::kBruck;
  pipelined.radix = 2;
  pipelined.path = ExecutionPath::kPipelined;
  pipelined.segments = 4;
  AlltoallOptions reference = pipelined;
  reference.path = ExecutionPath::kReference;
  const testutil::CollRun run_p = testutil::run_index(
      n, k, b,
      [&](mps::Communicator& comm, std::span<const std::byte> send,
          std::span<std::byte> recv) {
        return coll::alltoall(comm, send, recv, b, pipelined);
      });
  const testutil::CollRun run_r = testutil::run_index(
      n, k, b,
      [&](mps::Communicator& comm, std::span<const std::byte> send,
          std::span<std::byte> recv) {
        return coll::alltoall(comm, send, recv, b, reference);
      });
  ASSERT_EQ(run_p.error, "");
  ASSERT_EQ(run_r.error, "");
  sched::Schedule exec_p = run_p.trace->to_schedule();
  exec_p.normalize();
  EXPECT_TRUE(exec_p ==
              testutil::expected_index(IndexAlgorithm::kBruck, n, k, b, 2)
                  .schedule);
}

// ---------------------------------------------------------------------------
// Idle-round baselines: in folklore most ranks are idle in most rounds, and
// several rounds at leaf ranks carry a send with no receive.  The pipelined
// executor must thread the declared round indices through identically.

TEST(PipelinedExecutor, FolkloreIdleRoundsKeepRoundAccounting) {
  for (const std::int64_t n : {5, 8, 13}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    AllgatherOptions options;
    options.algorithm = ConcatAlgorithm::kFolklore;
    options.path = ExecutionPath::kPipelined;
    options.segments = 2;
    const testutil::CollRun run = testutil::run_concat(
        n, 1, 8,
        [&](mps::Communicator& comm, std::span<const std::byte> send,
            std::span<std::byte> recv) {
          return coll::allgather(comm, send, recv, 8, options);
        });
    ASSERT_EQ(run.error, "");
    EXPECT_EQ(run.trace->metrics(),
              model::concat_folklore_cost(n, 8));
  }
}

// ---------------------------------------------------------------------------
// Wrapper communicators: a subclass that only overrides exchange() (the
// pre-port-engine extension point) must still work under the pipelined
// executor via the deferred fallback engine.

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
    ++exchanges_;
    inner_->exchange(round, sends, recvs);
  }
  [[nodiscard]] int exchanges() const { return exchanges_; }

 private:
  Communicator* inner_;
  int exchanges_ = 0;
};

TEST(PipelinedExecutor, DeferredFallbackDrivesExchangeOnlyWrappers) {
  const std::int64_t n = 9;
  const std::int64_t b = 16;
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  std::atomic<int> exchanges{0};
  mps::RunResult rr = mps::run_spmd(n, 2, [&](mps::Communicator& comm) {
    PassthroughComm wrapped(comm);
    std::vector<std::byte> send(static_cast<std::size_t>(n * b));
    std::vector<std::byte> recv(send.size(), std::byte{0xEE});
    coll::fill_index_send(send, n, comm.rank(), b, 99);
    AlltoallOptions options;
    options.algorithm = IndexAlgorithm::kBruck;
    options.radix = 2;
    options.path = ExecutionPath::kPipelined;
    options.segments = 3;  // wrapper fabric: engine falls back symmetrically
    coll::alltoall(wrapped, send, recv, b, options);
    errors[static_cast<std::size_t>(comm.rank())] =
        coll::check_index_recv(recv, n, comm.rank(), b, 99);
    exchanges.fetch_add(wrapped.exchanges());
  });
  for (const std::string& e : errors) ASSERT_EQ(e, "");
  EXPECT_GT(exchanges.load(), 0);  // the fallback really went through exchange
  EXPECT_EQ(rr.trace->to_schedule().validate(), "");
}

// ---------------------------------------------------------------------------
// Groups: the engine forwards through GroupComm with rank translation, so
// a pipelined collective inside a subset of the machine stays correct.

TEST(PipelinedExecutor, RunsInsideProcessGroups) {
  const std::int64_t n = 8;
  const std::int64_t b = 8;
  const std::vector<std::int64_t> members = {1, 3, 4, 6};
  std::vector<std::string> errors(members.size());
  mps::run_spmd(n, 2, [&](mps::Communicator& comm) {
    const std::int64_t me = comm.rank();
    if (std::find(members.begin(), members.end(), me) == members.end()) return;
    mps::GroupComm group(comm, members);
    const std::int64_t gn = group.size();
    std::vector<std::byte> send(static_cast<std::size_t>(gn * b));
    std::vector<std::byte> recv(send.size(), std::byte{0xEE});
    coll::fill_index_send(send, gn, group.rank(), b, 7);
    AlltoallOptions options;
    options.algorithm = IndexAlgorithm::kBruck;
    options.radix = 2;
    options.path = ExecutionPath::kPipelined;
    options.segments = 2;
    coll::alltoall(group, send, recv, b, options);
    errors[static_cast<std::size_t>(group.rank())] =
        coll::check_index_recv(recv, gn, group.rank(), b, 7);
  });
  for (const std::string& e : errors) ASSERT_EQ(e, "");
}

// ---------------------------------------------------------------------------
// Exception unwind: a rank that dies mid-collective must drop from the
// barrier and surface its exception; survivors hit the engine's receive
// timeout instead of hanging.

TEST(PipelinedExecutor, RankFailureUnwindsWithoutHanging) {
  const std::int64_t n = 6;
  const std::int64_t b = 8;
  mps::FabricOptions fabric;
  fabric.n = n;
  fabric.k = 2;
  fabric.recv_timeout = 300ms;
  EXPECT_THROW(
      mps::run_spmd(fabric,
                    [&](mps::Communicator& comm) {
                      if (comm.rank() == 2) {
                        throw ContractViolation("rank 2 gives up");
                      }
                      std::vector<std::byte> send(
                          static_cast<std::size_t>(n * b), std::byte{1});
                      std::vector<std::byte> recv(send.size());
                      AlltoallOptions options;
                      options.algorithm = IndexAlgorithm::kBruck;
                      options.radix = 2;
                      options.path = ExecutionPath::kPipelined;
                      coll::alltoall(comm, send, recv, b, options);
                      comm.barrier();  // unreached: the collective times out
                    }),
      ContractViolation);
}

// ---------------------------------------------------------------------------
// The segment tuner and its keying.

TEST(SegmentTuning, SmallMessagesStayUnsegmented) {
  const model::LinearModel m = model::ibm_sp1();
  EXPECT_EQ(model::pick_segment_count(m, 10, 64).segments, 1);
  EXPECT_EQ(model::pick_segment_count(m, 10, 4096).segments, 1);
}

TEST(SegmentTuning, LargeMessagesSplitAndRespectTheCap) {
  const model::LinearModel m = model::ibm_sp1();
  const model::SegmentChoice big = model::pick_segment_count(m, 4, 1 << 20);
  EXPECT_GT(big.segments, 1);
  EXPECT_LE(big.segments, 16);
  // The pick must actually be the modeled minimum over the candidate set.
  for (int s = 1; s <= 16; ++s) {
    EXPECT_LE(big.predicted_us,
              4 * model::pipelined_round_us(m, 1 << 20, s) + 1e-9);
  }
}

TEST(SegmentTuning, SegmentCountIsPartOfThePlanKey) {
  const coll::PlanKey one =
      coll::index_plan_key(IndexAlgorithm::kBruck, 8, 2, 2, 1);
  const coll::PlanKey four =
      coll::index_plan_key(IndexAlgorithm::kBruck, 8, 2, 2, 4);
  EXPECT_FALSE(one == four);
  coll::PlanCache cache;
  EXPECT_FALSE(cache.get_or_lower(one).cache_hit);
  EXPECT_FALSE(cache.get_or_lower(four).cache_hit);  // distinct entries
  EXPECT_TRUE(cache.get_or_lower(four).cache_hit);
  EXPECT_EQ(cache.get_or_lower(four).plan->segments(), 4);
}

// ---------------------------------------------------------------------------
// The BRUCK_RECV_TIMEOUT_MS environment override (sanitizer CI jobs run
// 10-20x slower; they raise the deadlock timeout without code changes).

TEST(RecvTimeoutEnv, OverridesTheFabricDefault) {
  // Restore the caller's value afterwards: the TSan CI job sets this for
  // the whole binary, and later tests must keep seeing it.
  const char* prior_raw = std::getenv("BRUCK_RECV_TIMEOUT_MS");
  const std::string prior = prior_raw ? prior_raw : "";

  ASSERT_EQ(setenv("BRUCK_RECV_TIMEOUT_MS", "123456", 1), 0);
  EXPECT_EQ(mps::default_recv_timeout(), 123456ms);
  EXPECT_EQ(mps::FabricOptions{}.recv_timeout, 123456ms);
  // Garbage and non-positive values fall back to the built-in default.
  ASSERT_EQ(setenv("BRUCK_RECV_TIMEOUT_MS", "not-a-number", 1), 0);
  EXPECT_EQ(mps::default_recv_timeout(), 30000ms);
  ASSERT_EQ(setenv("BRUCK_RECV_TIMEOUT_MS", "-5", 1), 0);
  EXPECT_EQ(mps::default_recv_timeout(), 30000ms);
  ASSERT_EQ(unsetenv("BRUCK_RECV_TIMEOUT_MS"), 0);
  EXPECT_EQ(mps::default_recv_timeout(), 30000ms);

  if (prior_raw != nullptr) {
    ASSERT_EQ(setenv("BRUCK_RECV_TIMEOUT_MS", prior.c_str(), 1), 0);
  }
}

}  // namespace
}  // namespace bruck
