// The CCL-style dispatch layer: planning, auto-tuning and execution.
#include "coll/api.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "model/costs.hpp"
#include "sched/builders_index.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace bruck::coll {
namespace {

TEST(PlanAlltoall, AutoPicksTheModelOptimum) {
  AlltoallOptions options;
  options.machine = model::ibm_sp1();
  // Tiny blocks on SP-1: start-up dominates → radix 2.
  const AlltoallPlan small = plan_alltoall(64, 1, 1, options);
  EXPECT_EQ(small.algorithm, IndexAlgorithm::kBruck);
  EXPECT_EQ(small.radix, 2);
  // Huge blocks: transfer dominates → the volume-optimal shape
  // (C2 = b(n−1), C1 = n−1).  For n = 64 both r = 63 and r = 64 realize it;
  // the tie-break picks the smaller radix.
  const AlltoallPlan large = plan_alltoall(64, 1, 1 << 16, options);
  EXPECT_GE(large.radix, 63);
  EXPECT_EQ(large.predicted.c1, 63);
  EXPECT_EQ(large.predicted.c2, std::int64_t{63} * (1 << 16));
  EXPECT_LT(large.predicted_us,
            options.machine.predict_us(model::index_bruck_cost(64, 2, 1, 1 << 16)));
}

TEST(PlanAlltoall, ExplicitRadixIsHonored) {
  AlltoallOptions options;
  options.algorithm = IndexAlgorithm::kBruck;
  options.radix = 8;
  const AlltoallPlan plan = plan_alltoall(64, 1, 256, options);
  EXPECT_EQ(plan.radix, 8);
  EXPECT_EQ(plan.predicted, model::index_bruck_cost(64, 8, 1, 256));
}

TEST(PlanAlltoall, DirectAndPairwisePlans) {
  AlltoallOptions options;
  options.algorithm = IndexAlgorithm::kDirect;
  EXPECT_EQ(plan_alltoall(10, 2, 4, options).predicted,
            model::index_direct_cost(10, 2, 4));
  options.algorithm = IndexAlgorithm::kPairwise;
  EXPECT_EQ(plan_alltoall(16, 2, 4, options).predicted,
            model::index_pairwise_cost(16, 2, 4));
}

TEST(ToString, CoversAllEnumerators) {
  EXPECT_EQ(to_string(IndexAlgorithm::kBruck), "bruck");
  EXPECT_EQ(to_string(IndexAlgorithm::kDirect), "direct");
  EXPECT_EQ(to_string(IndexAlgorithm::kPairwise), "pairwise");
  EXPECT_EQ(to_string(IndexAlgorithm::kAuto), "auto");
  EXPECT_EQ(to_string(ConcatAlgorithm::kBruck), "bruck");
  EXPECT_EQ(to_string(ConcatAlgorithm::kFolklore), "folklore");
  EXPECT_EQ(to_string(ConcatAlgorithm::kRing), "ring");
  EXPECT_EQ(to_string(ConcatAlgorithm::kAuto), "auto");
}

TEST(Alltoall, AutoDeliversCorrectContents) {
  for (std::int64_t n : {1, 4, 7, 16}) {
    for (std::int64_t b : {1, 8, 300}) {
      const testutil::CollRun run = testutil::run_index(
          n, 1, b,
          [&](mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv) {
            return alltoall(comm, send, recv, b);
          });
      EXPECT_EQ(run.error, "") << "n=" << n << " b=" << b;
    }
  }
}

TEST(Alltoall, EveryAlgorithmChoiceWorksThroughTheFacade) {
  for (IndexAlgorithm alg : {IndexAlgorithm::kBruck, IndexAlgorithm::kDirect,
                             IndexAlgorithm::kPairwise}) {
    AlltoallOptions options;
    options.algorithm = alg;
    const testutil::CollRun run = testutil::run_index(
        8, 2, 6,
        [&](mps::Communicator& comm, std::span<const std::byte> send,
            std::span<std::byte> recv) {
          return alltoall(comm, send, recv, 6, options);
        });
    EXPECT_EQ(run.error, "") << to_string(alg);
  }
}

TEST(Allgather, AutoDeliversCorrectContents) {
  for (std::int64_t n : {1, 5, 9, 17}) {
    for (int k : {1, 3}) {
      const testutil::CollRun run = testutil::run_concat(
          n, k, 12,
          [&](mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv) {
            return allgather(comm, send, recv, 12);
          });
      EXPECT_EQ(run.error, "") << "n=" << n << " k=" << k;
    }
  }
}

TEST(Allgather, EveryAlgorithmChoiceWorksThroughTheFacade) {
  for (ConcatAlgorithm alg : {ConcatAlgorithm::kBruck, ConcatAlgorithm::kFolklore,
                              ConcatAlgorithm::kRing}) {
    AllgatherOptions options;
    options.algorithm = alg;
    const testutil::CollRun run = testutil::run_concat(
        9, 1, 5,
        [&](mps::Communicator& comm, std::span<const std::byte> send,
            std::span<std::byte> recv) {
          return allgather(comm, send, recv, 5, options);
        });
    EXPECT_EQ(run.error, "") << to_string(alg);
  }
}

TEST(Allgather, StrategyOverrideIsForwarded) {
  AllgatherOptions options;
  options.last_round = model::ConcatLastRound::kTwoRound;
  const testutil::CollRun run = testutil::run_concat(
      13, 3, 4,
      [&](mps::Communicator& comm, std::span<const std::byte> send,
          std::span<std::byte> recv) {
        return allgather(comm, send, recv, 4, options);
      });
  EXPECT_EQ(run.error, "");
  EXPECT_EQ(run.trace->metrics().c1,
            model::concat_bruck_cost(13, 3, 4,
                                     model::ConcatLastRound::kTwoRound)
                .c1);
}

// ---------------------------------------------------------------------------
// The kReference contract: whatever algorithm the options name, the plain
// alltoall and allgather run the per-pair oracle.  Its payloads equal the
// plan executor's bitwise, and its wire pattern is the direct exchange.

/// Every rank's receive buffer and the normalized trace of one collective
/// call on an n-rank, k-port fabric (random send payloads per rank).
struct Outcome {
  std::vector<std::vector<std::byte>> recv;
  sched::Schedule trace;
  std::vector<int> next_round;
};

Outcome run_collective(
    std::int64_t n, int k, std::int64_t send_bytes, std::int64_t recv_bytes,
    const std::function<int(mps::Communicator&, std::span<const std::byte>,
                            std::span<std::byte>)>& call) {
  std::vector<std::vector<std::byte>> recv(static_cast<std::size_t>(n));
  std::vector<int> next(static_cast<std::size_t>(n));
  const mps::RunResult rr = mps::run_spmd(n, k, [&](mps::Communicator& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    std::vector<std::byte> send(static_cast<std::size_t>(send_bytes));
    fill_random_bytes(send, 500 + rank);
    recv[rank].assign(static_cast<std::size_t>(recv_bytes), std::byte{0xEE});
    next[rank] = call(comm, send, recv[rank]);
  });
  sched::Schedule trace = rr.trace->to_schedule();
  trace.normalize();
  return Outcome{std::move(recv), std::move(trace), std::move(next)};
}

TEST(ReferencePath, RunsThePerPairOracleWhateverTheAlgorithm) {
  const std::int64_t b = 7;
  for (const std::int64_t n : {5, 8, 13}) {
    for (const int k : {1, 3}) {
      sched::Schedule direct = sched::build_index_direct(n, k, b);
      direct.normalize();
      const int direct_c1 = model::index_direct_cost(n, k, b).c1;
      const auto check = [&](const Outcome& ref, const Outcome& pip) {
        EXPECT_EQ(ref.recv, pip.recv) << "payloads differ";
        EXPECT_TRUE(ref.trace == direct) << "not the direct exchange";
        for (const int r : ref.next_round) EXPECT_EQ(r, direct_c1);
      };

      for (const IndexAlgorithm alg :
           {IndexAlgorithm::kBruck, IndexAlgorithm::kAuto,
            IndexAlgorithm::kDirect, IndexAlgorithm::kPairwise}) {
        if (alg == IndexAlgorithm::kPairwise && n != 8) continue;
        for (const std::int64_t radix : {2, 3}) {
          SCOPED_TRACE("alltoall n=" + std::to_string(n) +
                       " k=" + std::to_string(k) + " " + to_string(alg) +
                       " r=" + std::to_string(radix));
          AlltoallOptions options = testutil::index_options(alg, radix);
          const auto run = [&](ExecutionPath path) {
            options.path = path;
            return run_collective(
                n, k, n * b, n * b,
                [&](mps::Communicator& comm, std::span<const std::byte> send,
                    std::span<std::byte> recv) {
                  return alltoall(comm, send, recv, b, options);
                });
          };
          check(run(ExecutionPath::kReference),
                run(ExecutionPath::kPipelined));
        }
      }

      for (const ConcatAlgorithm alg :
           {ConcatAlgorithm::kBruck, ConcatAlgorithm::kAuto,
            ConcatAlgorithm::kFolklore, ConcatAlgorithm::kRing}) {
        for (const model::ConcatLastRound last :
             {model::ConcatLastRound::kAuto,
              model::ConcatLastRound::kColumnGranular,
              model::ConcatLastRound::kTwoRound,
              model::ConcatLastRound::kByteSplit}) {
          if (last == model::ConcatLastRound::kByteSplit &&
              !model::concat_byte_split_feasible(n, k, b)) {
            continue;
          }
          SCOPED_TRACE("allgather n=" + std::to_string(n) +
                       " k=" + std::to_string(k) + " " + to_string(alg) +
                       " last=" + std::to_string(static_cast<int>(last)));
          AllgatherOptions options = testutil::concat_options(alg, last);
          const auto run = [&](ExecutionPath path) {
            options.path = path;
            return run_collective(
                n, k, b, n * b,
                [&](mps::Communicator& comm, std::span<const std::byte> send,
                    std::span<std::byte> recv) {
                  return allgather(comm, send, recv, b, options);
                });
          };
          check(run(ExecutionPath::kReference),
                run(ExecutionPath::kPipelined));
        }
      }
    }
  }
}

}  // namespace
}  // namespace bruck::coll
