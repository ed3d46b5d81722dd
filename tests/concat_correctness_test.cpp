// End-to-end content correctness of the concatenation (allgather)
// algorithms, across n × ports × block-size × last-round-strategy grids.
// Each algorithm runs through coll::allgather with the algorithm forced,
// flat.
#include <gtest/gtest.h>

#include "model/costs.hpp"
#include "sched/builders_concat.hpp"
#include "test_util.hpp"
#include "util/assert.hpp"

namespace bruck {
namespace {

using model::ConcatLastRound;
using testutil::concat_options;
using testutil::run_concat;

struct Case {
  std::int64_t n;
  int k;
  std::int64_t b;
  ConcatLastRound strategy;
};

std::string strategy_name(ConcatLastRound s) {
  switch (s) {
    case ConcatLastRound::kByteSplit: return "bytesplit";
    case ConcatLastRound::kColumnGranular: return "colgran";
    case ConcatLastRound::kTwoRound: return "tworound";
    case ConcatLastRound::kAuto: return "auto";
  }
  return "?";
}

std::string case_name(const Case& c) {
  return "n" + std::to_string(c.n) + "_k" + std::to_string(c.k) + "_b" +
         std::to_string(c.b) + "_" + strategy_name(c.strategy);
}

class ConcatBruckSweep : public ::testing::TestWithParam<Case> {};

TEST_P(ConcatBruckSweep, EveryRankEndsWithTheFullConcatenation) {
  const auto [n, k, b, strategy] = GetParam();
  const testutil::CollRun run = run_concat(
      n, k, b,
      [&, strat = strategy](mps::Communicator& comm,
                            std::span<const std::byte> send,
                            std::span<std::byte> recv) {
        return coll::allgather(
            comm, send, recv, b,
            testutil::concat_options(coll::ConcatAlgorithm::kBruck, strat));
      });
  EXPECT_EQ(run.error, "") << case_name(GetParam());
  // The plan executor's trace is the paper's schedule at its closed form.
  sched::Schedule built = sched::build_concat_bruck(n, k, b, strategy);
  built.normalize();
  EXPECT_TRUE(run.trace->to_schedule() == built) << case_name(GetParam());
  if (b == 0) return;  // nothing enters the fabric; the closed form is moot
  const model::CostMetrics closed = model::concat_bruck_cost(n, k, b, strategy);
  EXPECT_EQ(built.metrics(), closed) << case_name(GetParam());
  EXPECT_EQ(run.rounds_used, closed.c1) << case_name(GetParam());
}

std::vector<Case> concat_cases() {
  std::vector<Case> cases;
  for (std::int64_t n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 16, 17,
                         20, 25, 26, 27, 28, 31, 32, 33}) {
    for (int k : {1, 2, 3, 4}) {
      for (ConcatLastRound strategy :
           {ConcatLastRound::kAuto, ConcatLastRound::kColumnGranular,
            ConcatLastRound::kTwoRound}) {
        cases.push_back(Case{n, k, 3, strategy});
      }
      // Explicit byte-split wherever it is feasible.
      if (model::concat_byte_split_feasible(n, k, 3)) {
        cases.push_back(Case{n, k, 3, ConcatLastRound::kByteSplit});
      }
    }
  }
  // Block-size edges, including b larger than anything the partition splits.
  for (std::int64_t b : {0, 1, 2, 5, 17, 64}) {
    cases.push_back(Case{10, 2, b, ConcatLastRound::kAuto});
    cases.push_back(Case{7, 3, b, ConcatLastRound::kTwoRound});
    cases.push_back(Case{5, 4, b, ConcatLastRound::kColumnGranular});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConcatBruckSweep,
                         ::testing::ValuesIn(concat_cases()),
                         [](const auto& pinfo) { return case_name(pinfo.param); });

// The paper's non-optimal range, executed: every strategy that claims
// feasibility must still deliver correct contents there.
TEST(ConcatBruck, NonoptimalRangeContentsCorrect) {
  int cases = 0;
  for (std::int64_t n = 2; n <= 40; ++n) {
    for (int k = 3; k <= 4; ++k) {
      const std::int64_t b = 3;
      if (!model::concat_paper_nonoptimal_range(n, k, b)) continue;
      ++cases;
      for (ConcatLastRound strategy :
           {ConcatLastRound::kAuto, ConcatLastRound::kColumnGranular,
            ConcatLastRound::kTwoRound}) {
        const testutil::CollRun run = run_concat(
            n, k, b,
            [&](mps::Communicator& comm, std::span<const std::byte> send,
                std::span<std::byte> recv) {
              return coll::allgather(
                  comm, send, recv, b,
                  testutil::concat_options(coll::ConcatAlgorithm::kBruck,
                                           strategy));
            });
        EXPECT_EQ(run.error, "")
            << "n=" << n << " k=" << k << " " << strategy_name(strategy);
      }
    }
  }
  EXPECT_GT(cases, 3);
}

TEST(ConcatBruck, ByteSplitStrategyThrowsWhereInfeasible) {
  // n = 3, k = 3, b = 3 is infeasible for the byte-split partition.
  ASSERT_FALSE(model::concat_byte_split_feasible(3, 3, 3));
  for (const coll::ExecutionPath path :
       {coll::ExecutionPath::kPipelined, coll::ExecutionPath::kReference}) {
    coll::AllgatherOptions options = concat_options(
        coll::ConcatAlgorithm::kBruck, ConcatLastRound::kByteSplit);
    options.path = path;
    EXPECT_THROW(
        run_concat(3, 3, 3,
                   [&](mps::Communicator& comm,
                       std::span<const std::byte> send,
                       std::span<std::byte> recv) {
                     return coll::allgather(comm, send, recv, 3, options);
                   }),
        ContractViolation)
        << coll::to_string(path);
  }
}

struct SimpleCase {
  std::int64_t n;
  std::int64_t b;
};

class ConcatFolkloreSweep : public ::testing::TestWithParam<SimpleCase> {};

TEST_P(ConcatFolkloreSweep, EveryRankEndsWithTheFullConcatenation) {
  const auto [n, b] = GetParam();
  const testutil::CollRun run = run_concat(
      n, 1, b,
      [&](mps::Communicator& comm, std::span<const std::byte> send,
          std::span<std::byte> recv) {
        return coll::allgather(
            comm, send, recv, b,
            testutil::concat_options(coll::ConcatAlgorithm::kFolklore));
      });
  EXPECT_EQ(run.error, "") << "n=" << n << " b=" << b;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConcatFolkloreSweep,
    ::testing::Values(SimpleCase{1, 4}, SimpleCase{2, 4}, SimpleCase{3, 4},
                      SimpleCase{5, 4}, SimpleCase{8, 4}, SimpleCase{11, 4},
                      SimpleCase{16, 4}, SimpleCase{21, 4}, SimpleCase{32, 4},
                      SimpleCase{9, 0}, SimpleCase{9, 1}, SimpleCase{9, 33}),
    [](const auto& pinfo) {
      return "n" + std::to_string(pinfo.param.n) + "_b" +
             std::to_string(pinfo.param.b);
    });

class ConcatRingSweep : public ::testing::TestWithParam<SimpleCase> {};

TEST_P(ConcatRingSweep, EveryRankEndsWithTheFullConcatenation) {
  const auto [n, b] = GetParam();
  const testutil::CollRun run = run_concat(
      n, 1, b,
      [&](mps::Communicator& comm, std::span<const std::byte> send,
          std::span<std::byte> recv) {
        return coll::allgather(
            comm, send, recv, b,
            testutil::concat_options(coll::ConcatAlgorithm::kRing));
      });
  EXPECT_EQ(run.error, "") << "n=" << n << " b=" << b;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConcatRingSweep,
    ::testing::Values(SimpleCase{1, 4}, SimpleCase{2, 4}, SimpleCase{3, 4},
                      SimpleCase{7, 4}, SimpleCase{16, 4}, SimpleCase{25, 4},
                      SimpleCase{6, 0}, SimpleCase{6, 1}, SimpleCase{6, 19}),
    [](const auto& pinfo) {
      return "n" + std::to_string(pinfo.param.n) + "_b" +
             std::to_string(pinfo.param.b);
    });

TEST(ConcatProperty, AllAlgorithmsProduceIdenticalOutput) {
  for (std::int64_t n : {5, 9, 16}) {
    const std::int64_t b = 7;
    std::vector<int> mismatches(static_cast<std::size_t>(n), 0);
    mps::run_spmd(n, 1, [&](mps::Communicator& comm) {
      const std::int64_t rank = comm.rank();
      std::vector<std::byte> send(static_cast<std::size_t>(b));
      coll::fill_concat_send(send, rank, b, 31);
      std::vector<std::byte> a(static_cast<std::size_t>(n * b));
      std::vector<std::byte> c(a.size());
      std::vector<std::byte> d(a.size());
      int next = coll::allgather(
          comm, send, a, b, concat_options(coll::ConcatAlgorithm::kBruck));
      next = coll::allgather(
          comm, send, c, b,
          concat_options(coll::ConcatAlgorithm::kFolklore,
                         ConcatLastRound::kAuto, next));
      coll::allgather(comm, send, d, b,
                      concat_options(coll::ConcatAlgorithm::kRing,
                                     ConcatLastRound::kAuto, next));
      if (a != c || a != d) mismatches[static_cast<std::size_t>(rank)] = 1;
    });
    for (int m : mismatches) EXPECT_EQ(m, 0) << "n=" << n;
  }
}

}  // namespace
}  // namespace bruck
