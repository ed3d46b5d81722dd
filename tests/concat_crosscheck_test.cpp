// Three-way cross-check for the concatenation algorithms (the plan
// executor's trace through coll::allgather, algorithm forced, flat), plus
// execution-level verification of the Theorem 4.3 optimality claims.
#include <gtest/gtest.h>

#include "model/costs.hpp"
#include "model/lower_bounds.hpp"
#include <algorithm>

#include "sched/builders_concat.hpp"
#include "test_util.hpp"
#include "util/math.hpp"

namespace bruck {
namespace {

using model::ConcatLastRound;

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

class ConcatCrossCheck : public ::testing::TestWithParam<Case> {};

TEST_P(ConcatCrossCheck, TraceEqualsScheduleEqualsClosedForm) {
  const auto [n, k, b, strategy] = GetParam();
  const testutil::CollRun run = testutil::run_concat(
      n, k, b,
      [&, strat = strategy](mps::Communicator& comm,
                            std::span<const std::byte> send,
                            std::span<std::byte> recv) {
        return coll::allgather(
            comm, send, recv, b,
            testutil::concat_options(coll::ConcatAlgorithm::kBruck, strat));
      });
  ASSERT_EQ(run.error, "") << case_name(GetParam());

  sched::Schedule executed = run.trace->to_schedule();
  sched::Schedule built = sched::build_concat_bruck(n, k, b, strategy);
  built.normalize();
  EXPECT_TRUE(executed == built)
      << "executed and built schedules differ for " << case_name(GetParam());

  const model::CostMetrics closed = model::concat_bruck_cost(n, k, b, strategy);
  EXPECT_EQ(built.metrics(), closed) << case_name(GetParam());
  EXPECT_EQ(executed.metrics(), closed) << case_name(GetParam());
  EXPECT_EQ(run.rounds_used, closed.c1);
}

std::vector<Case> concat_grid() {
  std::vector<Case> cases;
  for (std::int64_t n : {2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 25, 27, 28, 32}) {
    for (int k : {1, 2, 3, 4}) {
      for (std::int64_t b : {1, 3, 4}) {
        cases.push_back(Case{n, k, b, ConcatLastRound::kAuto});
        cases.push_back(Case{n, k, b, ConcatLastRound::kColumnGranular});
        cases.push_back(Case{n, k, b, ConcatLastRound::kTwoRound});
        if (model::concat_byte_split_feasible(n, k, b)) {
          cases.push_back(Case{n, k, b, ConcatLastRound::kByteSplit});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, ConcatCrossCheck,
                         ::testing::ValuesIn(concat_grid()),
                         [](const auto& pinfo) { return case_name(pinfo.param); });

class FolkloreCrossCheck
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {
};

TEST_P(FolkloreCrossCheck, TraceEqualsScheduleEqualsClosedForm) {
  const auto [n, b] = GetParam();
  const testutil::CollRun run = testutil::run_concat(
      n, 1, b,
      [&](mps::Communicator& comm, std::span<const std::byte> send,
          std::span<std::byte> recv) {
        return coll::allgather(
            comm, send, recv, b,
            testutil::concat_options(coll::ConcatAlgorithm::kFolklore));
      });
  ASSERT_EQ(run.error, "");
  sched::Schedule executed = run.trace->to_schedule();
  sched::Schedule built = sched::build_concat_folklore(n, b);
  built.normalize();
  EXPECT_TRUE(executed == built) << "n=" << n << " b=" << b;
  EXPECT_EQ(executed.metrics(), model::concat_folklore_cost(n, b));
}

INSTANTIATE_TEST_SUITE_P(Grid, FolkloreCrossCheck,
                         ::testing::Combine(::testing::Values(2, 3, 5, 8, 11,
                                                              16, 21, 32),
                                            ::testing::Values(1, 6)),
                         [](const auto& pinfo) {
                           return "n" + std::to_string(std::get<0>(pinfo.param)) +
                                  "_b" + std::to_string(std::get<1>(pinfo.param));
                         });

class RingCrossCheck
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {
};

TEST_P(RingCrossCheck, TraceEqualsScheduleEqualsClosedForm) {
  const auto [n, b] = GetParam();
  const testutil::CollRun run = testutil::run_concat(
      n, 1, b,
      [&](mps::Communicator& comm, std::span<const std::byte> send,
          std::span<std::byte> recv) {
        return coll::allgather(
            comm, send, recv, b,
            testutil::concat_options(coll::ConcatAlgorithm::kRing));
      });
  ASSERT_EQ(run.error, "");
  sched::Schedule executed = run.trace->to_schedule();
  sched::Schedule built = sched::build_concat_ring(n, b);
  built.normalize();
  EXPECT_TRUE(executed == built);
  EXPECT_EQ(executed.metrics(), model::concat_ring_cost(n, b));
}

INSTANTIATE_TEST_SUITE_P(Grid, RingCrossCheck,
                         ::testing::Combine(::testing::Values(2, 3, 7, 12, 20),
                                            ::testing::Values(1, 9)),
                         [](const auto& pinfo) {
                           return "n" + std::to_string(std::get<0>(pinfo.param)) +
                                  "_b" + std::to_string(std::get<1>(pinfo.param));
                         });

// ---------------------------------------------------------------------------
// Theorem 4.3 at execution level: measured (not just predicted) C1 and C2
// meet the lower bounds wherever the paper claims optimality.

TEST(ConcatExecutedOptimality, MeetsBothLowerBoundsOutsideTheRange) {
  for (std::int64_t n = 2; n <= 30; ++n) {
    for (int k = 1; k <= 4; ++k) {
      for (std::int64_t b : {1, 2, 3}) {
        if (model::concat_paper_nonoptimal_range(n, k, b)) continue;
        const testutil::CollRun run = testutil::run_concat(
            n, k, b,
            [&](mps::Communicator& comm, std::span<const std::byte> send,
                std::span<std::byte> recv) {
              return coll::allgather(
                  comm, send, recv, b,
                  testutil::concat_options(coll::ConcatAlgorithm::kBruck));
            });
        ASSERT_EQ(run.error, "");
        const model::CostMetrics m = run.trace->metrics();
        EXPECT_EQ(m.c1, model::concat_c1_lower_bound(n, k))
            << "n=" << n << " k=" << k << " b=" << b;
        EXPECT_EQ(m.c2, model::concat_c2_lower_bound(n, k, b))
            << "n=" << n << " k=" << k << " b=" << b;
      }
    }
  }
}

TEST(ConcatExecutedOptimality, Theorem41GrowthPhaseAccounting) {
  // Theorem 4.1: after the first d−1 rounds every node has received exactly
  // the n1 − 1 blocks preceding it, and the growth phase's C2 is the
  // optimal b(n1−1)/k.  Check both on the built schedule's round structure.
  for (std::int64_t n : {5, 9, 13, 17, 26, 27, 40, 64}) {
    for (int k : {1, 2, 3}) {
      const std::int64_t b = 4;
      const sched::Schedule s = sched::build_concat_bruck(
          n, k, b, ConcatLastRound::kColumnGranular);
      const int d = ceil_log(n, k + 1);
      const std::int64_t n1 = ipow(k + 1, d - 1);
      ASSERT_GE(static_cast<int>(s.round_count()), d - 1);
      std::vector<std::int64_t> received(static_cast<std::size_t>(n), 0);
      std::int64_t growth_c2 = 0;
      for (int i = 0; i + 1 < d; ++i) {
        std::int64_t round_max = 0;
        for (const sched::Transfer& t :
             s.rounds()[static_cast<std::size_t>(i)].transfers) {
          received[static_cast<std::size_t>(t.dst)] += t.bytes;
          round_max = std::max(round_max, t.bytes);
        }
        growth_c2 += round_max;
      }
      for (std::int64_t u = 0; u < n; ++u) {
        EXPECT_EQ(received[static_cast<std::size_t>(u)], b * (n1 - 1))
            << "node " << u << " n=" << n << " k=" << k;
      }
      EXPECT_EQ(growth_c2, b * (n1 - 1) / k)
          << "Theorem 4.1's optimal growth-phase volume; n=" << n
          << " k=" << k;
    }
  }
}

TEST(ConcatExecutedOptimality, BaselinesAreDominated) {
  // At k = 1, Bruck matches ring's C2 with exponentially fewer rounds and
  // matches folklore's round order with strictly less volume.
  for (std::int64_t n : {8, 16, 27, 32}) {
    const std::int64_t b = 4;
    const model::CostMetrics bruck = model::concat_bruck_cost(
        n, 1, b, ConcatLastRound::kAuto);
    const model::CostMetrics ring = model::concat_ring_cost(n, b);
    const model::CostMetrics folk = model::concat_folklore_cost(n, b);
    EXPECT_EQ(bruck.c2, ring.c2);
    EXPECT_LT(bruck.c1, ring.c1);
    EXPECT_LT(bruck.c1, folk.c1);
    EXPECT_LT(bruck.c2, folk.c2);
  }
}

}  // namespace
}  // namespace bruck
