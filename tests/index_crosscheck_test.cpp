// The three-way cross-check for the index algorithms: the plan executor's
// trace (through coll::alltoall with the algorithm forced, flat) ==
// independently built schedule == closed-form cost metrics, over parameter
// grids.  This is the repo's primary anti-bug device (DESIGN.md §4).
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "model/costs.hpp"
#include "sched/builders_index.hpp"
#include "test_util.hpp"
#include "util/math.hpp"
#include "util/radix.hpp"

namespace bruck {
namespace {

struct Case {
  std::int64_t n;
  std::int64_t radix;  // 0 for non-bruck algorithms
  int k;
  std::int64_t b;
};

std::string case_name(const Case& c) {
  return "n" + std::to_string(c.n) + "_r" + std::to_string(c.radix) + "_k" +
         std::to_string(c.k) + "_b" + std::to_string(c.b);
}

class BruckCrossCheck : public ::testing::TestWithParam<Case> {};

TEST_P(BruckCrossCheck, TraceEqualsScheduleEqualsClosedForm) {
  const auto [n, radix, k, b] = GetParam();
  const testutil::CollRun run = testutil::run_index(
      n, k, b,
      [&](mps::Communicator& comm, std::span<const std::byte> send,
          std::span<std::byte> recv) {
        return coll::alltoall(
            comm, send, recv, b,
            testutil::index_options(coll::IndexAlgorithm::kBruck, radix));
      });
  ASSERT_EQ(run.error, "");

  sched::Schedule executed = run.trace->to_schedule();
  sched::Schedule built = sched::build_index_bruck(n, radix, k, b);
  built.normalize();
  EXPECT_TRUE(executed == built)
      << "executed and built schedules differ for " << case_name(GetParam());

  const model::CostMetrics closed = model::index_bruck_cost(n, radix, k, b);
  EXPECT_EQ(built.metrics(), closed);
  EXPECT_EQ(executed.metrics(), closed);

  // The algorithm's reported round usage equals C1.
  EXPECT_EQ(run.rounds_used, closed.c1);
}

std::vector<Case> bruck_grid() {
  std::vector<Case> cases;
  std::set<std::tuple<std::int64_t, std::int64_t, int>> seen;
  for (std::int64_t n : {2, 3, 5, 7, 8, 9, 13, 16, 17, 27, 32}) {
    for (std::int64_t radix : {std::int64_t{2}, std::int64_t{3},
                               std::int64_t{5}, n}) {
      if (radix < 2 || radix > n) continue;
      for (int k : {1, 2, 4}) {
        if (!seen.insert({n, radix, k}).second) continue;
        cases.push_back(Case{n, radix, k, 3});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, BruckCrossCheck,
                         ::testing::ValuesIn(bruck_grid()),
                         [](const auto& pinfo) { return case_name(pinfo.param); });

class DirectCrossCheck : public ::testing::TestWithParam<Case> {};

TEST_P(DirectCrossCheck, TraceEqualsScheduleEqualsClosedForm) {
  const auto [n, radix, k, b] = GetParam();
  (void)radix;
  const testutil::CollRun run = testutil::run_index(
      n, k, b,
      [&](mps::Communicator& comm, std::span<const std::byte> send,
          std::span<std::byte> recv) {
        return coll::alltoall(
            comm, send, recv, b,
            testutil::index_options(coll::IndexAlgorithm::kDirect));
      });
  ASSERT_EQ(run.error, "");
  sched::Schedule executed = run.trace->to_schedule();
  sched::Schedule built = sched::build_index_direct(n, k, b);
  built.normalize();
  EXPECT_TRUE(executed == built);
  EXPECT_EQ(executed.metrics(), model::index_direct_cost(n, k, b));
  EXPECT_EQ(run.rounds_used, model::index_direct_cost(n, k, b).c1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DirectCrossCheck,
    ::testing::Values(Case{2, 0, 1, 3}, Case{5, 0, 1, 3}, Case{5, 0, 2, 3},
                      Case{9, 0, 3, 5}, Case{16, 0, 1, 1}, Case{16, 0, 5, 8},
                      Case{31, 0, 4, 2}),
    [](const auto& pinfo) { return case_name(pinfo.param); });

class PairwiseCrossCheck : public ::testing::TestWithParam<Case> {};

TEST_P(PairwiseCrossCheck, TraceEqualsScheduleEqualsClosedForm) {
  const auto [n, radix, k, b] = GetParam();
  (void)radix;
  const testutil::CollRun run = testutil::run_index(
      n, k, b,
      [&](mps::Communicator& comm, std::span<const std::byte> send,
          std::span<std::byte> recv) {
        return coll::alltoall(
            comm, send, recv, b,
            testutil::index_options(coll::IndexAlgorithm::kPairwise));
      });
  ASSERT_EQ(run.error, "");
  sched::Schedule executed = run.trace->to_schedule();
  sched::Schedule built = sched::build_index_pairwise(n, k, b);
  built.normalize();
  EXPECT_TRUE(executed == built);
  EXPECT_EQ(executed.metrics(), model::index_pairwise_cost(n, k, b));
  EXPECT_EQ(run.rounds_used, model::index_pairwise_cost(n, k, b).c1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PairwiseCrossCheck,
    ::testing::Values(Case{2, 0, 1, 3}, Case{4, 0, 1, 3}, Case{8, 0, 2, 5},
                      Case{16, 0, 3, 1}, Case{32, 0, 4, 2}),
    [](const auto& pinfo) { return case_name(pinfo.param); });

// ---------------------------------------------------------------------------
// Schedule-level claims of Section 3.2 that need no execution.

TEST(BuiltSchedules, BruckRadixTwoRoundCountIsOptimal) {
  for (std::int64_t n = 2; n <= 64; ++n) {
    const sched::Schedule s = sched::build_index_bruck(n, 2, 1, 1);
    EXPECT_EQ(static_cast<std::int64_t>(s.round_count()), ceil_log(n, 2));
    EXPECT_EQ(s.validate(), "");
  }
}

TEST(BuiltSchedules, MessageSizeNeverExceedsMaxCensusBlocks) {
  // Exact per-message cap is b·radix_max_census(n, r); the paper's looser
  // ⌈n/r⌉ holds whenever n is a power of r (see util/radix.hpp).
  for (std::int64_t n : {5, 12, 16, 27, 64}) {
    for (std::int64_t r : {std::int64_t{2}, std::int64_t{3}, std::int64_t{8}, n}) {
      if (r > n) continue;
      const std::int64_t b = 4;
      const sched::Schedule s = sched::build_index_bruck(n, r, 1, b);
      for (const auto& round : s.rounds()) {
        for (const auto& t : round.transfers) {
          EXPECT_LE(t.bytes, b * radix_max_census(n, r))
              << "n=" << n << " r=" << r;
        }
      }
      if (ipow(r, ceil_log(n, r)) == n) {
        EXPECT_LE(radix_max_census(n, r), ceil_div(n, r));
      }
    }
  }
}

TEST(BuiltSchedules, EveryRankSendsAndReceivesSameTotals) {
  // The index pattern is perfectly symmetric: every rank moves the same
  // number of bytes in and out.
  const sched::Schedule s = sched::build_index_bruck(13, 3, 2, 7);
  std::vector<std::int64_t> sent(13, 0), recv(13, 0);
  for (const auto& round : s.rounds()) {
    for (const auto& t : round.transfers) {
      sent[static_cast<std::size_t>(t.src)] += t.bytes;
      recv[static_cast<std::size_t>(t.dst)] += t.bytes;
    }
  }
  for (std::size_t i = 1; i < 13; ++i) {
    EXPECT_EQ(sent[i], sent[0]);
    EXPECT_EQ(recv[i], recv[0]);
  }
  EXPECT_EQ(sent[0], recv[0]);
}

TEST(BuiltSchedules, EmptyForDegenerateInputs) {
  EXPECT_EQ(sched::build_index_bruck(1, 2, 1, 4).round_count(), 0u);
  EXPECT_EQ(sched::build_index_bruck(5, 2, 1, 0).round_count(), 0u);
  EXPECT_EQ(sched::build_index_direct(1, 1, 4).round_count(), 0u);
  EXPECT_EQ(sched::build_index_pairwise(1, 1, 4).round_count(), 0u);
}

}  // namespace
}  // namespace bruck
