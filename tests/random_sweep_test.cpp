// Randomized property sweeps: beyond the hand-picked grids, draw random
// (n, r, k, b) configurations from a fixed-seed generator and run the full
// three-way cross-check plus content verification on each.  Catches
// interactions the structured grids miss (odd n with odd radix and odd
// ports, blocks that are not multiples of anything, …).
#include <gtest/gtest.h>

#include "model/costs.hpp"
#include "sched/builders_concat.hpp"
#include "sched/builders_index.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace bruck {
namespace {

TEST(RandomSweep, IndexBruckConfigurations) {
  SplitMix64 rng(0xB10CC0DE);
  for (int trial = 0; trial < 60; ++trial) {
    const std::int64_t n = 2 + static_cast<std::int64_t>(rng.next_below(30));
    const std::int64_t r = 2 + static_cast<std::int64_t>(rng.next_below(
                                   static_cast<std::uint64_t>(n - 1)));
    const int k = 1 + static_cast<int>(rng.next_below(4));
    const std::int64_t b = 1 + static_cast<std::int64_t>(rng.next_below(24));
    SCOPED_TRACE("n=" + std::to_string(n) + " r=" + std::to_string(r) +
                 " k=" + std::to_string(k) + " b=" + std::to_string(b));

    const testutil::CollRun run = testutil::run_index(
        n, k, b,
        [&](mps::Communicator& comm, std::span<const std::byte> send,
            std::span<std::byte> recv) {
          return coll::alltoall(
              comm, send, recv, b,
              testutil::index_options(coll::IndexAlgorithm::kBruck, r));
        },
        /*seed=*/rng.next());
    ASSERT_EQ(run.error, "");
    sched::Schedule executed = run.trace->to_schedule();
    sched::Schedule built = sched::build_index_bruck(n, r, k, b);
    built.normalize();
    ASSERT_TRUE(executed == built);
    ASSERT_EQ(executed.metrics(), model::index_bruck_cost(n, r, k, b));
  }
}

TEST(RandomSweep, ConcatBruckConfigurations) {
  SplitMix64 rng(0xCA7A106 + 1);
  const model::ConcatLastRound strategies[] = {
      model::ConcatLastRound::kAuto, model::ConcatLastRound::kColumnGranular,
      model::ConcatLastRound::kTwoRound};
  for (int trial = 0; trial < 60; ++trial) {
    const std::int64_t n = 2 + static_cast<std::int64_t>(rng.next_below(30));
    const int k = 1 + static_cast<int>(rng.next_below(5));
    const std::int64_t b = 1 + static_cast<std::int64_t>(rng.next_below(12));
    const model::ConcatLastRound strategy =
        strategies[rng.next_below(3)];
    SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k) +
                 " b=" + std::to_string(b) + " strat=" +
                 std::to_string(static_cast<int>(strategy)));

    const testutil::CollRun run = testutil::run_concat(
        n, k, b,
        [&](mps::Communicator& comm, std::span<const std::byte> send,
            std::span<std::byte> recv) {
          return coll::allgather(
              comm, send, recv, b,
              testutil::concat_options(coll::ConcatAlgorithm::kBruck,
                                       strategy));
        },
        /*seed=*/rng.next());
    ASSERT_EQ(run.error, "");
    sched::Schedule executed = run.trace->to_schedule();
    sched::Schedule built = sched::build_concat_bruck(n, k, b, strategy);
    built.normalize();
    ASSERT_TRUE(executed == built);
    ASSERT_EQ(executed.metrics(), model::concat_bruck_cost(n, k, b, strategy));
  }
}

TEST(RandomSweep, ComposedCollectivesShareOneFabric) {
  // Random chains: an index followed by a concat followed by an index on
  // the same communicator, rounds threaded through — everything must stay
  // correct and the merged trace valid.
  SplitMix64 rng(77);
  for (int trial = 0; trial < 12; ++trial) {
    const std::int64_t n = 3 + static_cast<std::int64_t>(rng.next_below(10));
    const std::int64_t b = 1 + static_cast<std::int64_t>(rng.next_below(9));
    const std::int64_t r = 2 + static_cast<std::int64_t>(rng.next_below(
                                   static_cast<std::uint64_t>(n - 1)));
    const std::uint64_t seed = rng.next();
    std::vector<std::string> errors(static_cast<std::size_t>(n));
    mps::RunResult rr = mps::run_spmd(n, 2, [&](mps::Communicator& comm) {
      const std::int64_t rank = comm.rank();
      auto& err = errors[static_cast<std::size_t>(rank)];
      std::vector<std::byte> isend(static_cast<std::size_t>(n * b));
      std::vector<std::byte> irecv(isend.size());
      coll::fill_index_send(isend, n, rank, b, seed);
      int round = coll::alltoall(
          comm, isend, irecv, b,
          testutil::index_options(coll::IndexAlgorithm::kBruck, r));
      err = coll::check_index_recv(irecv, n, rank, b, seed);
      if (!err.empty()) return;

      std::vector<std::byte> csend(static_cast<std::size_t>(b));
      std::vector<std::byte> crecv(static_cast<std::size_t>(n * b));
      coll::fill_concat_send(csend, rank, b, seed + 1);
      round = coll::allgather(
          comm, csend, crecv, b,
          testutil::concat_options(coll::ConcatAlgorithm::kBruck,
                                   model::ConcatLastRound::kAuto, round));
      err = coll::check_concat_recv(crecv, n, b, seed + 1);
      if (!err.empty()) return;

      coll::fill_index_send(isend, n, rank, b, seed + 2);
      coll::alltoall(
          comm, isend, irecv, b,
          testutil::index_options(coll::IndexAlgorithm::kBruck, 2, round));
      err = coll::check_index_recv(irecv, n, rank, b, seed + 2);
    });
    for (const std::string& e : errors) {
      ASSERT_EQ(e, "") << "trial " << trial << " n=" << n;
    }
    ASSERT_EQ(rr.trace->to_schedule().validate(), "");
  }
}

}  // namespace
}  // namespace bruck
