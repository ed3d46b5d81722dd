// The compiled-schedule execution engine: Plan lowering, the PlanCache, and
// the facade's compiled hot path.
//
// The correctness story is three-way: (1) a plan-executed collective must
// deliver exactly the payloads the reference (inline) implementation does,
// (2) its executed trace must equal the independently *built* schedule from
// sched/, and (3) the PlanCache must prove that repeated same-geometry calls
// do zero re-planning work (hits only, entry count flat).
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "coll/api.hpp"
#include "coll/plan.hpp"
#include "coll/plan_cache.hpp"
#include "model/costs.hpp"
#include "model/tuner.hpp"
#include "sched/builders_concat.hpp"
#include "sched/builders_index.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace bruck {
namespace {

using coll::AllgatherOptions;
using coll::AlltoallOptions;
using coll::ConcatAlgorithm;
using coll::ExecutionPath;
using coll::IndexAlgorithm;
using coll::Plan;
using coll::PlanCache;
using coll::PlanCacheStats;
using coll::PlanKey;

// ---------------------------------------------------------------------------
// PlanCache mechanics on a private instance (the global one is exercised
// through the facade further down).

TEST(PlanCache, MissThenHitOnSameKey) {
  PlanCache cache;
  const PlanKey key = coll::index_plan_key(IndexAlgorithm::kBruck, 8, 2, 2);
  const PlanCache::Lookup first = cache.get_or_lower(key);
  EXPECT_FALSE(first.cache_hit);
  const PlanCache::Lookup second = cache.get_or_lower(key);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.plan.get(), second.plan.get());  // shared, not re-lowered
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PlanCache, GeometryChangesMiss) {
  PlanCache cache;
  (void)cache.get_or_lower(coll::index_plan_key(IndexAlgorithm::kBruck, 8, 2, 2));
  // Each changed coordinate is a different plan.
  (void)cache.get_or_lower(coll::index_plan_key(IndexAlgorithm::kBruck, 9, 2, 2));
  (void)cache.get_or_lower(coll::index_plan_key(IndexAlgorithm::kBruck, 8, 3, 2));
  (void)cache.get_or_lower(coll::index_plan_key(IndexAlgorithm::kBruck, 8, 2, 4));
  (void)cache.get_or_lower(coll::index_plan_key(IndexAlgorithm::kDirect, 8, 2, 0));
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 5u);
  EXPECT_EQ(stats.entries, 5u);
}

TEST(PlanCache, IndexPlansAreBlockSizeIndependent) {
  // The key carries no block size for index collectives: one lowering
  // serves every b (sizes resolve at run time).
  const PlanKey a = coll::index_plan_key(IndexAlgorithm::kBruck, 12, 2, 3);
  const PlanKey b = coll::index_plan_key(IndexAlgorithm::kBruck, 12, 2, 3);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.block_class, 0);
  // Concat plans are keyed per block size (the byte-split partition of
  // Section 4.2 depends on b).
  const PlanKey c = coll::concat_plan_key(
      ConcatAlgorithm::kBruck, 12, 2, model::ConcatLastRound::kColumnGranular, 4);
  const PlanKey d = coll::concat_plan_key(
      ConcatAlgorithm::kBruck, 12, 2, model::ConcatLastRound::kColumnGranular, 8);
  EXPECT_FALSE(c == d);
}

TEST(PlanCache, EvictsLeastRecentlyUsedPastCapacity) {
  PlanCache cache(/*capacity=*/2);
  const PlanKey a = coll::index_plan_key(IndexAlgorithm::kBruck, 4, 1, 2);
  const PlanKey b = coll::index_plan_key(IndexAlgorithm::kBruck, 5, 1, 2);
  const PlanKey c = coll::index_plan_key(IndexAlgorithm::kBruck, 6, 1, 2);
  (void)cache.get_or_lower(a);
  (void)cache.get_or_lower(b);
  (void)cache.get_or_lower(a);  // refresh a: b is now least recently used
  (void)cache.get_or_lower(c);  // evicts b
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_TRUE(cache.get_or_lower(a).cache_hit);
  EXPECT_TRUE(cache.get_or_lower(c).cache_hit);
  EXPECT_FALSE(cache.get_or_lower(b).cache_hit);  // re-lowered after eviction
}

TEST(PlanCache, ClearResetsEverything) {
  PlanCache cache;
  (void)cache.get_or_lower(coll::index_plan_key(IndexAlgorithm::kDirect, 5, 1, 0));
  cache.clear();
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

// ---------------------------------------------------------------------------
// Lowered plans equal the independently built schedules of sched/ — the
// same cross-check the reference implementations pass via their traces.

TEST(PlanLowering, IndexBruckMatchesBuiltSchedule) {
  for (const auto& [n, r, k, b] :
       std::vector<std::tuple<std::int64_t, std::int64_t, int, std::int64_t>>{
           {2, 2, 1, 3}, {7, 2, 1, 5}, {16, 4, 2, 8}, {21, 3, 2, 1},
           {32, 2, 4, 6}, {13, 13, 2, 9}}) {
    SCOPED_TRACE("n=" + std::to_string(n) + " r=" + std::to_string(r) +
                 " k=" + std::to_string(k) + " b=" + std::to_string(b));
    const auto plan = Plan::lower_index_bruck(n, k, r);
    sched::Schedule from_plan = plan->to_schedule(b);
    sched::Schedule built = sched::build_index_bruck(n, r, k, b);
    from_plan.normalize();
    built.normalize();
    EXPECT_TRUE(from_plan == built);
  }
}

TEST(PlanLowering, DirectAndPairwiseMatchBuiltSchedules) {
  for (const std::int64_t n : {2, 5, 9, 16}) {
    for (const int k : {1, 3}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k));
      sched::Schedule from_plan = Plan::lower_index_direct(n, k)->to_schedule(4);
      sched::Schedule built = sched::build_index_direct(n, k, 4);
      from_plan.normalize();
      built.normalize();
      EXPECT_TRUE(from_plan == built);
    }
  }
  sched::Schedule from_plan = Plan::lower_index_pairwise(16, 2)->to_schedule(4);
  sched::Schedule built = sched::build_index_pairwise(16, 2, 4);
  from_plan.normalize();
  built.normalize();
  EXPECT_TRUE(from_plan == built);
}

TEST(PlanLowering, ConcatBruckMatchesBuiltSchedule) {
  for (const auto& [n, k, b] :
       std::vector<std::tuple<std::int64_t, int, std::int64_t>>{
           {2, 1, 1}, {9, 2, 4}, {16, 3, 5}, {27, 2, 8}, {21, 4, 2}}) {
    for (const model::ConcatLastRound strategy :
         {model::ConcatLastRound::kColumnGranular,
          model::ConcatLastRound::kTwoRound}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k) +
                   " b=" + std::to_string(b));
      sched::Schedule from_plan =
          Plan::lower_concat_bruck(n, k, b, strategy)->to_schedule();
      sched::Schedule built = sched::build_concat_bruck(n, k, b, strategy);
      from_plan.normalize();
      built.normalize();
      EXPECT_TRUE(from_plan == built);
    }
  }
}

TEST(PlanLowering, ConcatBaselinesMatchBuiltSchedules) {
  for (const std::int64_t n : {2, 3, 8, 13}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    sched::Schedule folk_plan =
        Plan::lower_concat_folklore(n, 1, 6)->to_schedule();
    sched::Schedule folk_built = sched::build_concat_folklore(n, 6);
    folk_plan.normalize();
    folk_built.normalize();
    EXPECT_TRUE(folk_plan == folk_built);

    sched::Schedule ring_plan = Plan::lower_concat_ring(n, 1, 6)->to_schedule();
    sched::Schedule ring_built = sched::build_concat_ring(n, 6);
    ring_plan.normalize();
    ring_built.normalize();
    EXPECT_TRUE(ring_plan == ring_built);
  }
}

// ---------------------------------------------------------------------------
// Compiled vs reference execution over a random (n, k, r, b) sweep: both
// deliver the expected payloads, and the compiled trace and round usage
// equal the builder schedule and the closed-form C1.

TEST(CompiledVsReference, IndexRandomSweep) {
  SplitMix64 rng(0x9E37C0DE);
  for (int trial = 0; trial < 40; ++trial) {
    const std::int64_t n = 1 + static_cast<std::int64_t>(rng.next_below(24));
    const int k = 1 + static_cast<int>(rng.next_below(4));
    const std::int64_t b = static_cast<std::int64_t>(rng.next_below(20));
    const std::int64_t r =
        2 + static_cast<std::int64_t>(
                rng.next_below(static_cast<std::uint64_t>(std::max<std::int64_t>(
                    1, n - 1))));
    SCOPED_TRACE("n=" + std::to_string(n) + " r=" + std::to_string(r) +
                 " k=" + std::to_string(k) + " b=" + std::to_string(b));
    const std::uint64_t seed = rng.next();

    AlltoallOptions compiled;
    compiled.algorithm = IndexAlgorithm::kBruck;
    compiled.radix = r;
    compiled.path = ExecutionPath::kPipelined;
    AlltoallOptions reference = compiled;
    reference.path = ExecutionPath::kReference;

    const testutil::CollRun run_c = testutil::run_index(
        n, k, b,
        [&](mps::Communicator& comm, std::span<const std::byte> send,
            std::span<std::byte> recv) {
          return coll::alltoall(comm, send, recv, b, compiled);
        },
        seed);
    const testutil::CollRun run_r = testutil::run_index(
        n, k, b,
        [&](mps::Communicator& comm, std::span<const std::byte> send,
            std::span<std::byte> recv) {
          return coll::alltoall(comm, send, recv, b, reference);
        },
        seed);
    ASSERT_EQ(run_c.error, "");
    ASSERT_EQ(run_r.error, "");
    const testutil::Expected want =
        testutil::expected_index(IndexAlgorithm::kBruck, n, k, b, r);
    EXPECT_EQ(run_c.rounds_used, want.closed.c1);
    sched::Schedule exec_c = run_c.trace->to_schedule();
    exec_c.normalize();
    EXPECT_TRUE(exec_c == want.schedule)
        << "compiled trace diverges from the built schedule";
  }
}

TEST(CompiledVsReference, ConcatRandomSweep) {
  SplitMix64 rng(0xC0CA7EED);
  const ConcatAlgorithm algorithms[] = {
      ConcatAlgorithm::kBruck, ConcatAlgorithm::kFolklore,
      ConcatAlgorithm::kRing};
  // Always-feasible strategies; kByteSplit gets its own targeted sweep.
  const model::ConcatLastRound strategies[] = {
      model::ConcatLastRound::kAuto, model::ConcatLastRound::kColumnGranular,
      model::ConcatLastRound::kTwoRound};
  for (int trial = 0; trial < 40; ++trial) {
    const std::int64_t n = 1 + static_cast<std::int64_t>(rng.next_below(24));
    const int k = 1 + static_cast<int>(rng.next_below(4));
    const std::int64_t b = static_cast<std::int64_t>(rng.next_below(16));
    const ConcatAlgorithm alg = algorithms[rng.next_below(3)];
    const model::ConcatLastRound strategy = strategies[rng.next_below(3)];
    SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k) +
                 " b=" + std::to_string(b) + " alg=" + coll::to_string(alg) +
                 " strat=" + std::to_string(static_cast<int>(strategy)));
    const std::uint64_t seed = rng.next();

    AllgatherOptions compiled;
    compiled.algorithm = alg;
    compiled.last_round = strategy;
    compiled.path = ExecutionPath::kPipelined;
    AllgatherOptions reference = compiled;
    reference.path = ExecutionPath::kReference;

    const testutil::CollRun run_c = testutil::run_concat(
        n, k, b,
        [&](mps::Communicator& comm, std::span<const std::byte> send,
            std::span<std::byte> recv) {
          return coll::allgather(comm, send, recv, b, compiled);
        },
        seed);
    const testutil::CollRun run_r = testutil::run_concat(
        n, k, b,
        [&](mps::Communicator& comm, std::span<const std::byte> send,
            std::span<std::byte> recv) {
          return coll::allgather(comm, send, recv, b, reference);
        },
        seed);
    ASSERT_EQ(run_c.error, "");
    ASSERT_EQ(run_r.error, "");
    const testutil::Expected want =
        testutil::expected_concat(alg, n, k, b, strategy);
    // A b = 0 concatenation never enters the fabric: no rounds at all.
    EXPECT_EQ(run_c.rounds_used, b > 0 ? want.closed.c1 : 0);
    sched::Schedule exec_c = run_c.trace->to_schedule();
    exec_c.normalize();
    EXPECT_TRUE(exec_c == want.schedule)
        << "compiled trace diverges from the built schedule";
  }
}

TEST(CompiledVsReference, ConcatByteSplitWhereFeasible) {
  // The strategy whose byte-granular cells exercise the packed (staged)
  // wire path hardest; only valid where Proposition 4.2's partition exists.
  int covered = 0;
  for (const auto& [n, k, b] :
       std::vector<std::tuple<std::int64_t, int, std::int64_t>>{
           {6, 2, 4}, {11, 2, 7}, {13, 3, 2}, {20, 4, 5}, {23, 2, 9}}) {
    if (!model::concat_byte_split_feasible(n, k, b)) continue;
    ++covered;
    SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k) +
                 " b=" + std::to_string(b));
    AllgatherOptions compiled;
    compiled.algorithm = ConcatAlgorithm::kBruck;
    compiled.last_round = model::ConcatLastRound::kByteSplit;
    compiled.path = ExecutionPath::kPipelined;
    AllgatherOptions reference = compiled;
    reference.path = ExecutionPath::kReference;

    const testutil::CollRun run_c = testutil::run_concat(
        n, k, b,
        [&](mps::Communicator& comm, std::span<const std::byte> send,
            std::span<std::byte> recv) {
          return coll::allgather(comm, send, recv, b, compiled);
        });
    const testutil::CollRun run_r = testutil::run_concat(
        n, k, b,
        [&](mps::Communicator& comm, std::span<const std::byte> send,
            std::span<std::byte> recv) {
          return coll::allgather(comm, send, recv, b, reference);
        });
    ASSERT_EQ(run_c.error, "");
    ASSERT_EQ(run_r.error, "");
    sched::Schedule exec_c = run_c.trace->to_schedule();
    exec_c.normalize();
    EXPECT_TRUE(exec_c == testutil::expected_concat(
                              ConcatAlgorithm::kBruck, n, k, b,
                              model::ConcatLastRound::kByteSplit)
                              .schedule);
  }
  EXPECT_GE(covered, 3);  // the grid must actually exercise the strategy
}

// ---------------------------------------------------------------------------
// The acceptance criterion: a repeated same-geometry alltoall reports a
// PlanCache hit with zero re-planning work in the trace.

TEST(PlanCacheFacade, RepeatedAlltoallHitsWithZeroReplanning) {
  PlanCache::global().clear();
  const std::int64_t n = 8;
  const int k = 2;
  const std::int64_t b = 16;

  const auto run_once = [&] {
    return testutil::run_index(
        n, k, b,
        [&](mps::Communicator& comm, std::span<const std::byte> send,
            std::span<std::byte> recv) {
          return coll::alltoall(comm, send, recv, b);
        });
  };

  const testutil::CollRun first = run_once();
  ASSERT_EQ(first.error, "");
  const mps::PlanStats cold = first.trace->plan_stats();
  EXPECT_EQ(cold.uses, static_cast<std::uint64_t>(n));
  // Exactly one rank lowered the plan; the other n−1 rank calls hit.
  EXPECT_EQ(cold.misses, 1u);
  EXPECT_EQ(cold.hits, static_cast<std::uint64_t>(n - 1));
  const PlanCacheStats after_first = PlanCache::global().stats();
  EXPECT_EQ(after_first.entries, 1u);

  const testutil::CollRun second = run_once();
  ASSERT_EQ(second.error, "");
  const mps::PlanStats warm = second.trace->plan_stats();
  EXPECT_EQ(warm.uses, static_cast<std::uint64_t>(n));
  EXPECT_EQ(warm.misses, 0u);  // zero re-planning work
  EXPECT_EQ(warm.hits, static_cast<std::uint64_t>(n));
  // And the cache grew by nothing.
  const PlanCacheStats after_second = PlanCache::global().stats();
  EXPECT_EQ(after_second.entries, 1u);

  // The executed pattern is byte-identical between cold and warm runs.
  sched::Schedule cold_sched = first.trace->to_schedule();
  sched::Schedule warm_sched = second.trace->to_schedule();
  cold_sched.normalize();
  warm_sched.normalize();
  EXPECT_TRUE(cold_sched == warm_sched);
}

TEST(PlanCacheFacade, PlanStatsReportRoundsAndBytes) {
  PlanCache::global().clear();
  const std::int64_t n = 9;
  const int k = 2;
  const std::int64_t b = 8;
  const testutil::CollRun run = testutil::run_index(
      n, k, b,
      [&](mps::Communicator& comm, std::span<const std::byte> send,
          std::span<std::byte> recv) {
        AlltoallOptions options;
        options.algorithm = IndexAlgorithm::kBruck;
        options.radix = 3;
        return coll::alltoall(comm, send, recv, b, options);
      });
  ASSERT_EQ(run.error, "");
  const mps::PlanStats stats = run.trace->plan_stats();
  // Σ per-rank bytes equals the trace's total network volume, and every
  // rank reports the plan's round count.
  EXPECT_EQ(stats.bytes_sent, run.trace->metrics().total_bytes);
  EXPECT_EQ(stats.rounds, static_cast<std::int64_t>(n) * run.rounds_used);
}

TEST(PlanCacheFacade, AllgatherGeometrySweepPopulatesDistinctEntries) {
  PlanCache::global().clear();
  for (const std::int64_t n : {4, 7}) {
    for (const int k : {1, 2}) {
      const testutil::CollRun run = testutil::run_concat(
          n, k, 6,
          [&](mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv) {
            return coll::allgather(comm, send, recv, 6);
          });
      ASSERT_EQ(run.error, "") << "n=" << n << " k=" << k;
    }
  }
  const PlanCacheStats stats = PlanCache::global().stats();
  EXPECT_EQ(stats.entries, 4u);  // one per geometry, no cross-talk
  EXPECT_EQ(stats.misses, 4u);
}

// ---------------------------------------------------------------------------
// The tuner memo: the kAuto radix decision is computed once per geometry.

TEST(TunerCache, CachedPickMatchesDirectPick) {
  model::clear_tuner_cache();
  const model::LinearModel machine = model::ibm_sp1();
  for (const std::int64_t b : {1, 64, 4096}) {
    const model::RadixChoice direct = model::pick_index_radix(64, 2, b, machine);
    const model::RadixChoice cached =
        model::pick_index_radix_cached(64, 2, b, machine);
    EXPECT_EQ(cached.radix, direct.radix);
    EXPECT_DOUBLE_EQ(cached.predicted_us, direct.predicted_us);
    // Second lookup is a hit.
    (void)model::pick_index_radix_cached(64, 2, b, machine);
  }
  const model::TunerCacheStats stats = model::tuner_cache_stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 3u);
}

// ---------------------------------------------------------------------------
// Anatomy rendering (documented in the README): smoke-check the shape.

TEST(PlanDescribe, MentionsRoundsAndZeroCopy) {
  const auto plan = Plan::lower_index_direct(6, 2);
  const std::string text = plan->describe();
  EXPECT_NE(text.find("index/direct"), std::string::npos);
  EXPECT_NE(text.find("rounds"), std::string::npos);
  // Direct exchange sends straight out of the user buffer.
  EXPECT_NE(text.find("zero-copy"), std::string::npos);
}

}  // namespace
}  // namespace bruck
