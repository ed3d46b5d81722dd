// Irregular (vector) collectives: alltoallv / allgatherv through the plan
// engine vs the direct per-pair irregular oracle.
//
// The correctness story mirrors the uniform plan tests: (1) the compiled
// path (all algorithms, segmented or not) must deliver exactly the
// payloads the oracle does, for skewed shapes including zero-length rows
// and one-hot skew; (2) the compiled direct
// path must equal the oracle transfer-for-transfer in the executed trace;
// (3) the PlanCache must hit on repeated same-shape calls and miss across
// shape buckets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "coll/api.hpp"
#include "coll/plan.hpp"
#include "coll/plan_cache.hpp"
#include "model/tuner.hpp"
#include "mps/runtime.hpp"
#include "util/rng.hpp"

namespace bruck {
namespace {

using coll::AllgathervOptions;
using coll::AlltoallvOptions;
using coll::ConcatAlgorithm;
using coll::ExecutionPath;
using coll::IndexAlgorithm;

// ---------------------------------------------------------------------------
// Shape and payload helpers.

std::vector<std::int64_t> prefix(const std::vector<std::int64_t>& sizes,
                                 std::int64_t gap = 0) {
  std::vector<std::int64_t> displs(sizes.size());
  std::int64_t pos = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    displs[i] = pos;
    pos += sizes[i] + gap;
  }
  return displs;
}

std::int64_t sum(const std::vector<std::int64_t>& v) {
  std::int64_t s = 0;
  for (const std::int64_t x : v) s += x;
  return s;
}

enum class Skew { kUniformRandom, kZeroRows, kOneHot, kHeavyTail };

/// A random n×n count matrix under the given skew pattern.
std::vector<std::int64_t> make_matrix(std::int64_t n, Skew skew,
                                      std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<std::int64_t> counts(static_cast<std::size_t>(n * n), 0);
  for (std::int64_t i = 0; i < n; ++i) {
    switch (skew) {
      case Skew::kUniformRandom:
        for (std::int64_t j = 0; j < n; ++j) {
          counts[static_cast<std::size_t>(i * n + j)] =
              static_cast<std::int64_t>(rng.next_below(64));
        }
        break;
      case Skew::kZeroRows:
        if (rng.next_below(2) == 0) break;  // whole row stays zero
        for (std::int64_t j = 0; j < n; ++j) {
          counts[static_cast<std::size_t>(i * n + j)] =
              static_cast<std::int64_t>(rng.next_below(32));
        }
        break;
      case Skew::kOneHot: {
        const std::int64_t hot =
            static_cast<std::int64_t>(rng.next_below(
                static_cast<std::uint64_t>(n)));
        counts[static_cast<std::size_t>(i * n + hot)] =
            static_cast<std::int64_t>(1 + rng.next_below(256));
        break;
      }
      case Skew::kHeavyTail:
        for (std::int64_t j = 0; j < n; ++j) {
          // Mostly tiny, occasionally ~100x heavier.
          const bool heavy = rng.next_below(8) == 0;
          counts[static_cast<std::size_t>(i * n + j)] =
              static_cast<std::int64_t>(
                  heavy ? 128 + rng.next_below(512) : rng.next_below(8));
        }
        break;
    }
  }
  return counts;
}

/// Block (src → dst) payload: pure function of (seed, src, dst, offset).
void fill_pair_block(std::span<std::byte> out, std::uint64_t seed,
                     std::int64_t src, std::int64_t dst) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = payload_byte(seed, src, dst, i);
  }
}

std::string check_pair_block(std::span<const std::byte> got,
                             std::uint64_t seed, std::int64_t src,
                             std::int64_t dst) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != payload_byte(seed, src, dst, i)) {
      return "mismatch in block (" + std::to_string(src) + " -> " +
             std::to_string(dst) + ") at offset " + std::to_string(i);
    }
  }
  return "";
}

struct VectorRun {
  std::shared_ptr<mps::Trace> trace;
  std::string error;
  int rounds_used = 0;
};

/// Run alltoallv on the threaded fabric with deterministic per-pair
/// payloads; `gap` > 0 exercises non-canonical displacements.
VectorRun run_alltoallv(std::int64_t n, int k,
                        const std::vector<std::int64_t>& counts,
                        const AlltoallvOptions& options, std::int64_t gap = 0,
                        std::uint64_t seed = 7) {
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  std::vector<int> rounds(static_cast<std::size_t>(n), -1);
  mps::RunResult rr = mps::run_spmd(n, k, [&](mps::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    std::vector<std::int64_t> row(
        counts.begin() + static_cast<std::ptrdiff_t>(rank * n),
        counts.begin() + static_cast<std::ptrdiff_t>((rank + 1) * n));
    std::vector<std::int64_t> col(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      col[static_cast<std::size_t>(i)] =
          counts[static_cast<std::size_t>(i * n + rank)];
    }
    const std::vector<std::int64_t> sdispls = prefix(row, gap);
    const std::vector<std::int64_t> rdispls = prefix(col, gap);
    std::vector<std::byte> send(
        static_cast<std::size_t>(sum(row) + gap * n));
    std::vector<std::byte> recv(static_cast<std::size_t>(sum(col) + gap * n),
                                std::byte{0xEE});
    for (std::int64_t j = 0; j < n; ++j) {
      fill_pair_block(
          std::span<std::byte>(send).subspan(
              static_cast<std::size_t>(sdispls[static_cast<std::size_t>(j)]),
              static_cast<std::size_t>(row[static_cast<std::size_t>(j)])),
          seed, rank, j);
    }
    rounds[static_cast<std::size_t>(rank)] =
        gap == 0 ? coll::alltoallv(comm, send, recv, counts, {}, {}, options)
                 : coll::alltoallv(comm, send, recv, counts, sdispls, rdispls,
                                   options);
    for (std::int64_t i = 0; i < n; ++i) {
      const std::string err = check_pair_block(
          std::span<const std::byte>(recv).subspan(
              static_cast<std::size_t>(rdispls[static_cast<std::size_t>(i)]),
              static_cast<std::size_t>(col[static_cast<std::size_t>(i)])),
          seed, i, rank);
      if (!err.empty() && errors[static_cast<std::size_t>(rank)].empty()) {
        errors[static_cast<std::size_t>(rank)] = err;
      }
    }
  });
  VectorRun out;
  out.trace = rr.trace;
  out.rounds_used = rounds.empty() ? 0 : rounds[0];
  for (std::int64_t r = 0; r < n; ++r) {
    if (!errors[static_cast<std::size_t>(r)].empty() && out.error.empty()) {
      out.error = errors[static_cast<std::size_t>(r)];
    }
    if (rounds[static_cast<std::size_t>(r)] != out.rounds_used &&
        out.error.empty()) {
      out.error = "ranks disagree on rounds used";
    }
  }
  return out;
}

VectorRun run_allgatherv(std::int64_t n, int k,
                         const std::vector<std::int64_t>& counts,
                         const AllgathervOptions& options,
                         std::int64_t gap = 0, std::uint64_t seed = 11) {
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  std::vector<int> rounds(static_cast<std::size_t>(n), -1);
  mps::RunResult rr = mps::run_spmd(n, k, [&](mps::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    const std::vector<std::int64_t> rdispls = prefix(counts, gap);
    std::vector<std::byte> send(static_cast<std::size_t>(
        counts[static_cast<std::size_t>(rank)]));
    std::vector<std::byte> recv(
        static_cast<std::size_t>(sum(counts) + gap * n), std::byte{0xEE});
    fill_pair_block(send, seed, rank, 0);
    rounds[static_cast<std::size_t>(rank)] =
        gap == 0 ? coll::allgatherv(comm, send, recv, counts, {}, options)
                 : coll::allgatherv(comm, send, recv, counts, rdispls,
                                    options);
    for (std::int64_t i = 0; i < n; ++i) {
      const std::string err = check_pair_block(
          std::span<const std::byte>(recv).subspan(
              static_cast<std::size_t>(rdispls[static_cast<std::size_t>(i)]),
              static_cast<std::size_t>(
                  counts[static_cast<std::size_t>(i)])),
          seed, i, 0);
      if (!err.empty() && errors[static_cast<std::size_t>(rank)].empty()) {
        errors[static_cast<std::size_t>(rank)] = err;
      }
    }
  });
  VectorRun out;
  out.trace = rr.trace;
  out.rounds_used = rounds.empty() ? 0 : rounds[0];
  for (std::int64_t r = 0; r < n; ++r) {
    if (!errors[static_cast<std::size_t>(r)].empty() && out.error.empty()) {
      out.error = errors[static_cast<std::size_t>(r)];
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Shape digests and keys.

TEST(ShapeDigest, SameBucketHitsDifferentShapeMisses) {
  const std::vector<std::int64_t> a{100, 0, 7, 33};
  const std::vector<std::int64_t> same_buckets{120, 0, 5, 60};  // same widths
  const std::vector<std::int64_t> different{100, 0, 7, 300};
  const std::vector<std::int64_t> zero_flip{100, 1, 7, 33};
  EXPECT_EQ(coll::shape_digest(a), coll::shape_digest(a));
  EXPECT_EQ(coll::shape_digest(a), coll::shape_digest(same_buckets));
  EXPECT_NE(coll::shape_digest(a), coll::shape_digest(different));
  EXPECT_NE(coll::shape_digest(a), coll::shape_digest(zero_flip));
  EXPECT_NE(coll::shape_digest(a), 0u);
}

TEST(ShapeDigest, KeysSplitOnDigestAndMatchWithinBucket) {
  const std::vector<std::int64_t> a{16, 16, 16, 16};
  const std::vector<std::int64_t> b{17, 30, 20, 16};   // same log2 buckets
  const std::vector<std::int64_t> c{64, 16, 16, 16};   // different bucket
  const auto key_a = coll::indexv_plan_key(IndexAlgorithm::kDirect, 2, 1, 0,
                                           coll::shape_digest(a));
  const auto key_b = coll::indexv_plan_key(IndexAlgorithm::kDirect, 2, 1, 0,
                                           coll::shape_digest(b));
  const auto key_c = coll::indexv_plan_key(IndexAlgorithm::kDirect, 2, 1, 0,
                                           coll::shape_digest(c));
  EXPECT_TRUE(key_a == key_b);
  EXPECT_FALSE(key_a == key_c);
  // Vector keys never collide with uniform keys for the same geometry.
  const auto uniform = coll::index_plan_key(IndexAlgorithm::kDirect, 2, 1, 0);
  EXPECT_FALSE(key_a == uniform);
}

TEST(PlanCacheVector, RepeatedShapeHitsAcrossBucketMisses) {
  const std::int64_t n = 6;
  const std::vector<std::int64_t> counts = make_matrix(n, Skew::kHeavyTail, 3);
  std::vector<std::int64_t> doubled(counts);
  for (std::int64_t& c : doubled) c = c * 16 + 1024;  // shifts every bucket
  AlltoallvOptions options;
  options.algorithm = IndexAlgorithm::kDirect;
  options.segments = 1;

  const coll::PlanCacheStats before = coll::PlanCache::global().stats();
  EXPECT_EQ(run_alltoallv(n, 2, counts, options).error, "");
  EXPECT_EQ(run_alltoallv(n, 2, counts, options).error, "");
  const coll::PlanCacheStats after_same = coll::PlanCache::global().stats();
  // One lowering for the shape; every other rank call across both runs hit.
  EXPECT_EQ(after_same.misses - before.misses, 1u);
  EXPECT_EQ(after_same.hits - before.hits,
            static_cast<std::uint64_t>(2 * n - 1));

  EXPECT_EQ(run_alltoallv(n, 2, doubled, options).error, "");
  const coll::PlanCacheStats after_diff = coll::PlanCache::global().stats();
  EXPECT_EQ(after_diff.misses - after_same.misses, 1u);  // new bucket
}

// ---------------------------------------------------------------------------
// The vector tuner.

TEST(VectorTuner, LargeUniformPairsPickDirectTinyPairsPickBruck) {
  const model::LinearModel machine = model::ibm_sp1();
  // 64 ranks × 1 MiB pairs: start-up time is irrelevant, direct's minimal
  // C2 wins (the uniform paper trade-off at large b).
  const std::int64_t big_total = std::int64_t{64} * 64 * (1 << 20);
  const auto big = model::pick_indexv(64, 1, big_total, 1 << 20, machine);
  EXPECT_TRUE(big.direct);
  // 64 ranks × 2-byte pairs: ⌈(n−1)/k⌉ start-ups dwarf the data, Bruck's
  // few rounds win.
  const auto tiny = model::pick_indexv(64, 1, 64 * 64 * 2, 2, machine);
  EXPECT_FALSE(tiny.direct);
  EXPECT_GE(tiny.radix, 2);
  // Empty shapes resolve to direct (pure round counting).
  EXPECT_TRUE(model::pick_indexv(8, 2, 0, 0, machine).direct);
}

TEST(VectorTuner, CachedPickIsStableWithinABucket) {
  const model::LinearModel machine = model::ibm_sp1();
  const auto a = model::pick_indexv_cached(16, 2, 5000, 100, machine);
  const auto b = model::pick_indexv_cached(16, 2, 5100, 120, machine);
  EXPECT_EQ(a.direct, b.direct);
  EXPECT_EQ(a.radix, b.radix);
  EXPECT_EQ(a.predicted_us, b.predicted_us);
}

// ---------------------------------------------------------------------------
// Payload correctness: every compiled path vs the oracle's contract.

TEST(Alltoallv, AllAlgorithmsAllPathsOnSkewedShapes) {
  for (const Skew skew : {Skew::kUniformRandom, Skew::kZeroRows,
                          Skew::kOneHot, Skew::kHeavyTail}) {
    for (const auto& [n, k] :
         std::vector<std::pair<std::int64_t, int>>{{1, 1}, {2, 1}, {5, 2},
                                                   {8, 2}, {13, 3}}) {
      const std::vector<std::int64_t> counts =
          make_matrix(n, skew, 100 + static_cast<std::uint64_t>(n));
      for (const ExecutionPath path :
           {ExecutionPath::kReference, ExecutionPath::kPipelined}) {
        for (const IndexAlgorithm algorithm :
             {IndexAlgorithm::kAuto, IndexAlgorithm::kBruck,
              IndexAlgorithm::kDirect}) {
          AlltoallvOptions options;
          options.algorithm = algorithm;
          options.path = path;
          if (algorithm == IndexAlgorithm::kBruck) options.radix = 2;
          SCOPED_TRACE("skew=" + std::to_string(static_cast<int>(skew)) +
                       " n=" + std::to_string(n) + " k=" + std::to_string(k) +
                       " path=" + coll::to_string(path) +
                       " algorithm=" + coll::to_string(algorithm));
          EXPECT_EQ(run_alltoallv(n, k, counts, options).error, "");
        }
      }
    }
  }
}

TEST(Alltoallv, PairwiseOnPowerOfTwo) {
  const std::vector<std::int64_t> counts = make_matrix(8, Skew::kHeavyTail, 5);
  AlltoallvOptions options;
  options.algorithm = IndexAlgorithm::kPairwise;
  EXPECT_EQ(run_alltoallv(8, 2, counts, options).error, "");
}

TEST(Alltoallv, AllZeroShapeIsPureRoundCounting) {
  const std::vector<std::int64_t> counts(
      static_cast<std::size_t>(6 * 6), 0);
  for (const ExecutionPath path :
       {ExecutionPath::kReference, ExecutionPath::kPipelined}) {
    AlltoallvOptions options;
    options.path = path;
    options.algorithm = IndexAlgorithm::kDirect;
    const VectorRun run = run_alltoallv(6, 2, counts, options);
    EXPECT_EQ(run.error, "");
    EXPECT_EQ(run.trace->event_count(), 0u);  // nothing touched the fabric
    EXPECT_EQ(run.rounds_used, 3);            // ⌈(n−1)/k⌉ rounds counted
  }
}

TEST(Alltoallv, NonCanonicalDisplacements) {
  const std::vector<std::int64_t> counts =
      make_matrix(7, Skew::kUniformRandom, 21);
  for (const IndexAlgorithm algorithm :
       {IndexAlgorithm::kBruck, IndexAlgorithm::kDirect}) {
    AlltoallvOptions options;
    options.algorithm = algorithm;
    options.radix = 3;
    EXPECT_EQ(run_alltoallv(7, 2, counts, options, /*gap=*/5).error, "");
  }
}

TEST(Alltoallv, SegmentedPipelinedMatches) {
  const std::vector<std::int64_t> counts =
      make_matrix(6, Skew::kHeavyTail, 33);
  for (const int segments : {1, 2, 4}) {
    AlltoallvOptions options;
    options.segments = segments;
    options.algorithm = IndexAlgorithm::kBruck;
    options.radix = 2;
    EXPECT_EQ(run_alltoallv(6, 2, counts, options).error, "");
  }
}

TEST(Alltoallv, PipelinedDirectTraceEqualsOracle) {
  // The compiled direct plan mirrors the oracle's round structure, so the
  // executed traces must agree transfer-for-transfer — heterogeneous byte
  // counts and all (the C1/C2 accounting extended to non-uniform bytes).
  const std::vector<std::int64_t> counts =
      make_matrix(9, Skew::kHeavyTail, 77);
  AlltoallvOptions pipelined;
  pipelined.algorithm = IndexAlgorithm::kDirect;
  pipelined.path = ExecutionPath::kPipelined;
  AlltoallvOptions reference = pipelined;
  reference.path = ExecutionPath::kReference;
  const VectorRun run_p = run_alltoallv(9, 2, counts, pipelined);
  const VectorRun run_r = run_alltoallv(9, 2, counts, reference);
  ASSERT_EQ(run_p.error, "");
  ASSERT_EQ(run_r.error, "");
  sched::Schedule exec_p = run_p.trace->to_schedule();
  sched::Schedule exec_r = run_r.trace->to_schedule();
  exec_p.normalize();
  exec_r.normalize();
  EXPECT_TRUE(exec_p == exec_r) << "pipelined and oracle traces diverge";
  EXPECT_EQ(run_p.trace->metrics(), run_r.trace->metrics());
}

TEST(Alltoallv, RandomSweep) {
  SplitMix64 rng(2026);
  for (int trial = 0; trial < 24; ++trial) {
    const std::int64_t n =
        1 + static_cast<std::int64_t>(rng.next_below(32));
    const int k = 1 + static_cast<int>(rng.next_below(4));
    const Skew skew = static_cast<Skew>(rng.next_below(4));
    const std::vector<std::int64_t> counts = make_matrix(n, skew, rng.next());
    AlltoallvOptions options;
    // Discarded draw: keeps the later draws, and so the shapes, fixed.
    (void)rng.next_below(2);
    options.segments = static_cast<int>(rng.next_below(3));
    SCOPED_TRACE("trial=" + std::to_string(trial) + " n=" + std::to_string(n) +
                 " k=" + std::to_string(k) +
                 " skew=" + std::to_string(static_cast<int>(skew)));
    EXPECT_EQ(run_alltoallv(n, k, counts, options).error, "");
  }
}

// ---------------------------------------------------------------------------
// Allgatherv.

TEST(Allgatherv, AllAlgorithmsAllPathsOnSkewedCounts) {
  for (const auto& [n, k] :
       std::vector<std::pair<std::int64_t, int>>{{1, 1}, {2, 1}, {6, 2},
                                                 {9, 3}, {13, 2}}) {
    SplitMix64 rng(static_cast<std::uint64_t>(n) * 31);
    std::vector<std::int64_t> counts(static_cast<std::size_t>(n));
    for (std::int64_t& c : counts) {
      // Mix of empty, small, and heavy blocks.
      const std::uint64_t kind = rng.next_below(4);
      c = kind == 0 ? 0
                    : static_cast<std::int64_t>(
                          kind == 3 ? 200 + rng.next_below(300)
                                    : rng.next_below(24));
    }
    for (const ExecutionPath path :
         {ExecutionPath::kReference, ExecutionPath::kPipelined}) {
      for (const ConcatAlgorithm algorithm :
           {ConcatAlgorithm::kBruck, ConcatAlgorithm::kFolklore,
            ConcatAlgorithm::kRing}) {
        AllgathervOptions options;
        options.algorithm = algorithm;
        options.path = path;
        SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k) +
                     " path=" + coll::to_string(path) +
                     " algorithm=" + coll::to_string(algorithm));
        EXPECT_EQ(run_allgatherv(n, k, counts, options).error, "");
      }
    }
  }
}

TEST(Allgatherv, RandomSweepWithDisplacements) {
  SplitMix64 rng(424242);
  for (int trial = 0; trial < 16; ++trial) {
    const std::int64_t n =
        1 + static_cast<std::int64_t>(rng.next_below(32));
    const int k = 1 + static_cast<int>(rng.next_below(4));
    std::vector<std::int64_t> counts(static_cast<std::size_t>(n));
    for (std::int64_t& c : counts) {
      c = static_cast<std::int64_t>(rng.next_below(128));
    }
    AllgathervOptions options;
    // Discarded draw: keeps the later draws, and so the shapes, fixed.
    (void)rng.next_below(2);
    const std::int64_t gap = static_cast<std::int64_t>(rng.next_below(8));
    SCOPED_TRACE("trial=" + std::to_string(trial) + " n=" + std::to_string(n) +
                 " k=" + std::to_string(k) + " gap=" + std::to_string(gap));
    EXPECT_EQ(run_allgatherv(n, k, counts, options, gap).error, "");
  }
}

TEST(Allgatherv, RepeatedShapeHitsThePlanCache) {
  const std::vector<std::int64_t> counts{40, 0, 13, 200, 7};
  AllgathervOptions options;
  options.segments = 1;
  const coll::PlanCacheStats before = coll::PlanCache::global().stats();
  EXPECT_EQ(run_allgatherv(5, 2, counts, options).error, "");
  EXPECT_EQ(run_allgatherv(5, 2, counts, options).error, "");
  const coll::PlanCacheStats after = coll::PlanCache::global().stats();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_GT(after.hits - before.hits, 0u);
}

}  // namespace
}  // namespace bruck
