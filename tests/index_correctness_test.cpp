// End-to-end content correctness of the index (alltoall) algorithms on the
// threaded substrate, across n × radix × ports × block-size grids.  Each
// algorithm runs through coll::alltoall with the algorithm forced, flat.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "coll/blocks.hpp"
#include "coll/pack.hpp"
#include "test_util.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"
#include "util/radix.hpp"
#include "util/rng.hpp"

namespace bruck {
namespace {

using coll::IndexAlgorithm;
using testutil::index_options;
using testutil::run_index;

// ---------------------------------------------------------------------------
// Local phases in isolation.

TEST(Blocks, RotateUpMatchesAppendixALines3And4) {
  // tmp slot x = out block (x + rank) mod n.
  const std::int64_t n = 5, b = 2;
  std::vector<std::byte> src(static_cast<std::size_t>(n * b));
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = static_cast<std::byte>(i);
  std::vector<std::byte> dst(src.size());
  coll::rotate_blocks_up(coll::ConstBlockSpan(src, n, b),
                         coll::BlockSpan(dst, n, b), 3);
  for (std::int64_t x = 0; x < n; ++x) {
    for (std::int64_t o = 0; o < b; ++o) {
      EXPECT_EQ(dst[static_cast<std::size_t>(x * b + o)],
                src[static_cast<std::size_t>(pos_mod(x + 3, n) * b + o)]);
    }
  }
}

TEST(Blocks, UnrotateByRankInvertsPhaseOneAfterFullRotation) {
  // If every slot s traveled distance s (what Phase 2 accomplishes), then
  // Phase 3 at rank d recovers: recv block i = value from source i.
  const std::int64_t n = 7, b = 3, rank = 4;
  // Build the post-phase-2 buffer at rank `rank`: slot s holds the block
  // that source (rank − s) addressed to `rank`.
  std::vector<std::byte> tmp(static_cast<std::size_t>(n * b));
  coll::BlockSpan tmp_blocks(tmp, n, b);
  for (std::int64_t s = 0; s < n; ++s) {
    fill_payload(tmp_blocks.block(s), 1, pos_mod(rank - s, n), rank);
  }
  std::vector<std::byte> out(tmp.size());
  coll::unrotate_by_rank(coll::ConstBlockSpan(tmp, n, b),
                         coll::BlockSpan(out, n, b), rank);
  coll::BlockSpan out_blocks(out, n, b);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t o = 0; o < b; ++o) {
      EXPECT_EQ(out_blocks.block(i)[static_cast<std::size_t>(o)],
                payload_byte(1, i, rank, static_cast<std::size_t>(o)));
    }
  }
}

TEST(Pack, PackByDigitGathersTheDigitMembersInOrder) {
  for (std::int64_t n : {1, 2, 5, 8, 13}) {
    for (std::int64_t r : {2, 3, 5}) {
      if (r > std::max<std::int64_t>(2, n)) continue;
      const std::int64_t b = 3;
      std::vector<std::byte> buf(static_cast<std::size_t>(n * b));
      fill_random_bytes(buf, 11);
      const int w = radix_digit_count(n, r);
      for (int x = 0; x < w; ++x) {
        for (std::int64_t z = 1; z < r; ++z) {
          std::vector<std::byte> packed(static_cast<std::size_t>(n * b));
          const std::int64_t cnt =
              coll::pack_by_digit(buf, packed, n, b, r, x, z);
          const std::vector<std::int64_t> members =
              radix_digit_members(n, r, x, z);
          ASSERT_EQ(cnt, static_cast<std::int64_t>(members.size()));
          for (std::size_t i = 0; i < members.size(); ++i) {
            EXPECT_TRUE(std::equal(
                packed.begin() + static_cast<std::ptrdiff_t>(i) * b,
                packed.begin() + static_cast<std::ptrdiff_t>(i + 1) * b,
                buf.begin() + members[i] * b))
                << "n=" << n << " r=" << r << " x=" << x << " z=" << z;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Parameterized end-to-end sweeps.

struct BruckCase {
  std::int64_t n;
  std::int64_t radix;
  int k;
  std::int64_t b;
};

class IndexBruckSweep : public ::testing::TestWithParam<BruckCase> {};

TEST_P(IndexBruckSweep, DeliversEveryBlockToItsDestination) {
  const auto [n, radix, k, b] = GetParam();
  const testutil::CollRun run =
      run_index(n, k, b, [&](mps::Communicator& comm,
                             std::span<const std::byte> send,
                             std::span<std::byte> recv) {
        return coll::alltoall(comm, send, recv, b,
                              index_options(IndexAlgorithm::kBruck, radix));
      });
  EXPECT_EQ(run.error, "") << "n=" << n << " r=" << radix << " k=" << k
                           << " b=" << b;
}

std::vector<BruckCase> bruck_cases() {
  std::vector<BruckCase> cases;
  std::set<std::tuple<std::int64_t, std::int64_t, int>> seen;
  for (std::int64_t n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 16, 17, 24, 25,
                         27, 31, 32, 33}) {
    for (std::int64_t radix : {std::int64_t{2}, std::int64_t{3},
                               std::int64_t{4}, std::int64_t{7}, n}) {
      if (radix < 2 || radix > std::max<std::int64_t>(2, n)) continue;
      for (int k : {1, 2, 3}) {
        if (!seen.insert({n, radix, k}).second) continue;
        cases.push_back(BruckCase{n, radix, k, 4});
      }
    }
  }
  // Block-size edge cases on a fixed topology.
  for (std::int64_t b : {0, 1, 2, 9, 64}) {
    cases.push_back(BruckCase{6, 2, 1, b});
    cases.push_back(BruckCase{6, 3, 2, b});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, IndexBruckSweep,
                         ::testing::ValuesIn(bruck_cases()),
                         [](const auto& pinfo) {
                           const BruckCase& c = pinfo.param;
                           return "n" + std::to_string(c.n) + "_r" +
                                  std::to_string(c.radix) + "_k" +
                                  std::to_string(c.k) + "_b" +
                                  std::to_string(c.b);
                         });

struct SimpleCase {
  std::int64_t n;
  int k;
  std::int64_t b;
};

class IndexDirectSweep : public ::testing::TestWithParam<SimpleCase> {};

TEST_P(IndexDirectSweep, DeliversEveryBlockToItsDestination) {
  const auto [n, k, b] = GetParam();
  const testutil::CollRun run =
      run_index(n, k, b, [&](mps::Communicator& comm,
                             std::span<const std::byte> send,
                             std::span<std::byte> recv) {
        return coll::alltoall(comm, send, recv, b,
                              index_options(IndexAlgorithm::kDirect));
      });
  EXPECT_EQ(run.error, "");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IndexDirectSweep,
    ::testing::Values(SimpleCase{1, 1, 4}, SimpleCase{2, 1, 4},
                      SimpleCase{5, 1, 4}, SimpleCase{5, 2, 4},
                      SimpleCase{8, 3, 4}, SimpleCase{13, 2, 1},
                      SimpleCase{16, 4, 8}, SimpleCase{9, 1, 0},
                      SimpleCase{32, 5, 2}),
    [](const auto& pinfo) {
      const SimpleCase& c = pinfo.param;
      return "n" + std::to_string(c.n) + "_k" + std::to_string(c.k) + "_b" +
             std::to_string(c.b);
    });

class IndexPairwiseSweep : public ::testing::TestWithParam<SimpleCase> {};

TEST_P(IndexPairwiseSweep, DeliversEveryBlockToItsDestination) {
  const auto [n, k, b] = GetParam();
  const testutil::CollRun run =
      run_index(n, k, b, [&](mps::Communicator& comm,
                             std::span<const std::byte> send,
                             std::span<std::byte> recv) {
        return coll::alltoall(comm, send, recv, b,
                              index_options(IndexAlgorithm::kPairwise));
      });
  EXPECT_EQ(run.error, "");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IndexPairwiseSweep,
    ::testing::Values(SimpleCase{1, 1, 4}, SimpleCase{2, 1, 4},
                      SimpleCase{4, 1, 4}, SimpleCase{8, 2, 4},
                      SimpleCase{16, 3, 8}, SimpleCase{32, 1, 2}),
    [](const auto& pinfo) {
      const SimpleCase& c = pinfo.param;
      return "n" + std::to_string(c.n) + "_k" + std::to_string(c.k) + "_b" +
             std::to_string(c.b);
    });

TEST(IndexPairwise, RejectsNonPowerOfTwo) {
  for (const coll::ExecutionPath path :
       {coll::ExecutionPath::kPipelined, coll::ExecutionPath::kReference}) {
    coll::AlltoallOptions options = index_options(IndexAlgorithm::kPairwise);
    options.path = path;
    EXPECT_THROW(
        run_index(6, 1, 4,
                  [&](mps::Communicator& comm, std::span<const std::byte> send,
                      std::span<std::byte> recv) {
                    return coll::alltoall(comm, send, recv, 4, options);
                  }),
        ContractViolation)
        << coll::to_string(path);
  }
}

// ---------------------------------------------------------------------------
// Properties.

TEST(IndexProperty, AppliedTwiceIsIdentity) {
  // The index operation is an involution on the n×n block matrix:
  // (B[i,j] → B[j,i]) twice restores the original placement.
  for (std::int64_t n : {2, 5, 8, 12}) {
    const std::int64_t b = 6;
    const std::int64_t radix = std::min<std::int64_t>(3, n);
    std::vector<std::string> errors(static_cast<std::size_t>(n));
    mps::run_spmd(n, 1, [&](mps::Communicator& comm) {
      const std::int64_t rank = comm.rank();
      std::vector<std::byte> original(static_cast<std::size_t>(n * b));
      coll::fill_index_send(original, n, rank, b, 99);
      std::vector<std::byte> once(original.size());
      std::vector<std::byte> twice(original.size());
      const int next =
          coll::alltoall(comm, original, once, b,
                         index_options(IndexAlgorithm::kBruck, radix));
      coll::alltoall(comm, once, twice, b,
                     index_options(IndexAlgorithm::kBruck, radix, next));
      if (twice != original) {
        errors[static_cast<std::size_t>(rank)] = "involution violated";
      }
    });
    for (const std::string& e : errors) EXPECT_EQ(e, "") << "n=" << n;
  }
}

TEST(IndexProperty, AllAlgorithmsProduceIdenticalOutput) {
  for (std::int64_t n : {4, 8, 16}) {
    const std::int64_t b = 5;
    std::vector<int> mismatches(static_cast<std::size_t>(n), 0);
    mps::run_spmd(n, 2, [&](mps::Communicator& comm) {
      const std::int64_t rank = comm.rank();
      std::vector<std::byte> send(static_cast<std::size_t>(n * b));
      coll::fill_index_send(send, n, rank, b, 5);
      std::vector<std::byte> a(send.size()), c(send.size()), d(send.size());
      int next = coll::alltoall(comm, send, a, b,
                                index_options(IndexAlgorithm::kBruck, 2));
      next = coll::alltoall(comm, send, c, b,
                            index_options(IndexAlgorithm::kDirect, 0, next));
      coll::alltoall(comm, send, d, b,
                     index_options(IndexAlgorithm::kPairwise, 0, next));
      if (a != c || a != d) mismatches[static_cast<std::size_t>(rank)] = 1;
    });
    for (int m : mismatches) EXPECT_EQ(m, 0) << "n=" << n;
  }
}

TEST(IndexBruck, RejectsBadRadix) {
  // kReference ignores the radix but still resolves it, so both paths
  // reject it.
  for (const coll::ExecutionPath path :
       {coll::ExecutionPath::kPipelined, coll::ExecutionPath::kReference}) {
    for (const std::int64_t radix : {1, 5}) {
      coll::AlltoallOptions options =
          index_options(IndexAlgorithm::kBruck, radix);
      options.path = path;
      EXPECT_THROW(
          run_index(4, 1, 4,
                    [&](mps::Communicator& comm,
                        std::span<const std::byte> send,
                        std::span<std::byte> recv) {
                      return coll::alltoall(comm, send, recv, 4, options);
                    }),
          ContractViolation)
          << coll::to_string(path) << " r=" << radix;
    }
  }
}

TEST(IndexBruck, StartRoundOffsetsTrace) {
  const testutil::CollRun run = run_index(
      4, 1, 2,
      [&](mps::Communicator& comm, std::span<const std::byte> send,
          std::span<std::byte> recv) {
        // Begin at round 3; the trace must still validate (rounds 0..2 would
        // be empty, so the algorithm must be the only round user).
        std::vector<std::byte> warm_out(1, std::byte{1});
        std::vector<std::byte> warm_in(1);
        const std::int64_t peer = comm.rank() ^ 1;
        comm.send_and_recv(0, warm_out, peer, warm_in, peer);
        comm.send_and_recv(1, warm_out, peer, warm_in, peer);
        comm.send_and_recv(2, warm_out, peer, warm_in, peer);
        return coll::alltoall(comm, send, recv, 2,
                              index_options(IndexAlgorithm::kBruck, 2, 3));
      });
  EXPECT_EQ(run.error, "");
  EXPECT_EQ(run.rounds_used, 3 + 2);  // 3 warm-up + ceil(log2 4) rounds
}

}  // namespace
}  // namespace bruck
