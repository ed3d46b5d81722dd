// Strided-datatype (coll::Layout) sweeps: every layout overload of the
// facade is bitwise-compared against the user-side staging oracle — pack
// the strided buffer with layout_gather, run the plain contiguous
// collective, unpack with layout_scatter.  The zero-copy extent walk must
// deliver the identical receive buffer, *including* untouched gap bytes
// (the sentinel check), on every execution path.  The digest tests pin the
// PlanCache policy: contiguous layouts key identically to plain calls, and
// stride jitter within one contiguity class shares one cached plan.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "coll/api.hpp"
#include "coll/layout.hpp"
#include "coll/plan_cache.hpp"
#include "mps/runtime.hpp"
#include "util/rng.hpp"

namespace bruck::coll {
namespace {

constexpr std::byte kGap{0xEE};

std::vector<std::byte> random_buffer(std::int64_t bytes, std::uint64_t seed) {
  std::vector<std::byte> out(static_cast<std::size_t>(bytes));
  fill_random_bytes(out, seed);
  return out;
}

/// Gather the `block`-th logical block of `src` (laid out by `layout`).
std::vector<std::byte> gather_block(std::span<const std::byte> src,
                                    const Layout& layout, std::int64_t block) {
  std::vector<std::byte> out(static_cast<std::size_t>(layout.block_bytes()));
  layout_gather(src, layout, block * layout.block_stride(), 0,
                layout.block_bytes(), out);
  return out;
}

/// One random vector layout; `cls` selects the degenerate corners the sweep
/// must cover: 0 = fully contiguous, 1 = single-element pieces with gaps,
/// else a general strided vector.
Layout random_vector_layout(SplitMix64& rng, int cls) {
  if (cls == 0) {
    const std::int64_t count = 1 + static_cast<std::int64_t>(rng.next_below(4));
    const std::int64_t blocklen =
        1 + static_cast<std::int64_t>(rng.next_below(12));
    return Layout::vector(count, blocklen, blocklen);  // dense == contiguous
  }
  if (cls == 1) {
    // Single-byte pieces: the worst-case extent map (every logical byte is
    // its own physical run).
    const std::int64_t count = 1 + static_cast<std::int64_t>(rng.next_below(6));
    const std::int64_t stride = 2 + static_cast<std::int64_t>(rng.next_below(5));
    return Layout::vector(count, 1, stride);
  }
  const std::int64_t count = 1 + static_cast<std::int64_t>(rng.next_below(4));
  const std::int64_t blocklen =
      1 + static_cast<std::int64_t>(rng.next_below(12));
  const std::int64_t stride =
      blocklen + static_cast<std::int64_t>(rng.next_below(13));
  return Layout::vector(count, blocklen, stride);
}

struct SweepResult {
  std::string error;
};

std::string compare(std::span<const std::byte> got,
                    std::span<const std::byte> want) {
  if (got.size() != want.size()) return "size mismatch";
  if (std::memcmp(got.data(), want.data(), got.size()) != 0) {
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i] != want[i]) {
        return "first mismatch at byte " + std::to_string(i);
      }
    }
  }
  return "";
}

TEST(LayoutDatatype, AlltoallRandomStridedSweep) {
  SplitMix64 rng(0x1A7007);
  // Three passes per trial, each with its own segments draw: the oracle,
  // then the plan executor twice (keeps the sweep's RNG stream intact).
  const ExecutionPath paths[] = {ExecutionPath::kReference,
                                 ExecutionPath::kPipelined,
                                 ExecutionPath::kPipelined};
  for (int trial = 0; trial < 14; ++trial) {
    const std::int64_t n = 1 + static_cast<std::int64_t>(rng.next_below(8));
    const int k = 1 + static_cast<int>(rng.next_below(3));
    // Force every contiguity class through the sweep (mixed
    // strided/contiguous pairs included); the recv side reshapes the same
    // logical byte count.
    const Layout sl = random_vector_layout(rng, trial % 4);
    const std::int64_t b = sl.block_bytes();
    const Layout rl = (b % 2 == 0 && trial % 2 == 0)
                          ? Layout::vector(2, b / 2, b / 2 + 3)
                          : Layout::vector(1, b, b).with_block_stride(b + 5);
    const std::uint64_t seed = rng.next();
    for (int pi = 0; pi < 3; ++pi) {
      AlltoallOptions options;
      options.path = paths[pi];
      options.segments = static_cast<int>(rng.next_below(3));
      SCOPED_TRACE("trial=" + std::to_string(trial) + " n=" + std::to_string(n) +
                   " k=" + std::to_string(k) + " path=" + std::to_string(pi) +
                   " sl=" + sl.describe() + " rl=" + rl.describe());
      std::vector<std::string> errors(static_cast<std::size_t>(n));
      mps::run_spmd(n, k, [&](mps::Communicator& comm) {
        const std::int64_t rank = comm.rank();
        std::vector<std::byte> send =
            random_buffer(sl.span_bytes(n), seed ^ static_cast<std::uint64_t>(rank));
        std::vector<std::byte> recv(
            static_cast<std::size_t>(rl.span_bytes(n)), kGap);
        alltoall(comm, send, recv, sl, rl, options);

        // Local oracle: every rank regenerates every peer's buffer and
        // stages the exchange by hand.  recv block j = peer j's block
        // `rank`, scattered through the recv layout; gap bytes stay kGap.
        std::vector<std::byte> expected(recv.size(), kGap);
        for (std::int64_t j = 0; j < n; ++j) {
          const std::vector<std::byte> peer = random_buffer(
              sl.span_bytes(n), seed ^ static_cast<std::uint64_t>(j));
          const std::vector<std::byte> block = gather_block(peer, sl, rank);
          layout_scatter(expected, rl, j * rl.block_stride(), 0, b, block);
        }
        errors[static_cast<std::size_t>(rank)] = compare(recv, expected);
      });
      for (const std::string& e : errors) ASSERT_EQ(e, "");
    }
  }
}

TEST(LayoutDatatype, AllgatherRandomStridedSweep) {
  SplitMix64 rng(0xA11);
  const ExecutionPath paths[] = {ExecutionPath::kReference,
                                 ExecutionPath::kPipelined,
                                 ExecutionPath::kPipelined};
  for (int trial = 0; trial < 10; ++trial) {
    const std::int64_t n = 1 + static_cast<std::int64_t>(rng.next_below(9));
    const int k = 1 + static_cast<int>(rng.next_below(3));
    const Layout sl = random_vector_layout(rng, trial % 3 == 0 ? 0 : 2);
    const std::int64_t b = sl.block_bytes();
    const Layout rl = Layout::vector(1, b, b).with_block_stride(b + 7);
    const std::uint64_t seed = rng.next();
    AllgatherOptions options;
    options.path = paths[trial % 3];
    SCOPED_TRACE("trial=" + std::to_string(trial) + " n=" + std::to_string(n) +
                 " sl=" + sl.describe());
    std::vector<std::string> errors(static_cast<std::size_t>(n));
    mps::run_spmd(n, k, [&](mps::Communicator& comm) {
      const std::int64_t rank = comm.rank();
      // Send is one block; recv holds n blocks through the recv layout.
      std::vector<std::byte> send = random_buffer(
          sl.span_bytes(1), seed ^ static_cast<std::uint64_t>(rank));
      std::vector<std::byte> recv(static_cast<std::size_t>(rl.span_bytes(n)),
                                  kGap);
      allgather(comm, send, recv, sl, rl, options);

      std::vector<std::byte> expected(recv.size(), kGap);
      for (std::int64_t j = 0; j < n; ++j) {
        const std::vector<std::byte> peer = random_buffer(
            sl.span_bytes(1), seed ^ static_cast<std::uint64_t>(j));
        const std::vector<std::byte> block = gather_block(peer, sl, 0);
        layout_scatter(expected, rl, j * rl.block_stride(), 0, b, block);
      }
      errors[static_cast<std::size_t>(rank)] = compare(recv, expected);
    });
    for (const std::string& e : errors) ASSERT_EQ(e, "");
  }
}

/// Element-aligned strided layout for the reduction overloads (piece
/// boundaries must fall on f64 edges).
Layout random_f64_layout(SplitMix64& rng) {
  const std::int64_t count = 1 + static_cast<std::int64_t>(rng.next_below(3));
  const std::int64_t blocklen =
      8 * (1 + static_cast<std::int64_t>(rng.next_below(3)));
  const std::int64_t stride =
      blocklen + 8 * static_cast<std::int64_t>(rng.next_below(3));
  return Layout::vector(count, blocklen, stride);
}

/// Fill as exact-integer doubles so every combine association order gives a
/// bitwise-identical sum.
std::vector<std::byte> random_f64_buffer(std::int64_t bytes,
                                         std::uint64_t seed) {
  std::vector<std::byte> out(static_cast<std::size_t>(bytes));
  SplitMix64 rng(seed);
  for (std::size_t i = 0; i + 8 <= out.size(); i += 8) {
    const double v = static_cast<double>(rng.next_below(1000));
    std::memcpy(out.data() + i, &v, 8);
  }
  return out;
}

void accumulate_f64(std::span<std::byte> acc, std::span<const std::byte> in) {
  for (std::size_t i = 0; i + 8 <= acc.size(); i += 8) {
    double a = 0, b = 0;
    std::memcpy(&a, acc.data() + i, 8);
    std::memcpy(&b, in.data() + i, 8);
    a += b;
    std::memcpy(acc.data() + i, &a, 8);
  }
}

TEST(LayoutDatatype, ReduceScatterStridedMatchesStagedOracle) {
  SplitMix64 rng(0x5EDU);
  const ExecutionPath paths[] = {ExecutionPath::kReference,
                                 ExecutionPath::kPipelined,
                                 ExecutionPath::kPipelined};
  for (int trial = 0; trial < 9; ++trial) {
    const std::int64_t n = 2 + static_cast<std::int64_t>(rng.next_below(7));
    const int k = 1 + static_cast<int>(rng.next_below(2));
    const Layout sl = random_f64_layout(rng);
    const std::int64_t b = sl.block_bytes();
    const Layout rl = Layout::vector(b / 8, 8, 16);
    const std::uint64_t seed = rng.next();
    ReduceScatterOptions options;
    options.path = paths[trial % 3];
    SCOPED_TRACE("trial=" + std::to_string(trial) + " n=" + std::to_string(n) +
                 " sl=" + sl.describe());
    const ReduceOp op = ReduceOp::sum(ReduceElem::kF64);
    std::vector<std::string> errors(static_cast<std::size_t>(n));
    mps::run_spmd(n, k, [&](mps::Communicator& comm) {
      const std::int64_t rank = comm.rank();
      std::vector<std::byte> send = random_f64_buffer(
          sl.span_bytes(n), seed ^ static_cast<std::uint64_t>(rank));
      std::vector<std::byte> recv(static_cast<std::size_t>(rl.span_bytes(1)),
                                  kGap);
      reduce_scatter(comm, send, recv, sl, rl, op, options);

      // recv block = Σ over ranks of their contribution to this rank.
      std::vector<std::byte> acc(static_cast<std::size_t>(b), std::byte{0});
      for (std::int64_t j = 0; j < n; ++j) {
        const std::vector<std::byte> peer = random_f64_buffer(
            sl.span_bytes(n), seed ^ static_cast<std::uint64_t>(j));
        accumulate_f64(acc, gather_block(peer, sl, rank));
      }
      std::vector<std::byte> expected(recv.size(), kGap);
      layout_scatter(expected, rl, 0, 0, b, acc);
      errors[static_cast<std::size_t>(rank)] = compare(recv, expected);
    });
    for (const std::string& e : errors) ASSERT_EQ(e, "");
  }
}

TEST(LayoutDatatype, AllreduceStridedMatchesStagedOracle) {
  SplitMix64 rng(0xA11D);
  const ExecutionPath paths[] = {ExecutionPath::kReference,
                                 ExecutionPath::kPipelined,
                                 ExecutionPath::kPipelined};
  for (int trial = 0; trial < 6; ++trial) {
    const std::int64_t n = 2 + static_cast<std::int64_t>(rng.next_below(6));
    const Layout sl = random_f64_layout(rng);
    const std::int64_t bytes = sl.block_bytes();
    const Layout rl = Layout::vector(bytes / 8, 8, 24);
    const std::uint64_t seed = rng.next();
    AllreduceOptions options;
    options.path = paths[trial % 3];
    SCOPED_TRACE("trial=" + std::to_string(trial) + " n=" + std::to_string(n) +
                 " sl=" + sl.describe());
    const ReduceOp op = ReduceOp::sum(ReduceElem::kF64);
    std::vector<std::string> errors(static_cast<std::size_t>(n));
    mps::run_spmd(n, 1, [&](mps::Communicator& comm) {
      const std::int64_t rank = comm.rank();
      // The whole allreduce payload is one layout block on each side.
      std::vector<std::byte> send = random_f64_buffer(
          sl.span_bytes(1), seed ^ static_cast<std::uint64_t>(rank));
      std::vector<std::byte> recv(static_cast<std::size_t>(rl.span_bytes(1)),
                                  kGap);
      allreduce(comm, send, recv, sl, rl, op, options);

      std::vector<std::byte> acc(static_cast<std::size_t>(bytes),
                                 std::byte{0});
      for (std::int64_t j = 0; j < n; ++j) {
        const std::vector<std::byte> peer = random_f64_buffer(
            sl.span_bytes(1), seed ^ static_cast<std::uint64_t>(j));
        accumulate_f64(acc, gather_block(peer, sl, 0));
      }
      std::vector<std::byte> expected(recv.size(), kGap);
      layout_scatter(expected, rl, 0, 0, bytes, acc);
      errors[static_cast<std::size_t>(rank)] = compare(recv, expected);
    });
    for (const std::string& e : errors) ASSERT_EQ(e, "");
  }
}

TEST(LayoutDatatype, AlltoallvStridedCanonicalDispls) {
  SplitMix64 rng(0xA2A5);
  const ExecutionPath paths[] = {ExecutionPath::kReference,
                                 ExecutionPath::kPipelined,
                                 ExecutionPath::kPipelined};
  for (int trial = 0; trial < 6; ++trial) {
    const std::int64_t n = 2 + static_cast<std::int64_t>(rng.next_below(6));
    const int k = 1 + static_cast<int>(rng.next_below(2));
    const Layout sl = Layout::vector(
        2 + static_cast<std::int64_t>(rng.next_below(3)),
        2 + static_cast<std::int64_t>(rng.next_below(6)),
        9 + static_cast<std::int64_t>(rng.next_below(6)));
    const Layout rl = Layout::vector(sl.block_bytes(), 1, 2);
    const std::int64_t b = sl.block_bytes();
    // Random pair counts in [0, b], some empty.
    std::vector<std::int64_t> counts(static_cast<std::size_t>(n * n));
    for (auto& c : counts) {
      c = static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(b) + 1));
      if (rng.next_below(4) == 0) c = 0;
    }
    const std::uint64_t seed = rng.next();
    AlltoallvOptions options;
    options.path = paths[trial % 3];
    SCOPED_TRACE("trial=" + std::to_string(trial) + " n=" + std::to_string(n));
    std::vector<std::string> errors(static_cast<std::size_t>(n));
    mps::run_spmd(n, k, [&](mps::Communicator& comm) {
      const std::int64_t rank = comm.rank();
      std::vector<std::byte> send = random_buffer(
          sl.span_bytes(n), seed ^ static_cast<std::uint64_t>(rank));
      std::vector<std::byte> recv(static_cast<std::size_t>(rl.span_bytes(n)),
                                  kGap);
      // Empty displacements: the packed canonical layout in layout space
      // (consecutive pairs span_of() apart).
      alltoallv(comm, send, recv, counts, {}, {}, sl, rl, options);

      std::vector<std::byte> expected(recv.size(), kGap);
      std::int64_t rd = 0;
      for (std::int64_t j = 0; j < n; ++j) {
        const std::int64_t c = counts[static_cast<std::size_t>(j * n + rank)];
        // Peer j's send displacement for its pair (j → rank).
        std::int64_t sd = 0;
        for (std::int64_t m = 0; m < rank; ++m) {
          sd += sl.span_of(counts[static_cast<std::size_t>(j * n + m)]);
        }
        const std::vector<std::byte> peer = random_buffer(
            sl.span_bytes(n), seed ^ static_cast<std::uint64_t>(j));
        std::vector<std::byte> pair(static_cast<std::size_t>(c));
        layout_gather(peer, sl, sd, 0, c, pair);
        layout_scatter(expected, rl, rd, 0, c, pair);
        rd += rl.span_of(c);
      }
      errors[static_cast<std::size_t>(rank)] = compare(recv, expected);
    });
    for (const std::string& e : errors) ASSERT_EQ(e, "");
  }
}

TEST(LayoutDatatype, TiledAndInterleavedBlockStride) {
  // The two exotic corners in one: a 2-D tiled send layout, and a
  // transpose-style send layout whose blocks interleave (block_stride <
  // block_span), each against a contiguous receive side.
  const std::int64_t n = 6;
  const Layout tiled = Layout::tiled(/*tiles=*/2, /*tile_stride=*/20,
                                     /*count=*/2, /*blocklen=*/4,
                                     /*stride=*/8);
  // Column-of-a-matrix: 3 rows of 8 bytes, row pitch n*8, consecutive
  // columns 8 bytes apart.
  const Layout column =
      Layout::vector(3, 8, n * 8).with_block_stride(8);
  for (const Layout& sl : {tiled, column}) {
    const std::int64_t b = sl.block_bytes();
    const Layout rl = Layout::contiguous(b);
    for (const ExecutionPath path :
         {ExecutionPath::kReference, ExecutionPath::kPipelined}) {
      AlltoallOptions options;
      options.path = path;
      SCOPED_TRACE(sl.describe() + " path=" +
                   std::to_string(static_cast<int>(path)));
      std::vector<std::string> errors(static_cast<std::size_t>(n));
      mps::run_spmd(n, 2, [&](mps::Communicator& comm) {
        const std::int64_t rank = comm.rank();
        std::vector<std::byte> send = random_buffer(
            sl.span_bytes(n), 99 ^ static_cast<std::uint64_t>(rank));
        std::vector<std::byte> recv(static_cast<std::size_t>(n * b), kGap);
        alltoall(comm, send, recv, sl, rl, options);

        std::vector<std::byte> expected(recv.size(), kGap);
        for (std::int64_t j = 0; j < n; ++j) {
          const std::vector<std::byte> peer = random_buffer(
              sl.span_bytes(n), 99 ^ static_cast<std::uint64_t>(j));
          const std::vector<std::byte> block = gather_block(peer, sl, rank);
          std::memcpy(expected.data() + j * b, block.data(),
                      static_cast<std::size_t>(b));
        }
        errors[static_cast<std::size_t>(rank)] = compare(recv, expected);
      });
      for (const std::string& e : errors) ASSERT_EQ(e, "");
    }
  }
}

TEST(LayoutDigest, ContiguousLayoutsKeyIdenticallyToPlainCalls) {
  PlanCache::global().clear();
  const std::int64_t n = 6;
  const std::int64_t b = 24;
  AlltoallOptions options;
  const auto run_plain = [&] {
    mps::run_spmd(n, 1, [&](mps::Communicator& comm) {
      std::vector<std::byte> send(static_cast<std::size_t>(n * b));
      std::vector<std::byte> recv(send.size());
      fill_random_bytes(send, 7);
      alltoall(comm, send, recv, b, options);
    });
  };
  run_plain();
  const PlanCacheStats plain = PlanCache::global().stats();
  EXPECT_EQ(plain.misses, 1u);

  // Explicitly-contiguous layouts (both spellings) must hit the same entry:
  // no cache blow-up from layout adoption.
  for (const Layout& lay :
       {Layout::contiguous(b), Layout::vector(3, 8, 8)}) {
    mps::run_spmd(n, 1, [&](mps::Communicator& comm) {
      std::vector<std::byte> send(static_cast<std::size_t>(n * b));
      std::vector<std::byte> recv(send.size());
      fill_random_bytes(send, 8);
      alltoall(comm, send, recv, lay, lay, options);
    });
  }
  const PlanCacheStats after = PlanCache::global().stats();
  EXPECT_EQ(after.entries, plain.entries);
  EXPECT_EQ(after.misses, plain.misses);
  EXPECT_GT(after.hits, plain.hits);
}

TEST(LayoutDigest, StrideJitterSharesOnePlanAcrossCalls) {
  PlanCache::global().clear();
  const std::int64_t n = 6;
  AlltoallOptions options;
  const auto run_with = [&](const Layout& sl) {
    const std::int64_t b = sl.block_bytes();
    const Layout rl = Layout::vector(1, b, b).with_block_stride(b + 3);
    mps::run_spmd(n, 1, [&](mps::Communicator& comm) {
      std::vector<std::byte> send(
          static_cast<std::size_t>(sl.span_bytes(n)));
      std::vector<std::byte> recv(
          static_cast<std::size_t>(rl.span_bytes(n)));
      fill_random_bytes(send, 11);
      alltoall(comm, send, recv, sl, rl, options);
    });
  };
  run_with(Layout::vector(4, 8, 24));
  const PlanCacheStats first = PlanCache::global().stats();
  EXPECT_EQ(first.misses, 1u);
  EXPECT_EQ(first.entries, 1u);

  // Stride jitter within the contiguity class (same count/blocklen log2
  // buckets, different physical strides) must hit the cached plan.
  run_with(Layout::vector(4, 8, 32));
  run_with(Layout::vector(4, 8, 40));
  const PlanCacheStats jittered = PlanCache::global().stats();
  EXPECT_EQ(jittered.entries, 1u);
  EXPECT_EQ(jittered.misses, 1u);

  // A different contiguity class (different count bucket) is a new key.
  run_with(Layout::vector(32, 8, 24));
  const PlanCacheStats other = PlanCache::global().stats();
  EXPECT_EQ(other.entries, 2u);
  EXPECT_EQ(other.misses, 2u);
}

}  // namespace
}  // namespace bruck::coll
