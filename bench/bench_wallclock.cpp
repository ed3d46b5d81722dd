// Wall-clock microbenchmarks of the threaded substrate (google-benchmark):
// real elapsed time of the collectives with ranks as OS threads.  These are
// NOT the paper's figures (the substrate is a simulator, not an SP-1) —
// they sanity-check that the C1/C2 ordering predicted by the model shows up
// in real time on a real machine: radix-tuned Bruck beats both extremes for
// mid-sized blocks, and Bruck allgather beats ring and folklore.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <vector>

#include "coll/api.hpp"
#include "coll/layout.hpp"
#include "coll/reduction.hpp"
#include "coll/progress.hpp"
#include "coll/request.hpp"
#include "coll/verify.hpp"
#include "model/tuner.hpp"
#include "mps/runtime.hpp"

namespace {

void run_index(std::int64_t n, std::int64_t b, std::int64_t radix) {
  bruck::mps::FabricOptions options;
  options.n = n;
  options.k = 1;
  options.record_trace = false;
  bruck::mps::run_spmd(options, [&](bruck::mps::Communicator& comm) {
    std::vector<std::byte> send(static_cast<std::size_t>(n * b), std::byte{1});
    std::vector<std::byte> recv(send.size());
    bruck::coll::AlltoallOptions index;
    index.algorithm = bruck::coll::IndexAlgorithm::kBruck;
    index.radix = radix;
    index.hier = bruck::coll::HierMode::kOff;
    bruck::coll::alltoall(comm, send, recv, b, index);
  });
}

void BM_IndexBruck(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const std::int64_t b = state.range(1);
  const std::int64_t radix = state.range(2);
  for (auto _ : state) {
    run_index(n, b, radix);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          (n - 1) * b);
  state.counters["rounds"] = static_cast<double>(
      bruck::model::index_bruck_cost(n, radix, 1, b).c1);
}

void BM_AllgatherAlgorithms(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const std::int64_t b = state.range(1);
  const auto algorithm =
      static_cast<bruck::coll::ConcatAlgorithm>(state.range(2));
  bruck::coll::AllgatherOptions options;
  options.algorithm = algorithm;
  for (auto _ : state) {
    bruck::mps::FabricOptions fabric;
    fabric.n = n;
    fabric.k = 1;
    fabric.record_trace = false;
    bruck::mps::run_spmd(fabric, [&](bruck::mps::Communicator& comm) {
      std::vector<std::byte> send(static_cast<std::size_t>(b), std::byte{1});
      std::vector<std::byte> recv(static_cast<std::size_t>(n * b));
      bruck::coll::allgather(comm, send, recv, b, options);
    });
  }
  state.SetLabel(bruck::coll::to_string(algorithm));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          (n - 1) * b);
}

// Plan executor at large block sizes, where pack/wire/unpack overlap and
// wire segmentation pay off: unsegmented vs segmented messages.
// range = {block bytes, segments}.
void BM_AlltoallExecutor(benchmark::State& state) {
  const std::int64_t n = 8;
  const std::int64_t b = state.range(0);
  const int segments = static_cast<int>(state.range(1));
  bruck::coll::AlltoallOptions options;
  options.algorithm = bruck::coll::IndexAlgorithm::kBruck;
  options.radix = 2;
  options.segments = segments;
  for (auto _ : state) {
    bruck::mps::FabricOptions fabric;
    fabric.n = n;
    fabric.k = 2;
    fabric.record_trace = false;
    bruck::mps::run_spmd(fabric, [&](bruck::mps::Communicator& comm) {
      std::vector<std::byte> send(static_cast<std::size_t>(n * b),
                                  std::byte{1});
      std::vector<std::byte> recv(send.size());
      bruck::coll::alltoall(comm, send, recv, b, options);
    });
  }
  state.SetLabel("S=" + std::to_string(segments));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          (n - 1) * b);
}

void BM_AllgatherExecutor(benchmark::State& state) {
  const std::int64_t n = 8;
  const std::int64_t b = state.range(0);
  const int segments = static_cast<int>(state.range(1));
  bruck::coll::AllgatherOptions options;
  options.algorithm = bruck::coll::ConcatAlgorithm::kBruck;
  options.segments = segments;
  for (auto _ : state) {
    bruck::mps::FabricOptions fabric;
    fabric.n = n;
    fabric.k = 2;
    fabric.record_trace = false;
    bruck::mps::run_spmd(fabric, [&](bruck::mps::Communicator& comm) {
      std::vector<std::byte> send(static_cast<std::size_t>(b), std::byte{1});
      std::vector<std::byte> recv(static_cast<std::size_t>(n * b));
      bruck::coll::allgather(comm, send, recv, b, options);
    });
  }
  state.SetLabel("S=" + std::to_string(segments));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          (n - 1) * b);
}

// Reduction executor: the reduce-scatter plan with its combine fused into
// the out-of-order completion path, unsegmented vs segmented.
// range = {block bytes, segments}.
void BM_ReduceScatterExecutor(benchmark::State& state) {
  const std::int64_t n = 8;
  const std::int64_t b = state.range(0);
  const int segments = static_cast<int>(state.range(1));
  const bruck::coll::ReduceOp op =
      bruck::coll::ReduceOp::sum(bruck::coll::ReduceElem::kF64);
  bruck::coll::ReduceScatterOptions options;
  options.algorithm = bruck::coll::ReduceAlgorithm::kBruck;
  options.radix = 2;
  options.segments = segments;
  for (auto _ : state) {
    bruck::mps::FabricOptions fabric;
    fabric.n = n;
    fabric.k = 2;
    fabric.record_trace = false;
    bruck::mps::run_spmd(fabric, [&](bruck::mps::Communicator& comm) {
      std::vector<std::byte> send(static_cast<std::size_t>(n * b),
                                  std::byte{1});
      std::vector<std::byte> recv(static_cast<std::size_t>(b));
      bruck::coll::reduce_scatter(comm, send, recv, b, op, options);
    });
  }
  state.SetLabel("S=" + std::to_string(segments));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          (n - 1) * b);
}

// Allreduce: the fused pipelined path (reduce-scatter with combine-on-
// receive + allgather) vs the naive gather-then-reduce baseline that ships
// n full vectors and combines locally.  range = {vector bytes, fused}.
void BM_AllreduceFusedVsGatherReduce(benchmark::State& state) {
  const std::int64_t n = 8;
  const std::int64_t bytes = state.range(0);
  const bool fused = state.range(1) != 0;
  const bruck::coll::ReduceOp op =
      bruck::coll::ReduceOp::sum(bruck::coll::ReduceElem::kF64);
  for (auto _ : state) {
    bruck::mps::FabricOptions fabric;
    fabric.n = n;
    fabric.k = 2;
    fabric.record_trace = false;
    bruck::mps::run_spmd(fabric, [&](bruck::mps::Communicator& comm) {
      std::vector<std::byte> send(static_cast<std::size_t>(bytes),
                                  std::byte{1});
      std::vector<std::byte> recv(static_cast<std::size_t>(bytes));
      if (fused) {
        bruck::coll::AllreduceOptions options;
        options.path = bruck::coll::ExecutionPath::kPipelined;
        bruck::coll::allreduce(comm, send, recv, op, options);
      } else {
        // Gather-then-reduce: allgather every full vector, reduce locally.
        std::vector<std::byte> all(static_cast<std::size_t>(n * bytes));
        bruck::coll::AllgatherOptions options;
        options.path = bruck::coll::ExecutionPath::kPipelined;
        bruck::coll::allgather(comm, send, all, bytes, options);
        std::memcpy(recv.data(), all.data(),
                    static_cast<std::size_t>(bytes));
        for (std::int64_t i = 1; i < n; ++i) {
          op.combine(recv.data(), all.data() + i * bytes, bytes);
        }
      }
    });
  }
  state.SetLabel(fused ? "fused" : "gather-then-reduce");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          (n - 1) * bytes);
}

// Multi-tenancy: G same-geometry alltoalls issued together.  "serial" runs
// G blocking calls back to back; "batched" submits G nonblocking requests
// and lets the progress engine fuse them into one wire exchange over G·b
// blocks (one β per message instead of G).  k = 1 so the start-up term
// dominates — the regime where model::pick_fusion chooses to batch.
//
// Timing is manual and barrier-bracketed inside the rank body: both paths
// pay identical fabric spawn/join costs, which would otherwise dilute the
// ratio without distinguishing them.  Each iteration runs kReps batches in
// one fabric so plan caches and tag namespaces are warm, and reports the
// mean per-batch wall time from rank 0.
// range = {block bytes, G, batched}.
void BM_ConcurrentAlltoall(benchmark::State& state) {
  const std::int64_t n = 8;
  const std::int64_t b = state.range(0);
  const int G = static_cast<int>(state.range(1));
  const bool batched = state.range(2) != 0;

  // One-shot correctness gate (outside the timed loop): the batched
  // payloads must be bitwise-identical to the kReference oracle's.
  double fused_groups = 0.0;
  {
    std::atomic<bool> ok{true};
    std::atomic<std::uint64_t> groups{0};
    bruck::mps::FabricOptions fabric;
    fabric.n = n;
    fabric.k = 1;
    fabric.record_trace = false;
    bruck::mps::run_spmd(fabric, [&](bruck::mps::Communicator& comm) {
      const std::int64_t rank = comm.rank();
      std::vector<std::vector<std::byte>> send(static_cast<std::size_t>(G));
      std::vector<std::vector<std::byte>> recv(static_cast<std::size_t>(G));
      std::vector<bruck::coll::Request> reqs;
      for (int g = 0; g < G; ++g) {
        send[static_cast<std::size_t>(g)].resize(
            static_cast<std::size_t>(n * b));
        recv[static_cast<std::size_t>(g)].resize(
            static_cast<std::size_t>(n * b));
        bruck::coll::fill_index_send(send[static_cast<std::size_t>(g)], n,
                                     rank, b,
                                     900 + static_cast<std::uint64_t>(g));
        reqs.push_back(bruck::coll::ialltoall(
            comm, send[static_cast<std::size_t>(g)],
            recv[static_cast<std::size_t>(g)], b));
      }
      bruck::coll::wait_all(reqs);
      groups.store(
          bruck::coll::ProgressEngine::for_comm(comm).stats().fused_groups);
      std::vector<std::byte> oracle(static_cast<std::size_t>(n * b));
      bruck::coll::AlltoallOptions reference;
      reference.path = bruck::coll::ExecutionPath::kReference;
      for (int g = 0; g < G; ++g) {
        reference.start_round =
            bruck::coll::alltoall(comm, send[static_cast<std::size_t>(g)],
                                  oracle, b, reference);
        if (oracle != recv[static_cast<std::size_t>(g)]) ok.store(false);
      }
    });
    if (!ok.load()) {
      state.SkipWithError("batched payloads diverge from the oracle");
      return;
    }
    fused_groups = static_cast<double>(groups.load());
  }

  constexpr int kReps = 8;
  for (auto _ : state) {
    std::atomic<double> wall_seconds{0.0};
    bruck::mps::FabricOptions fabric;
    fabric.n = n;
    fabric.k = 1;
    fabric.record_trace = false;
    bruck::mps::run_spmd(fabric, [&](bruck::mps::Communicator& comm) {
      std::vector<std::vector<std::byte>> send(static_cast<std::size_t>(G));
      std::vector<std::vector<std::byte>> recv(static_cast<std::size_t>(G));
      for (int g = 0; g < G; ++g) {
        send[static_cast<std::size_t>(g)].assign(
            static_cast<std::size_t>(n * b), std::byte{1});
        recv[static_cast<std::size_t>(g)].resize(
            static_cast<std::size_t>(n * b));
      }
      comm.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      bruck::coll::AlltoallOptions options;
      for (int rep = 0; rep < kReps; ++rep) {
        if (batched) {
          std::vector<bruck::coll::Request> reqs;
          for (int g = 0; g < G; ++g) {
            reqs.push_back(bruck::coll::ialltoall(
                comm, send[static_cast<std::size_t>(g)],
                recv[static_cast<std::size_t>(g)], b));
          }
          bruck::coll::wait_all(reqs);
        } else {
          for (int g = 0; g < G; ++g) {
            options.start_round = bruck::coll::alltoall(
                comm, send[static_cast<std::size_t>(g)],
                recv[static_cast<std::size_t>(g)], b, options);
          }
        }
      }
      comm.barrier();
      const auto t1 = std::chrono::steady_clock::now();
      if (comm.rank() == 0) {
        wall_seconds.store(std::chrono::duration<double>(t1 - t0).count() /
                           kReps);
      }
    });
    state.SetIterationTime(wall_seconds.load());
  }
  state.SetLabel(batched ? "batched" : "serial");
  state.counters["fused_groups"] = fused_groups;
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * G *
                          n * (n - 1) * b);
}

// Strided datatypes on the hot path: the distributed-transpose geometry
// (an n_dim×n_dim f64 matrix row-block distributed over n = 8 ranks, send
// and receive sides both column-sliced) exchanged either zero-copy through
// `coll::Layout` pack/unpack maps or via the user-side staging idiom the
// layouts replace (gather into a packed buffer, contiguous alltoall,
// scatter back out).  Wire traffic is identical; the difference is purely
// the two local copies of every byte.  range = {n_dim, staged}.
void BM_StridedAlltoall(benchmark::State& state) {
  const std::int64_t n = 8;
  const std::int64_t n_dim = state.range(0);
  const bool staged = state.range(1) != 0;
  const std::int64_t rows = n_dim / n;
  const std::int64_t kD = static_cast<std::int64_t>(sizeof(double));
  const std::int64_t tile_bytes = rows * rows * kD;
  const std::int64_t slab_bytes = rows * n_dim * kD;
  const bruck::coll::Layout lay =
      bruck::coll::Layout::vector(rows, rows * kD, n_dim * kD)
          .with_block_stride(rows * kD);
  bruck::coll::AlltoallOptions options;
  options.algorithm = bruck::coll::IndexAlgorithm::kBruck;
  options.radix = 2;
  for (auto _ : state) {
    bruck::mps::FabricOptions fabric;
    fabric.n = n;
    fabric.k = 2;
    fabric.record_trace = false;
    bruck::mps::run_spmd(fabric, [&](bruck::mps::Communicator& comm) {
      std::vector<std::byte> send(static_cast<std::size_t>(slab_bytes),
                                  std::byte{1});
      std::vector<std::byte> recv(send.size());
      if (staged) {
        bruck::coll::alltoall_staged(comm, send, recv, lay, lay, options);
      } else {
        bruck::coll::alltoall(comm, send, recv, lay, lay, options);
      }
    });
  }
  state.SetLabel(staged ? "staged" : "zero-copy");
  state.counters["per_rank_bytes"] = static_cast<double>(slab_bytes);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          (n - 1) * tile_bytes);
}

// Combine kernels: the typed vectorizable loops (kAlignedVector dispatch)
// vs the preserved pre-SIMD per-element memcpy round trip
// (combine_elementwise_reference) on contiguous f32/f64 sums.
// range = {bytes, elem (0 = f32, 1 = f64), reference}.
// Hierarchical leader model (the CI hier CSV artifact): the same alltoall
// geometry flat vs forced two-level at several group sizes.  The threaded
// substrate's links are uniform, so wall-clock favors flat here; the
// counters carry the skewed-machine (shm-like intra over socket-like
// inter) model prediction next to the measured time, so the CSV shows
// both sides of the tuner's trade.  range = {b, group (0 = flat)}.
void BM_HierAlltoall(benchmark::State& state) {
  const std::int64_t n = 8;
  const std::int64_t b = state.range(0);
  const std::int64_t group = state.range(1);
  bruck::coll::AlltoallOptions options;
  options.hier =
      group > 0 ? bruck::coll::HierMode::kOn : bruck::coll::HierMode::kOff;
  options.hier_group = group;
  for (auto _ : state) {
    bruck::mps::FabricOptions fabric;
    fabric.n = n;
    fabric.k = 2;
    fabric.record_trace = false;
    bruck::mps::run_spmd(fabric, [&](bruck::mps::Communicator& comm) {
      std::vector<std::byte> send(static_cast<std::size_t>(n * b),
                                  std::byte{1});
      std::vector<std::byte> recv(send.size());
      bruck::coll::alltoall(comm, send, recv, b, options);
    });
  }
  state.SetLabel(group > 0 ? "hier/g=" + std::to_string(group) : "flat");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          (n - 1) * b);
  const bruck::model::HierChoice skewed = bruck::model::pick_index_plan(
      n, 2, b, bruck::model::shm_socket_two_level(),
      bruck::model::RadixSet::kAll, group);
  state.counters["model_flat_us"] = skewed.flat_us;
  state.counters["model_hier_us"] = skewed.hier_us;
}

void BM_CombineKernels(benchmark::State& state) {
  const std::int64_t bytes = state.range(0);
  const bruck::coll::ReduceElem elem = state.range(1) == 0
                                           ? bruck::coll::ReduceElem::kF32
                                           : bruck::coll::ReduceElem::kF64;
  const bool reference = state.range(2) != 0;
  const bruck::coll::ReduceOp op = bruck::coll::ReduceOp::sum(elem);
  std::vector<std::byte> acc(static_cast<std::size_t>(bytes), std::byte{1});
  std::vector<std::byte> in(acc.size(), std::byte{2});
  for (auto _ : state) {
    if (reference) {
      bruck::coll::combine_elementwise_reference(op, acc.data(), in.data(),
                                                 bytes);
    } else {
      op.combine(acc.data(), in.data(), bytes);
    }
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::string(op.name()) +
                 (reference ? "/reference" : "/simd"));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          bytes);
}

}  // namespace

// Multi-tenancy (the CI multi-tenant CSV artifact): batched vs serial
// same-geometry 4 KiB alltoalls (each rank's send buffer is n·b = 4 KiB,
// b = 512 across n = 8) at k = 1 — the small-message regime batching
// targets.  The 4096-block rows sit past the BRUCK_FUSE_MAX_BLOCK cap and
// pin the serial-fallback overhead of routing through the engine instead.
BENCHMARK(BM_ConcurrentAlltoall)
    ->Args({512, 4, 0})
    ->Args({512, 4, 1})
    ->Args({512, 8, 0})
    ->Args({512, 8, 1})
    ->Args({4096, 4, 0})
    ->Args({4096, 4, 1})
    ->Unit(benchmark::kMicrosecond)
    ->UseManualTime()
    ->MinWarmUpTime(0.05)
    ->MinTime(0.25);

// Datatype family (the CI datatype CSV artifact): zero-copy strided
// layouts vs user-side staging on the transpose geometry (n_dim = 512 is
// the acceptance point — 256 KiB per rank), and the SIMD combine kernels
// vs the pre-SIMD reference loop at 64 KiB and 256 KiB.
BENCHMARK(BM_StridedAlltoall)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({512, 0})
    ->Args({512, 1})
    ->Unit(benchmark::kMicrosecond)
    ->MinWarmUpTime(0.05)
    ->MinTime(0.25);

BENCHMARK(BM_CombineKernels)
    ->Args({1 << 16, 0, 0})
    ->Args({1 << 16, 0, 1})
    ->Args({1 << 16, 1, 0})
    ->Args({1 << 16, 1, 1})
    ->Args({1 << 18, 1, 0})
    ->Args({1 << 18, 1, 1})
    ->MinWarmUpTime(0.05)
    ->MinTime(0.25);

// Hierarchical family (the CI hier CSV artifact): flat vs leader-model at
// skewed intra/inter model costs, small and large blocks.
BENCHMARK(BM_HierAlltoall)
    ->Args({512, 0})
    ->Args({512, 2})
    ->Args({512, 4})
    ->Args({1 << 16, 0})
    ->Args({1 << 16, 4})
    ->Unit(benchmark::kMicrosecond)
    ->MinWarmUpTime(0.05)
    ->MinTime(0.25);

// Reduction family (the CI reduction CSV artifact).
BENCHMARK(BM_ReduceScatterExecutor)
    ->Args({1 << 16, 1})
    ->Args({1 << 16, 8})
    ->Args({1 << 18, 1})
    ->Args({1 << 18, 8})
    ->Unit(benchmark::kMicrosecond)
    ->MinWarmUpTime(0.05)
    ->MinTime(0.25);

BENCHMARK(BM_AllreduceFusedVsGatherReduce)
    ->Args({1 << 16, 1})
    ->Args({1 << 16, 0})
    ->Args({1 << 18, 1})
    ->Args({1 << 18, 0})
    ->Unit(benchmark::kMicrosecond)
    ->MinWarmUpTime(0.05)
    ->MinTime(0.25);

// Plan executor, segmented large blocks (the CI executor CSV artifact).
BENCHMARK(BM_AlltoallExecutor)
    ->Args({1 << 16, 1})
    ->Args({1 << 16, 8})
    ->Args({1 << 18, 1})
    ->Args({1 << 18, 8})
    ->Unit(benchmark::kMicrosecond)
    ->MinWarmUpTime(0.05)
    ->MinTime(0.25);

BENCHMARK(BM_AllgatherExecutor)
    ->Args({1 << 16, 1})
    ->Args({1 << 16, 8})
    ->Unit(benchmark::kMicrosecond)
    ->MinWarmUpTime(0.05)
    ->MinTime(0.25);

// Index: the radix trade-off in wall-clock at n = 8 and n = 16 ranks.
BENCHMARK(BM_IndexBruck)
    ->Args({8, 64, 2})
    ->Args({8, 64, 8})
    ->Args({8, 65536, 2})
    ->Args({8, 65536, 8})
    ->Args({16, 4096, 2})
    ->Args({16, 4096, 4})
    ->Args({16, 4096, 16})
    ->Unit(benchmark::kMicrosecond)
    ->MinWarmUpTime(0.05)
    ->MinTime(0.25);

// Allgather: algorithm comparison at n = 16 ranks.
BENCHMARK(BM_AllgatherAlgorithms)
    ->Args({16, 4096, static_cast<std::int64_t>(bruck::coll::ConcatAlgorithm::kBruck)})
    ->Args({16, 4096, static_cast<std::int64_t>(bruck::coll::ConcatAlgorithm::kFolklore)})
    ->Args({16, 4096, static_cast<std::int64_t>(bruck::coll::ConcatAlgorithm::kRing)})
    ->Args({16, 64, static_cast<std::int64_t>(bruck::coll::ConcatAlgorithm::kBruck)})
    ->Args({16, 64, static_cast<std::int64_t>(bruck::coll::ConcatAlgorithm::kRing)})
    ->Unit(benchmark::kMicrosecond)
    ->MinWarmUpTime(0.05)
    ->MinTime(0.25);

BENCHMARK_MAIN();
