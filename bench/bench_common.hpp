// Shared plumbing for the figure/table benches: run an index or concat
// configuration on the threaded substrate at the paper's scale (n = 64)
// through the coll:: facade (algorithm forced, flat, so the plan executor
// runs exactly that algorithm), return the *measured* trace metrics, and
// cross-check them against the closed-form costs so a bench can never
// silently report formula values that the implementation does not achieve.
#pragma once

#include <cstdint>
#include <iostream>
#include <span>
#include <vector>

#include "coll/api.hpp"
#include "coll/verify.hpp"
#include "model/costs.hpp"
#include "mps/runtime.hpp"
#include "util/assert.hpp"

namespace bruck::bench {

/// Payload-check every rank, then require the measured metrics to equal
/// the closed form; returns them.
inline model::CostMetrics ensure_measured(
    const std::vector<std::string>& errors, const mps::RunResult& rr,
    const model::CostMetrics& closed) {
  for (const std::string& e : errors) {
    BRUCK_ENSURE_MSG(e.empty(), "bench payload verification failed: " + e);
  }
  const model::CostMetrics measured = rr.trace->metrics();
  BRUCK_ENSURE_MSG(measured == closed,
                   "measured metrics diverged from the closed form");
  return measured;
}

/// Run one concatenation algorithm on n ranks, k ports; verify and check
/// it against `closed`.
inline model::CostMetrics measure_concat(std::int64_t n, int k,
                                         std::int64_t block_bytes,
                                         const coll::AllgatherOptions& options,
                                         const model::CostMetrics& closed) {
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  mps::RunResult rr = mps::run_spmd(n, k, [&](mps::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    std::vector<std::byte> send(static_cast<std::size_t>(block_bytes));
    std::vector<std::byte> recv(static_cast<std::size_t>(n * block_bytes));
    coll::fill_concat_send(send, rank, block_bytes, 7);
    coll::allgather(comm, send, recv, block_bytes, options);
    errors[static_cast<std::size_t>(rank)] =
        coll::check_concat_recv(recv, n, block_bytes, 7);
  });
  return ensure_measured(errors, rr, closed);
}

/// Facade options that force `algorithm`, flat.
inline coll::AllgatherOptions concat_forced(
    coll::ConcatAlgorithm algorithm,
    model::ConcatLastRound strategy = model::ConcatLastRound::kAuto) {
  coll::AllgatherOptions options;
  options.algorithm = algorithm;
  options.last_round = strategy;
  options.hier = coll::HierMode::kOff;
  return options;
}

/// Execute the Bruck index algorithm on the fabric, verify payload
/// delivery, check the measured metrics equal the closed form, and return
/// them.
inline model::CostMetrics measure_index_bruck(std::int64_t n, int k,
                                              std::int64_t block_bytes,
                                              std::int64_t radix) {
  coll::AlltoallOptions options;
  options.algorithm = coll::IndexAlgorithm::kBruck;
  options.radix = radix;
  options.hier = coll::HierMode::kOff;
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  mps::RunResult rr = mps::run_spmd(n, k, [&](mps::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    std::vector<std::byte> send(static_cast<std::size_t>(n * block_bytes));
    std::vector<std::byte> recv(send.size());
    coll::fill_index_send(send, n, rank, block_bytes, 7);
    coll::alltoall(comm, send, recv, block_bytes, options);
    errors[static_cast<std::size_t>(rank)] =
        coll::check_index_recv(recv, n, rank, block_bytes, 7);
  });
  return ensure_measured(errors, rr,
                         model::index_bruck_cost(n, radix, k, block_bytes));
}

/// Same for the concatenation algorithm.
inline model::CostMetrics measure_concat_bruck(std::int64_t n, int k,
                                               std::int64_t block_bytes,
                                               model::ConcatLastRound strategy) {
  return measure_concat(
      n, k, block_bytes, concat_forced(coll::ConcatAlgorithm::kBruck, strategy),
      model::concat_bruck_cost(n, k, block_bytes, strategy));
}

inline model::CostMetrics measure_concat_folklore(std::int64_t n,
                                                  std::int64_t block_bytes) {
  return measure_concat(n, 1, block_bytes,
                        concat_forced(coll::ConcatAlgorithm::kFolklore),
                        model::concat_folklore_cost(n, block_bytes));
}

inline model::CostMetrics measure_concat_ring(std::int64_t n,
                                              std::int64_t block_bytes) {
  return measure_concat(n, 1, block_bytes,
                        concat_forced(coll::ConcatAlgorithm::kRing),
                        model::concat_ring_cost(n, block_bytes));
}

}  // namespace bruck::bench
