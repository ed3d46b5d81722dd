// Shared helpers for the test suite: run a collective on the threaded
// substrate with deterministic payloads and collect content errors, the
// executed trace, and per-rank round usage.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "coll/api.hpp"
#include "coll/verify.hpp"
#include "model/costs.hpp"
#include "mps/runtime.hpp"
#include "sched/builders_concat.hpp"
#include "sched/builders_index.hpp"

namespace bruck::testutil {

/// Facade options that run exactly one index algorithm on the plan
/// executor: `algorithm` forced (with `radix` for Bruck), always flat.
inline coll::AlltoallOptions index_options(coll::IndexAlgorithm algorithm,
                                           std::int64_t radix = 0,
                                           int start_round = 0) {
  coll::AlltoallOptions o;
  o.algorithm = algorithm;
  o.radix = radix;
  o.start_round = start_round;
  o.hier = coll::HierMode::kOff;
  return o;
}

/// Same for the concatenation algorithms (`last_round` applies to Bruck).
inline coll::AllgatherOptions concat_options(
    coll::ConcatAlgorithm algorithm,
    model::ConcatLastRound last_round = model::ConcatLastRound::kAuto,
    int start_round = 0) {
  coll::AllgatherOptions o;
  o.algorithm = algorithm;
  o.last_round = last_round;
  o.start_round = start_round;
  o.hier = coll::HierMode::kOff;
  return o;
}

/// Per-rank body of an index-style collective: (comm, send, recv) → rounds
/// used (next free round index).
using IndexCall = std::function<int(mps::Communicator&,
                                    std::span<const std::byte>,
                                    std::span<std::byte>)>;

/// Per-rank body of a concat-style collective (send is one block).
using ConcatCall = std::function<int(mps::Communicator&,
                                     std::span<const std::byte>,
                                     std::span<std::byte>)>;

/// What an executed trace must equal: the algorithm's independently built
/// schedule (normalized) and its closed-form measures.
struct Expected {
  sched::Schedule schedule;
  model::CostMetrics closed;
};

inline Expected normalized(sched::Schedule schedule,
                           const model::CostMetrics& closed) {
  schedule.normalize();
  return Expected{std::move(schedule), closed};
}

inline Expected expected_index(coll::IndexAlgorithm algorithm, std::int64_t n,
                               int k, std::int64_t b, std::int64_t radix = 0) {
  switch (algorithm) {
    case coll::IndexAlgorithm::kDirect:
      return normalized(sched::build_index_direct(n, k, b),
                        model::index_direct_cost(n, k, b));
    case coll::IndexAlgorithm::kPairwise:
      return normalized(sched::build_index_pairwise(n, k, b),
                        model::index_pairwise_cost(n, k, b));
    case coll::IndexAlgorithm::kBruck:
    case coll::IndexAlgorithm::kAuto:
      break;
  }
  return normalized(sched::build_index_bruck(n, radix, k, b),
                    model::index_bruck_cost(n, radix, k, b));
}

/// A one-port builder's schedule as it executes on a k-port fabric: the
/// same rounds, with the fabric's port count.
inline sched::Schedule on_ports(const sched::Schedule& one_port, int k) {
  sched::Schedule out(one_port.n(), k);
  for (const sched::Round& round : one_port.rounds()) {
    const std::size_t i = out.add_round();
    for (const sched::Transfer& t : round.transfers) out.add_transfer(i, t);
  }
  return out;
}

inline Expected expected_concat(
    coll::ConcatAlgorithm algorithm, std::int64_t n, int k, std::int64_t b,
    model::ConcatLastRound last_round = model::ConcatLastRound::kAuto) {
  switch (algorithm) {
    case coll::ConcatAlgorithm::kFolklore:
      return normalized(on_ports(sched::build_concat_folklore(n, b), k),
                        model::concat_folklore_cost(n, b));
    case coll::ConcatAlgorithm::kRing:
      return normalized(on_ports(sched::build_concat_ring(n, b), k),
                        model::concat_ring_cost(n, b));
    case coll::ConcatAlgorithm::kBruck:
    case coll::ConcatAlgorithm::kAuto:
      break;
  }
  return normalized(sched::build_concat_bruck(n, k, b, last_round),
                    model::concat_bruck_cost(n, k, b, last_round));
}

struct CollRun {
  std::shared_ptr<mps::Trace> trace;
  /// First payload-verification failure across ranks ("" if all good).
  std::string error;
  /// Rounds used (identical across ranks or `error` is set).
  int rounds_used = 0;
};

inline CollRun run_index(std::int64_t n, int k, std::int64_t block_bytes,
                         const IndexCall& call, std::uint64_t seed = 42) {
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  std::vector<int> rounds(static_cast<std::size_t>(n), -1);
  mps::RunResult rr = mps::run_spmd(n, k, [&](mps::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    std::vector<std::byte> send(static_cast<std::size_t>(n * block_bytes));
    std::vector<std::byte> recv(static_cast<std::size_t>(n * block_bytes),
                                std::byte{0xEE});
    coll::fill_index_send(send, n, rank, block_bytes, seed);
    rounds[static_cast<std::size_t>(rank)] = call(comm, send, recv);
    errors[static_cast<std::size_t>(rank)] =
        coll::check_index_recv(recv, n, rank, block_bytes, seed);
  });
  CollRun out;
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

inline CollRun run_concat(std::int64_t n, int k, std::int64_t block_bytes,
                          const ConcatCall& call, std::uint64_t seed = 42) {
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  std::vector<int> rounds(static_cast<std::size_t>(n), -1);
  mps::RunResult rr = mps::run_spmd(n, k, [&](mps::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    std::vector<std::byte> send(static_cast<std::size_t>(block_bytes));
    std::vector<std::byte> recv(static_cast<std::size_t>(n * block_bytes),
                                std::byte{0xEE});
    coll::fill_concat_send(send, rank, block_bytes, seed);
    rounds[static_cast<std::size_t>(rank)] = call(comm, send, recv);
    errors[static_cast<std::size_t>(rank)] =
        coll::check_concat_recv(recv, n, block_bytes, seed);
  });
  CollRun out;
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

}  // namespace bruck::testutil
