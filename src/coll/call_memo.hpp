// The coll:: layer's per-communicator state, and the call memo in front of
// the tuner and the PlanCache.
//
// A flat alltoall, allgather or reduce-scatter call resolves its options
// into a Recipe (tuner pick, segment count, plan key) and then fetches the
// plan from the process-global PlanCache.  Both steps take process-global
// locks, and on the thread fabric every rank thread takes them at the same
// moment.  The memo remembers, per communicator, what a call signature
// resolved to: a repeated call compares its signature against a handful of
// rank-local entries and runs the remembered plan — one acquire load of the
// tuning epoch, no lock, no shared write beyond the PlanCache hit counter.
//
// A resolution is a pure function of the signature and the process-global
// tuning state (active machine, learned overrides, tuner memo, PlanCache).
// Every writer of that state bumps model::tuning_epoch(), and an entry
// stored under an older epoch is a miss.  Calls that the adaptive tuner
// explores, the hierarchical dispatch, kReference, the vector collectives
// and iallreduce do not use the memo.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "coll/api.hpp"
#include "coll/layout.hpp"
#include "coll/plan_cache.hpp"
#include "coll/reduction.hpp"
#include "model/linear_model.hpp"
#include "model/metrics.hpp"
#include "mps/communicator.hpp"

namespace bruck::coll {

class ProgressEngine;

/// One collective call's resolved execution recipe, shared by every
/// blocking and i* overload of a family: the plan key (the tuned
/// algorithm, radix or last-round strategy, wire segment count, and layout
/// digest are all part of it), the modeled measures behind the choice (the
/// segment tuner's and the fusion decision's input), and the machine the
/// recipe was tuned under.
struct Recipe {
  PlanKey key;
  model::CostMetrics predicted;
  model::LinearModel machine;
};

/// Everything a flat call's resolution reads besides the global tuning
/// state: the family, the geometry, every option field the family's
/// resolver reads (unresolved — kAuto stays kAuto, 0 stays "tune"), the
/// requested machine's bits, the reduce op's cache tag and the layout
/// digest.  Fields a family does not read stay 0.
struct CallSignature {
  PlanCollective family = PlanCollective::kIndex;
  std::int64_t n = 0;
  int k = 0;
  std::int64_t block_bytes = 0;
  std::uint8_t algorithm = 0;
  std::int64_t radix = 0;
  std::uint8_t radix_set = 0;
  int segments = 0;
  std::uint8_t last_round = 0;
  std::uint64_t beta_bits = 0;
  std::uint64_t tau_bits = 0;
  std::uint64_t gamma_bits = 0;
  std::uint32_t reduce_tag = 0;
  std::uint64_t layout_digest = 0;

  friend bool operator==(const CallSignature&, const CallSignature&) =
      default;
};

/// The signature of a flat alltoall, allgather or reduce-scatter call on
/// n ranks and k ports (null layouts: the plain overloads).
[[nodiscard]] CallSignature call_signature(std::int64_t n, int k,
                                           std::int64_t block_bytes,
                                           const AlltoallOptions& options,
                                           const LayoutPair& layouts = {});
[[nodiscard]] CallSignature call_signature(std::int64_t n, int k,
                                           std::int64_t block_bytes,
                                           const AllgatherOptions& options,
                                           const LayoutPair& layouts = {});
[[nodiscard]] CallSignature call_signature(
    std::int64_t n, int k, std::int64_t block_bytes, const ReduceOp& op,
    const ReduceScatterOptions& options, const LayoutPair& layouts = {});

/// A few remembered resolutions of one communicator (see the file
/// comment).  Single-threaded, like the communicator it belongs to.
class CallMemo {
 public:
  struct Entry {
    CallSignature signature;
    std::uint64_t epoch = 0;
    Recipe recipe;
    std::shared_ptr<const Plan> plan;  ///< null: unused slot
  };

  /// The entry for `signature` stored under `epoch`, or null.
  [[nodiscard]] const Entry* find(const CallSignature& signature,
                                  std::uint64_t epoch) const;

  /// Remember `recipe` and `plan` for `signature`, resolved at `epoch`.
  /// Replaces the signature's older entry if there is one, else the slot
  /// filled longest ago.
  const Entry& store(const CallSignature& signature, std::uint64_t epoch,
                     const Recipe& recipe, std::shared_ptr<const Plan> plan);

 private:
  /// Allreduce alone keeps two entries busy (its two stages); a few more
  /// let a caller alternate between geometries without thrashing.
  static constexpr std::size_t kEntries = 8;
  std::array<Entry, kEntries> entries_;
  std::size_t next_ = 0;
};

/// The coll:: layer's state of one communicator, parked in its extension
/// slot so that its lifetime tracks the communicator's exactly (a
/// process-global registry keyed by address would outlive it and could be
/// resurrected by heap address reuse).  Created on the first collective
/// call, never at spawn.
struct CommState {
  ~CommState();  // out of line: ProgressEngine is incomplete here

  /// The state of `comm`, created on first use.
  static CommState& of(mps::Communicator& comm);

  CallMemo memo;
  /// The nonblocking collectives' scheduler, created on the first i* call
  /// (ProgressEngine::for_comm).
  std::unique_ptr<ProgressEngine> engine;
};

}  // namespace bruck::coll
