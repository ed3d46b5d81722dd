// Composite multi-stage plans: several single-schedule Plans executed
// back-to-back under one trace, with declarative *splice maps* describing
// how stage k's output feeds stage k+1's input.
//
// A CompositePlan is a per-rank stage list.  Each stage names the plan it
// runs (null = this rank is idle that stage), the member set it runs over
// (a GroupComm sub-communicator of the parent; empty = the whole
// communicator), its block size in units of the composite's base block, and
// the splice ops that move (or ⊕-combine) base-block runs from its output
// staging into the next stage's input staging.  Stage round numbering is
// *uniform*: every rank advances its base round by the stage's
// `round_stride` — the round count of the nominal-size group's plan —
// whether or not it participated, so ranks of differently-sized groups
// agree on every wire round number and the composite returns one
// fabric-wide next_round.
//
// Two drivers walk a composite, both over the one plan executor.  run() is
// the blocking driver: per stage, construct the sub-communicator, execute
// the stage plan with Plan::run_pipelined, record the stage's PlanEvent,
// apply the splices.  CompositeCursor is the incremental driver for the
// progress engine: the PlanCursor state machine lifted one level,
// advancing through world-scope stages as their cursors drain (it subsumes
// the engine's former hard-coded allreduce reduce-scatter→allgather
// chaining).
//
// The hierarchical (two-level leader-model) lowerings live here too:
// lower_index_hier / lower_concat_hier / lower_reduce_hier build the
// 3-stage leader-model composites — intra-group gather to the leader →
// inter-leader exchange over the partition's leader set → intra-group
// scatter/broadcast — whose stage plans come from the PlanCache and whose
// splice maps are derived from a topo::GroupGeometry.  Groups are
// contiguous rank ranges; the last group may be smaller than the nominal
// size g, and every inter-leader super-block is zero-padded to the nominal
// size so all leaders exchange uniform blocks (the padding never reaches a
// user buffer: splices only move occupied runs, and combine splices never
// fold padding into live slots).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "coll/plan.hpp"
#include "coll/plan_cache.hpp"
#include "coll/reduction.hpp"
#include "model/costs.hpp"
#include "mps/communicator.hpp"
#include "topo/partition.hpp"

namespace bruck::coll {

/// One inter-stage data movement: `len` base blocks from base-block `src`
/// of the finished stage's output to base-block `dst` of the next stage's
/// input.  `combine` ⊕-folds instead of copying (hierarchical reduce: the
/// leader accumulates its members' contributions while splicing; the first
/// member's run is always a plain copy so padding zeros are never combined
/// into live data).
struct SpliceOp {
  std::int64_t src = 0;
  std::int64_t dst = 0;
  std::int64_t len = 0;
  bool combine = false;
};

/// One stage of one rank's composite program.
struct CompositeStage {
  /// The schedule this rank executes, or null when this rank sits the stage
  /// out (a non-leader during the inter-leader stage).  Idle ranks still
  /// advance their base round by `round_stride`.
  std::shared_ptr<const Plan> plan;
  /// Whether `plan` came out of the PlanCache warm (the stage PlanEvent's
  /// cache_hit field).
  bool cache_hit = false;
  /// Parent ranks forming the stage's sub-communicator, in group-rank
  /// order (index 0 is the stage root).  Empty = run on the parent
  /// communicator itself.
  std::vector<std::int64_t> members;
  /// The stage plan's block size, in base blocks.
  std::int64_t block_units = 1;
  /// Input/output staging sizes in base blocks.  0 with the corresponding
  /// user_* flag set means the user buffer is used directly.
  std::int64_t in_units = 0;
  std::int64_t out_units = 0;
  bool user_send_in = false;   ///< stage input is the composite's send buffer
  bool user_recv_out = false;  ///< stage output is the composite's recv buffer
  /// Run the stage plan with the composite's ReduceOp (reducing stages).
  bool reducing = false;
  /// Uniform base-round advance of this stage across ALL ranks: the round
  /// count of the nominal-size group's plan (≥ this rank's own rounds).
  int round_stride = 0;
  /// Inter-stage map from this stage's output to the next stage's input.
  /// Applied after the stage completes; the next stage's input staging is
  /// zero-initialized first, so unspliced slots are deterministic zeros.
  std::vector<SpliceOp> splices;
  std::string label;
};

/// The hierarchy shape one rank's hierarchical composite is lowered for
/// (the tuner's pick, or the forced env/option knobs).
struct HierShape {
  std::int64_t group = 1;        ///< nominal group size g
  std::int64_t inter_radix = 2;  ///< inter-leader Bruck radix (index/reduce)
  /// Inter-leader concat last-round strategy, resolved against the
  /// super-block size g·b inside the lowering (concat only).
  model::ConcatLastRound strategy = model::ConcatLastRound::kAuto;
  int segments = 1;  ///< wire segments of every stage plan
};

class CompositePlan {
 public:
  /// The leader-model alltoall of `rank`: intra-group binomial gather of
  /// whole alltoall vectors (stage block n·b) → inter-leader index Bruck
  /// over g²-block super-blocks at shape.inter_radix → intra-group binomial
  /// scatter of result vectors.  Splices transpose member payloads into
  /// destination-group super-blocks and received super-blocks back into
  /// per-member result vectors.
  static CompositePlan lower_index_hier(std::int64_t n, int k,
                                        std::int64_t rank,
                                        std::int64_t block_bytes,
                                        const HierShape& shape);

  /// The leader-model allgather of `rank`: intra-group gather of single
  /// blocks → inter-leader concat over g-block super-blocks (strategy
  /// resolved at that size) → intra-group circulant broadcast of the
  /// assembled n-block result.
  static CompositePlan lower_concat_hier(std::int64_t n, int k,
                                         std::int64_t rank,
                                         std::int64_t block_bytes,
                                         const HierShape& shape);

  /// The leader-model reduce-scatter of `rank`: intra-group gather of whole
  /// contribution vectors → leader-local combine splices (one copy + g−1
  /// ⊕-folds per destination run) → inter-leader reduce Bruck over g-block
  /// super-blocks → intra-group scatter of single result blocks.
  static CompositePlan lower_reduce_hier(std::int64_t n, int k,
                                         std::int64_t rank,
                                         std::int64_t block_bytes,
                                         const ReduceOp& op,
                                         const HierShape& shape);

  /// The allreduce chain (both stages world-scope): the reduce-scatter plan
  /// of `reduce_key` feeding the allgather plan of `concat_key` through an
  /// identity splice.  Input = the n·b padded contribution vector, output =
  /// the n·b gathered result.  Replaces the progress engine's former
  /// bespoke cursor swap.
  static CompositePlan allreduce_chain(const PlanKey& reduce_key,
                                       const PlanKey& concat_key,
                                       std::int64_t n,
                                       std::int64_t block_bytes);

  /// Execute every stage back to back with the blocking driver
  /// (Plan::run_pipelined per stage).  `op` is required iff any stage
  /// reduces or any splice combines.  Records one PlanEvent per executed
  /// (non-idle) stage.  Returns the aggregate execution: next_round =
  /// start_round + round_count(), bytes summed over executed stages.
  PlanExecution run(mps::Communicator& comm, std::span<const std::byte> send,
                    std::span<std::byte> recv, const ReduceOp* op,
                    int start_round = 0) const;

  [[nodiscard]] const std::vector<CompositeStage>& stages() const {
    return stages_;
  }
  [[nodiscard]] std::int64_t n() const { return n_; }
  [[nodiscard]] std::int64_t block_bytes() const { return block_bytes_; }
  /// Σ round_stride — the uniform fabric-wide round advance.
  [[nodiscard]] int round_count() const { return total_stride_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Per-stage anatomy (the `bruckcl_plan compile --hier` rendering).
  [[nodiscard]] std::string describe() const;

 private:
  friend class CompositeCursor;

  CompositePlan(std::string name, std::int64_t n, std::int64_t block_bytes);

  void add_stage(CompositeStage stage);
  /// Copy/⊕-combine `st`'s splices from its output staging into the next
  /// stage's (zero-initialized) input staging.
  void apply_splices(const CompositeStage& st,
                     std::span<const std::byte> out,
                     std::span<std::byte> next_in, const ReduceOp* op) const;
  /// Buffer-contract checks shared by run() and CompositeCursor.
  void check_contract(std::span<const std::byte> send,
                      std::span<std::byte> recv, const ReduceOp* op) const;

  std::string name_;
  std::int64_t n_ = 1;            ///< parent communicator size
  std::int64_t block_bytes_ = 0;  ///< base block size b
  int total_stride_ = 0;
  bool needs_op_ = false;
  std::vector<CompositeStage> stages_;
};

/// Incremental execution of one composite on one rank: the progress
/// engine's chain driver.  Restricted to world-scope composites (every
/// stage's members empty and plan non-null) — sub-communicator stages need
/// the blocking driver.  Same never-blocking post_ready()/on_complete()
/// discipline as PlanCursor; each stage's PlanEvent is recorded (with this
/// cursor's tag) as the stage drains, so the owner must NOT record another
/// event at retirement.  The communicator, buffers, and op must outlive the
/// cursor; the composite is owned by value.
class CompositeCursor {
 public:
  CompositeCursor(CompositePlan plan, mps::Communicator& comm,
                  std::span<const std::byte> send, std::span<std::byte> recv,
                  const ReduceOp* op, int start_round = 0, int tag = 0);

  CompositeCursor(const CompositeCursor&) = delete;
  CompositeCursor& operator=(const CompositeCursor&) = delete;

  /// Post everything postable, advancing through stage boundaries (finish
  /// a drained stage, splice, open the next) as far as possible without
  /// blocking.  Returns the receive handles posted by this call.
  std::vector<mps::PortHandle> post_ready();

  /// Deliver one completed receive handle of the current stage's cursor.
  void on_complete(mps::PortHandle h);

  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] int outstanding() const {
    return cursor_ ? cursor_->outstanding() : 0;
  }
  [[nodiscard]] int tag() const { return tag_; }
  /// Aggregate totals (bytes summed over stages, next_round = start +
  /// round_count()); valid once done().
  [[nodiscard]] const PlanExecution& result() const;

 private:
  /// Construct the stage_ cursor over the spliced staging buffers.
  void open_stage();
  /// Record the drained stage's event, accumulate totals, splice forward.
  void finish_stage();

  CompositePlan plan_;
  mps::Communicator* comm_;
  std::span<const std::byte> send_;
  std::span<std::byte> recv_;
  const ReduceOp* op_;
  int tag_ = 0;
  int base_round_ = 0;
  std::size_t stage_ = 0;
  std::vector<std::byte> stage_in_;   ///< current stage's owned input
  std::vector<std::byte> stage_out_;  ///< current stage's owned output
  std::unique_ptr<PlanCursor> cursor_;
  PlanExecution out_;
  bool done_ = false;
};

}  // namespace bruck::coll
