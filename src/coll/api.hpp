// The CCL-style entry points: one call per collective with algorithm and
// radix selection, including model-driven auto-tuning (the paper's central
// practical point — Section 3.3/3.5: pick r from β, τ, b, n, k).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "coll/layout.hpp"
#include "coll/reduction.hpp"
#include "coll/request.hpp"
#include "model/costs.hpp"
#include "model/linear_model.hpp"
#include "model/tuner.hpp"
#include "mps/communicator.hpp"

namespace bruck::coll {

enum class IndexAlgorithm {
  kBruck,     ///< Section 3 algorithm with the options' radix
  kDirect,    ///< direct exchange (C2-optimal end)
  kPairwise,  ///< XOR pairwise exchange (power-of-two n only)
  kAuto,      ///< Bruck with the model-tuned radix
};

enum class ConcatAlgorithm {
  kBruck,     ///< Section 4 circulant algorithm
  kFolklore,  ///< binomial gather + broadcast baseline
  kRing,      ///< ring allgather baseline
  kAuto,      ///< Bruck (optimal in both measures for most n)
};

/// How the facade executes a collective.
enum class ExecutionPath {
  /// The family's naive oracle, whatever the requested algorithm: the
  /// direct per-pair exchange of vector_reference.hpp (alltoall, allgather
  /// and their vector forms), reduce_scatter_reference, or
  /// allreduce_reference.  It shares no code with the plan engine.  Tests
  /// assert identical payloads to kPipelined; the executor's traces are
  /// checked against the sched::build_* schedules instead.
  kReference,
  /// Lower (or fetch from the PlanCache) a compiled plan and run it with
  /// the plan executor over the nonblocking port engine: zero planning work
  /// on repeated same-geometry calls, zero-copy wire paths where the
  /// pattern allows, round overlap where proven safe, eager out-of-order
  /// receive completion, optional wire segmentation.  The default.
  kPipelined,
};

/// Whether a collective may run the hierarchical (two-level leader-model)
/// lowering: intra-group gather to a leader → inter-leader exchange →
/// intra-group scatter/broadcast (coll/composite.hpp).  Honored by the
/// plain contiguous blocking overloads of alltoall/allgather/reduce_scatter
/// with n > 1 and block_bytes > 0 when the algorithm resolves to Bruck;
/// kReference (the flat oracle), strided layouts, and the i* twins always
/// run flat.
enum class HierMode {
  kDefault,  ///< follow the BRUCK_HIER environment knob (unset = kOff)
  kOff,      ///< always flat
  kOn,       ///< force the best modeled hierarchical shape, even if flat wins
  kAuto,     ///< hierarchical iff the two-level model prices it under flat
};

[[nodiscard]] std::string to_string(IndexAlgorithm a);
[[nodiscard]] std::string to_string(ConcatAlgorithm a);
[[nodiscard]] std::string to_string(ExecutionPath p);
[[nodiscard]] std::string to_string(HierMode m);

/// Strict parse seams of the hierarchy env knobs (the mps::parse_* idiom:
/// pure functions over the raw text, the whole string must parse, anything
/// else is std::nullopt).  BRUCK_HIER wants off|on|auto;
/// BRUCK_HIER_GROUP_SIZE wants an integer in [0, 1048576] (0 = tuner pick).
[[nodiscard]] std::optional<HierMode> parse_hier_mode(const char* text);
[[nodiscard]] std::optional<std::int64_t> parse_hier_group(const char* text);

/// BRUCK_HIER resolved: unset = kOff; invalid text warns once to stderr and
/// falls back to kOff.  Re-reads the environment on every call (cheap), so
/// tests may flip the variable between calls.
[[nodiscard]] HierMode default_hier_mode();
/// BRUCK_HIER_GROUP_SIZE resolved: unset = 0 (tuner's group-size sweep);
/// invalid text warns once and falls back to 0.
[[nodiscard]] std::int64_t default_hier_group();

struct AlltoallOptions {
  IndexAlgorithm algorithm = IndexAlgorithm::kAuto;
  /// Radix for kBruck; 0 means "tune under `machine`".
  std::int64_t radix = 0;
  /// Machine profile used by radix tuning.
  model::LinearModel machine = model::ibm_sp1();
  /// Candidate set for tuning (the paper's SP-1 library tunes over
  /// powers of two; kAll finds the true model optimum).
  model::RadixSet radix_set = model::RadixSet::kAll;
  int start_round = 0;
  ExecutionPath path = ExecutionPath::kPipelined;
  /// Wire segments per message: 0 tunes under `machine`
  /// (model::pick_segment_count), 1 disables segmentation, S > 1 forces S.
  /// Ignored by kReference.
  int segments = 0;
  /// Hierarchical (two-level leader-model) execution; see HierMode.
  HierMode hier = HierMode::kDefault;
  /// Forced nominal group size for hierarchical execution; 0 defers to
  /// BRUCK_HIER_GROUP_SIZE, then the tuner's group-size sweep.
  std::int64_t hier_group = 0;
  /// Two-level machine profile (intra-group vs inter-group links) driving
  /// the flat-vs-hierarchical decision and the shape sweep.
  model::TwoLevelModel hier_machine =
      model::uniform_two_level(model::ibm_sp1());
};

struct AllgatherOptions {
  ConcatAlgorithm algorithm = ConcatAlgorithm::kAuto;
  model::ConcatLastRound last_round = model::ConcatLastRound::kAuto;
  /// Machine profile for segment-count tuning.
  model::LinearModel machine = model::ibm_sp1();
  int start_round = 0;
  ExecutionPath path = ExecutionPath::kPipelined;
  /// Same contract as AlltoallOptions::segments.
  int segments = 0;
  /// Same contract as AlltoallOptions::hier / hier_group / hier_machine.
  HierMode hier = HierMode::kDefault;
  std::int64_t hier_group = 0;
  model::TwoLevelModel hier_machine =
      model::uniform_two_level(model::ibm_sp1());
};

/// The decision kAuto (or radix = 0) would make, without running anything.
struct AlltoallPlan {
  IndexAlgorithm algorithm = IndexAlgorithm::kBruck;
  std::int64_t radix = 2;
  model::CostMetrics predicted;
  double predicted_us = 0.0;
  /// Learned wire-segment force carried by a tuner override (0 = none);
  /// resolved through the segment knob like a user-requested count.
  int segments_hint = 0;
};

[[nodiscard]] AlltoallPlan plan_alltoall(std::int64_t n, int k,
                                         std::int64_t block_bytes,
                                         const AlltoallOptions& options = {});

/// Index operation (MPI_Alltoall).  `send`: n blocks of block_bytes, block j
/// destined for rank j.  `recv`: n blocks, block i from rank i.
/// Returns the next free round index.
///
/// Blocking: returns once all of this rank's receives have landed (posts
/// overlap internally but the call itself is synchronous).  Thread safety: SPMD — one call per rank thread with
/// rank-local buffers; the PlanCache and tuner memos behind it are
/// process-global and thread-safe.  Trace: one send event per nonzero
/// message at its round, plus one PlanEvent per compiled execution.
int alltoall(mps::Communicator& comm, std::span<const std::byte> send,
             std::span<std::byte> recv, std::int64_t block_bytes,
             const AlltoallOptions& options = {});

/// Strided-datatype alltoall.  Each logical block (block size =
/// send_layout.block_bytes(), which must equal recv_layout's) maps onto the
/// caller buffer through its layout; block j's origin is
/// j · layout.block_stride().  The plan executor walks the layout's
/// byte extents directly between the user buffers and the wire — no
/// staging copy in either direction — and an is_contiguous() layout
/// behaves (and caches) exactly like the plain overload.  Buffers must
/// cover layout.span_bytes(n); bytes outside the layout's extents are
/// never read or written.  The layouts are read during the call only.
/// Under kReference the facade stages through packed copies (the per-pair
/// oracle takes packed buffers), so it remains the bitwise cross-check.
int alltoall(mps::Communicator& comm, std::span<const std::byte> send,
             std::span<std::byte> recv, const Layout& send_layout,
             const Layout& recv_layout, const AlltoallOptions& options = {});

/// The user-side staging idiom the layout overload replaces, as one call:
/// layout_gather_all → plain alltoall → layout_scatter_all.  Bitwise
/// identical to the zero-copy overload; kept as the measuring-stick
/// baseline of the staged-vs-zero-copy comparisons in the examples and
/// bench_wallclock.
int alltoall_staged(mps::Communicator& comm, std::span<const std::byte> send,
                    std::span<std::byte> recv, const Layout& send_layout,
                    const Layout& recv_layout,
                    const AlltoallOptions& options = {});

/// Concatenation operation (MPI_Allgather).  `send`: this rank's block.
/// `recv`: n blocks in rank order.  Returns the next free round index.
/// Blocking, thread-safety, and trace behavior as alltoall.
int allgather(mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv, std::int64_t block_bytes,
              const AllgatherOptions& options = {});

/// Strided-datatype allgather: `send` holds this rank's one layout-mapped
/// block (must cover send_layout.span_bytes(1)), `recv` n layout-mapped
/// blocks in rank order (recv_layout.span_bytes(n)).  Same layout
/// semantics and zero-copy behavior as the alltoall layout overload.
int allgather(mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv, const Layout& send_layout,
              const Layout& recv_layout, const AllgatherOptions& options = {});

// ---------------------------------------------------------------------------
// Irregular (vector) collectives: per-rank byte counts and displacements,
// lowered through the same plan engine (see docs/ARCHITECTURE.md).

struct AlltoallvOptions {
  /// kAuto picks between direct exchange and Bruck via
  /// model::pick_indexv_cached (total + heaviest-pair bytes).  kBruck runs
  /// the Section 3 algorithm over a max-padded scratch with on-the-wire
  /// trimming; kPairwise requires a power-of-two n.
  IndexAlgorithm algorithm = IndexAlgorithm::kAuto;
  /// Radix for kBruck; 0 means "tune under `machine`".
  std::int64_t radix = 0;
  model::LinearModel machine = model::ibm_sp1();
  model::RadixSet radix_set = model::RadixSet::kAll;
  int start_round = 0;
  /// kReference runs the direct per-pair oracle (vector_reference.hpp)
  /// regardless of `algorithm` — there is exactly one irregular oracle.
  ExecutionPath path = ExecutionPath::kPipelined;
  /// Same contract as AlltoallOptions::segments.
  int segments = 0;
};

/// Irregular index operation (MPI_Alltoallv).  `counts` is the full n×n
/// matrix — counts[i*n + j] = bytes rank i sends to rank j — and must be
/// identical on every rank (the usual "counts were allgathered first"
/// situation).  `send_displs`/`recv_displs` give each block's byte offset
/// in this rank's buffers; empty spans mean the packed canonical layout
/// (prefix sums of this rank's matrix row / column).  Blocks must not
/// overlap; zero-count pairs never touch the fabric.  Blocks until this
/// rank's receives have landed; records one trace send event per nonzero
/// message plus one PlanEvent on the compiled path.  Returns the next
/// free round index.
int alltoallv(mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv,
              std::span<const std::int64_t> counts,
              std::span<const std::int64_t> send_displs = {},
              std::span<const std::int64_t> recv_displs = {},
              const AlltoallvOptions& options = {});

/// Strided-datatype alltoallv.  Each block's displacement is its *origin*;
/// its counts[i·n+j] logical bytes walk the layout's piece pattern from
/// there (so they physically end at origin + layout.span_of(count)).
/// layout.block_bytes() must cover the largest pair count on both sides.
/// Empty displacements mean the packed canonical layout *in layout space*:
/// prefix sums of span_of(count) — identical to the plain overload for
/// contiguous layouts.  Blocks must not overlap.
int alltoallv(mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv,
              std::span<const std::int64_t> counts,
              std::span<const std::int64_t> send_displs,
              std::span<const std::int64_t> recv_displs,
              const Layout& send_layout, const Layout& recv_layout,
              const AlltoallvOptions& options = {});

struct AllgathervOptions {
  /// kAuto resolves to Bruck.  Irregular Bruck always uses the
  /// column-granular last round (the byte-split partition needs one
  /// concrete uniform block size).
  ConcatAlgorithm algorithm = ConcatAlgorithm::kAuto;
  model::LinearModel machine = model::ibm_sp1();
  int start_round = 0;
  /// kReference runs the direct per-pair oracle (vector_reference.hpp).
  ExecutionPath path = ExecutionPath::kPipelined;
  int segments = 0;
};

/// Irregular concatenation (MPI_Allgatherv).  `send` is this rank's block
/// (counts[rank] bytes); `recv` holds rank i's block at recv_displs[i]
/// with counts[i] bytes (empty recv_displs = packed prefix-sum layout).
/// `counts` (n entries) must be identical on every rank.  Same blocking
/// and trace behavior as alltoallv.  Returns the next free round index.
int allgatherv(mps::Communicator& comm, std::span<const std::byte> send,
               std::span<std::byte> recv,
               std::span<const std::int64_t> counts,
               std::span<const std::int64_t> recv_displs = {},
               const AllgathervOptions& options = {});

// ---------------------------------------------------------------------------
// Reduction collectives: the index/concatenate schedules with combining
// (reduce-scatter is an index operation whose receives ⊕-combine;
// allreduce is reduce-scatter + concatenation).  Operators must be
// commutative and associative (reduction.hpp).

enum class ReduceAlgorithm {
  kBruck,     ///< the Section 3 skeleton run in reverse with combining
  kDirect,    ///< direct per-pair exchange with combining
  kPairwise,  ///< XOR pairwise exchange (power-of-two n only)
  kAuto,      ///< model-tuned via model::pick_reduce_scatter (γ-aware)
};

[[nodiscard]] std::string to_string(ReduceAlgorithm a);

struct ReduceScatterOptions {
  ReduceAlgorithm algorithm = ReduceAlgorithm::kAuto;
  /// Radix for kBruck; 0 means "tune under `machine`".
  std::int64_t radix = 0;
  /// Machine profile for algorithm/radix/segment tuning (its γ term prices
  /// the combine work).
  model::LinearModel machine = model::ibm_sp1();
  model::RadixSet radix_set = model::RadixSet::kAll;
  int start_round = 0;
  /// kReference runs the per-pair oracle (reduce_scatter_reference)
  /// regardless of `algorithm` — there is exactly one reduction oracle.
  ExecutionPath path = ExecutionPath::kPipelined;
  /// Same contract as AlltoallOptions::segments.
  int segments = 0;
  /// Same contract as AlltoallOptions::hier / hier_group / hier_machine.
  HierMode hier = HierMode::kDefault;
  std::int64_t hier_group = 0;
  model::TwoLevelModel hier_machine =
      model::uniform_two_level(model::ibm_sp1());
};

/// Reduce-scatter (MPI_Reduce_scatter_block).  `send`: n blocks of
/// block_bytes, block j this rank's contribution to rank j.  `recv`: one
/// block — op-combined over every rank's contribution to this rank.
/// block_bytes must be a multiple of op.elem_bytes().  Returns the next
/// free round index.
///
/// Blocking: returns once this rank's reduction is complete (the combine is
/// fused into the out-of-order completion path).
/// Thread safety: SPMD as alltoall.  Trace: one send event per nonzero
/// message at its round, plus one PlanEvent (with bytes_reduced) per
/// compiled execution.
int reduce_scatter(mps::Communicator& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv, std::int64_t block_bytes,
                   const ReduceOp& op,
                   const ReduceScatterOptions& options = {});

/// Strided-datatype reduce-scatter: `send` holds n layout-mapped blocks,
/// `recv` one.  recv_layout's pieces must be whole multiples of
/// op.elem_bytes() (combines trim at piece edges and must never split an
/// element).  Same layout semantics and zero-copy behavior as the alltoall
/// layout overload — receive-side combining runs extent-by-extent straight
/// into the strided user buffer.
int reduce_scatter(mps::Communicator& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv, const Layout& send_layout,
                   const Layout& recv_layout, const ReduceOp& op,
                   const ReduceScatterOptions& options = {});

struct AllreduceOptions {
  /// Reduce-scatter stage algorithm.
  ReduceAlgorithm algorithm = ReduceAlgorithm::kAuto;
  /// Concatenation (allgather) stage algorithm.
  ConcatAlgorithm concat = ConcatAlgorithm::kAuto;
  std::int64_t radix = 0;
  model::LinearModel machine = model::ibm_sp1();
  model::RadixSet radix_set = model::RadixSet::kAll;
  int start_round = 0;
  /// kReference runs allreduce_reference (ring + canonical local combine).
  ExecutionPath path = ExecutionPath::kPipelined;
  int segments = 0;
};

/// Allreduce: `recv` = ⊕ over all ranks of their `send` (equal byte length
/// everywhere, a multiple of op.elem_bytes()).  Lowered as reduce-scatter
/// over ⌈elems/n⌉-element blocks (zero-padded tail) followed by an
/// allgather of the reduced blocks.  Returns the next free round index.
/// Blocking, thread-safety, and trace behavior as reduce_scatter.
int allreduce(mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv, const ReduceOp& op,
              const AllreduceOptions& options = {});

/// Strided-datatype allreduce.  The layouts describe the *whole* payload
/// (block_bytes() = total logical bytes, a multiple of op.elem_bytes()).
/// Allreduce's padded block decomposition inherently stages the payload,
/// so here the layouts replace — not add to — the staging copies: the
/// gather into the padded scratch walks send_layout, the final scatter
/// walks recv_layout; the wire stages themselves run contiguous.
int allreduce(mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv, const Layout& send_layout,
              const Layout& recv_layout, const ReduceOp& op,
              const AllreduceOptions& options = {});

// ---------------------------------------------------------------------------
// The one-to-all / all-to-one primitives of the paper's introduction.

enum class BcastAlgorithm {
  kCirculant,  ///< k-port Section 4.1 tree; C1 = ⌈log_{k+1} n⌉ (optimal)
  kBinomial,   ///< classic one-port binomial tree
  kAuto,       ///< circulant (it degrades to binomial at k = 1 round-wise)
};

struct BcastApiOptions {
  BcastAlgorithm algorithm = BcastAlgorithm::kAuto;
  int start_round = 0;
};

/// One-to-all broadcast of `data` from `root` (in-place on non-roots).
/// Blocking, thread-safety, and trace behavior as bcast.hpp.
int broadcast(mps::Communicator& comm, std::int64_t root,
              std::span<std::byte> data, const BcastApiOptions& options = {});

struct RootedOptions {
  int start_round = 0;
};

/// All-to-one gather: root's `recv` gets the n blocks in rank order.
/// Blocking, thread-safety, and trace behavior as gather_scatter.hpp.
int gather(mps::Communicator& comm, std::int64_t root,
           std::span<const std::byte> send, std::span<std::byte> recv,
           std::int64_t block_bytes, const RootedOptions& options = {});

/// One-to-all scatter: each rank's `recv` gets its block of root's `send`.
int scatter(mps::Communicator& comm, std::int64_t root,
            std::span<const std::byte> send, std::span<std::byte> recv,
            std::int64_t block_bytes, const RootedOptions& options = {});

// ---------------------------------------------------------------------------
// Nonblocking collectives.  Each i* call runs the same option resolver as
// its blocking twin (tuner, radix, wire segments — one resolver per family,
// so both key the same cached plan) but — instead of running it — submits the operation to the communicator's ProgressEngine
// (progress.hpp) and returns a Request handle immediately.  The operation
// starts lazily at the first test()/wait() on any request of the
// communicator, so several submitted-together same-shape operations can be
// batched into one fused wire exchange (a model::pick_fusion decision).
//
// Contracts shared by all i* entry points (see docs/API.md for the full
// reference):
//  - Buffers (and, for reductions, nothing else: the ReduceOp is copied)
//    must stay valid and untouched until the request completes.
//  - Execution always uses the compiled plan executor; `options.path` is
//    ignored (there is no nonblocking reference oracle).
//  - Each operation runs in its own port-namespace tag on communicators
//    with a native port engine, so any number of requests may be in flight
//    concurrently.  On exchange-backed wrappers the engine degrades to a
//    serial FIFO at tag 0 (test() degrades to wait()).
//  - While requests are outstanding, do not issue blocking collectives or
//    raw port-engine operations on the same communicator.

/// Nonblocking alltoall; same buffer contract as alltoall().
[[nodiscard]] Request ialltoall(mps::Communicator& comm,
                                std::span<const std::byte> send,
                                std::span<std::byte> recv,
                                std::int64_t block_bytes,
                                const AlltoallOptions& options = {});

/// Nonblocking strided-datatype alltoall; layout semantics as the blocking
/// layout overload (the layouts are copied into the operation — only the
/// payload buffers must outlive the request).  Layout operations never
/// fuse: fusion interleaves contiguous blocks.
[[nodiscard]] Request ialltoall(mps::Communicator& comm,
                                std::span<const std::byte> send,
                                std::span<std::byte> recv,
                                const Layout& send_layout,
                                const Layout& recv_layout,
                                const AlltoallOptions& options = {});

/// Nonblocking allgather; same buffer contract as allgather().
[[nodiscard]] Request iallgather(mps::Communicator& comm,
                                 std::span<const std::byte> send,
                                 std::span<std::byte> recv,
                                 std::int64_t block_bytes,
                                 const AllgatherOptions& options = {});

/// Nonblocking strided-datatype allgather; layout and copy semantics as
/// ialltoall's layout overload.
[[nodiscard]] Request iallgather(mps::Communicator& comm,
                                 std::span<const std::byte> send,
                                 std::span<std::byte> recv,
                                 const Layout& send_layout,
                                 const Layout& recv_layout,
                                 const AllgatherOptions& options = {});

/// Nonblocking alltoallv; same buffer contract as alltoallv().  The counts
/// and displacement tables are copied — only the payload buffers must
/// outlive the request.
[[nodiscard]] Request ialltoallv(mps::Communicator& comm,
                                 std::span<const std::byte> send,
                                 std::span<std::byte> recv,
                                 std::span<const std::int64_t> counts,
                                 std::span<const std::int64_t> send_displs = {},
                                 std::span<const std::int64_t> recv_displs = {},
                                 const AlltoallvOptions& options = {});

/// Nonblocking strided-datatype alltoallv; layout semantics as the
/// blocking layout overload (layouts and shape tables are copied).
[[nodiscard]] Request ialltoallv(mps::Communicator& comm,
                                 std::span<const std::byte> send,
                                 std::span<std::byte> recv,
                                 std::span<const std::int64_t> counts,
                                 std::span<const std::int64_t> send_displs,
                                 std::span<const std::int64_t> recv_displs,
                                 const Layout& send_layout,
                                 const Layout& recv_layout,
                                 const AlltoallvOptions& options = {});

/// Nonblocking reduce-scatter; same buffer contract as reduce_scatter().
/// The ReduceOp is copied (user_fn/user_ctx of a kUser op must stay valid).
[[nodiscard]] Request ireduce_scatter(mps::Communicator& comm,
                                      std::span<const std::byte> send,
                                      std::span<std::byte> recv,
                                      std::int64_t block_bytes,
                                      const ReduceOp& op,
                                      const ReduceScatterOptions& options = {});

/// Nonblocking strided-datatype reduce-scatter; layout and copy semantics
/// as ialltoall's layout overload.
[[nodiscard]] Request ireduce_scatter(mps::Communicator& comm,
                                      std::span<const std::byte> send,
                                      std::span<std::byte> recv,
                                      const Layout& send_layout,
                                      const Layout& recv_layout,
                                      const ReduceOp& op,
                                      const ReduceScatterOptions& options = {});

/// Nonblocking allreduce; same buffer contract as allreduce().  Runs as a
/// two-stage chained operation (reduce-scatter then allgather) inside one
/// port-namespace tag.
[[nodiscard]] Request iallreduce(mps::Communicator& comm,
                                 std::span<const std::byte> send,
                                 std::span<std::byte> recv, const ReduceOp& op,
                                 const AllreduceOptions& options = {});

/// Nonblocking strided-datatype allreduce; layout semantics as the
/// blocking layout overload (the staging copies walk the layouts).
[[nodiscard]] Request iallreduce(mps::Communicator& comm,
                                 std::span<const std::byte> send,
                                 std::span<std::byte> recv,
                                 const Layout& send_layout,
                                 const Layout& recv_layout,
                                 const ReduceOp& op,
                                 const AllreduceOptions& options = {});

namespace detail {

/// Resolved reduce-scatter execution recipe: algorithm, radix, and the
/// predicted metrics that drive segment tuning.  Shared by the blocking
/// facade and the progress engine's nonblocking submissions.
struct ReducePlanChoice {
  ReduceAlgorithm algorithm = ReduceAlgorithm::kBruck;
  std::int64_t radix = 2;
  model::CostMetrics predicted;
  /// Learned wire-segment force carried by a tuner override (0 = none).
  int segments_hint = 0;
};

[[nodiscard]] ReducePlanChoice resolve_reduce_algorithm(
    std::int64_t n, int k, std::int64_t block_bytes, ReduceAlgorithm algorithm,
    std::int64_t radix, const model::LinearModel& machine,
    model::RadixSet set);

}  // namespace detail

}  // namespace bruck::coll
