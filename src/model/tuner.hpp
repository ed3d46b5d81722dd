// Radix and algorithm selection (Section 3.3: "r can be fine-tuned according
// to the parameters of the underlying machine to balance between the
// start-up time and the data transfer time").
//
// The tuner evaluates the exact cost formulas under a LinearModel and picks
// the minimizer.  Evaluating all candidate radices costs O(n·log n) digit
// censuses in the worst case — microseconds for n up to thousands — so the
// tuner simply enumerates rather than relying on a closed-form crossover.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "model/costs.hpp"
#include "model/linear_model.hpp"

namespace bruck::model {

struct RadixChoice {
  std::int64_t radix = 2;
  CostMetrics metrics;
  double predicted_us = 0.0;
  /// Learned wire-segment force carried by an adaptive override (0 = none;
  /// the facade resolves it through resolve_segment_knob like a user count).
  int segments_hint = 0;
};

/// Candidate filter for the radix sweep.
enum class RadixSet {
  kAll,          ///< every r in [2, max(2,n)]
  kPowersOfTwo,  ///< r ∈ {2, 4, 8, …} ∩ [2, n], plus r = n (the paper's Fig. 5 sweep)
  kPortAligned,  ///< r with (r−1) mod k == 0 (Section 3.4's advice), plus r = 2
};

/// All candidate radices for (n, set, k), sorted ascending.
[[nodiscard]] std::vector<std::int64_t> candidate_radices(std::int64_t n,
                                                          RadixSet set, int k);

/// The radix minimizing modeled time for the index operation (ties broken
/// toward the smaller radix, which has the fewer-rounds shape).
[[nodiscard]] RadixChoice pick_index_radix(std::int64_t n, int k,
                                           std::int64_t block_bytes,
                                           const LinearModel& machine,
                                           RadixSet set = RadixSet::kAll);

/// Memoized pick_index_radix, keyed on (n, k, block_bytes, machine's β/τ,
/// set).  The sweep is O(n·log n) digit censuses; the compiled-schedule hot
/// path calls this so that repeated kAuto collectives on one geometry skip
/// the tuner entirely (the chosen radix then keys the PlanCache).
/// Thread-safe.
[[nodiscard]] RadixChoice pick_index_radix_cached(
    std::int64_t n, int k, std::int64_t block_bytes,
    const LinearModel& machine, RadixSet set = RadixSet::kAll);

struct TunerCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Live entries in the adaptive-override table (tune::AdaptiveTuner's
  /// learned picks; see set_tuner_override below).
  std::uint64_t overrides = 0;
  /// pick_*_cached calls answered by an override instead of the model.
  std::uint64_t override_hits = 0;
};

/// Counters of the pick_*_cached family since process start (or last
/// clear).  `overrides`/`override_hits` cover the learned-override table,
/// so tests can assert a clean slate includes the adaptive state.
[[nodiscard]] TunerCacheStats tuner_cache_stats();
/// Clear every memo cache AND the learned-override table, then invoke the
/// reload hook (set_tuner_reload_hook) so a file-backed table can restore
/// its overrides — learned-in-memory state does not survive a clear, but
/// state whose source of truth is a table file does.
void clear_tuner_cache();

// ---------------------------------------------------------------------------
// Irregular (vector) index tuning.  A skewed alltoallv has no single block
// size to tune from; the pick is driven by the shape's aggregate
// statistics: the total bytes of the whole n×n exchange and the heaviest
// single (source, destination) pair.

struct VectorIndexChoice {
  /// True: run direct exchange.  False: run Bruck with `radix`.
  bool direct = false;
  std::int64_t radix = 2;
  /// Modeled measures of the winning algorithm (see pick_indexv for the
  /// effective block sizes used).
  CostMetrics predicted;
  double predicted_us = 0.0;
};

/// Pick algorithm + radix for an irregular index operation.  Direct
/// exchange is modeled at `max_pair_bytes` (its rounds are gated by the
/// heaviest message, and it never forwards); Bruck is modeled at the mean
/// pair size (max-padding only pads the local scratch — the wire carries
/// trimmed true sizes, so forwarded traffic scales with the mean).  A
/// heavily skewed shape (large max, small mean) therefore leans direct,
/// while many small blocks lean Bruck, matching the paper's uniform
/// trade-off in the two degenerate cases.  Pure function; never blocks.
[[nodiscard]] VectorIndexChoice pick_indexv(std::int64_t n, int k,
                                            std::int64_t total_bytes,
                                            std::int64_t max_pair_bytes,
                                            const LinearModel& machine,
                                            RadixSet set = RadixSet::kAll);

/// Memoized pick_indexv, keyed on the log2-bucketed (total, max) — the
/// same size-class bucketing as the PlanCache's shape digest, so a skewed
/// workload whose counts jitter within size classes reuses one decision
/// (and thereby one plan-cache key).  The bucketed inputs also feed the
/// computation, keeping the decision constant across each bucket.
/// Thread-safe; shares the tuner cache counters.
[[nodiscard]] VectorIndexChoice pick_indexv_cached(
    std::int64_t n, int k, std::int64_t total_bytes,
    std::int64_t max_pair_bytes, const LinearModel& machine,
    RadixSet set = RadixSet::kAll);

// ---------------------------------------------------------------------------
// Reduce-scatter tuning.  The combine cost enters the model through the
// machine's γ term (LinearModel::predict_reduce_us): every received byte is
// also combined serially on the receiving rank, so the objective is
// C1·β + C2·τ + γ·max_rank_recv.  Every pattern we lower receives exactly
// (n−1)·b bytes per rank, so γ prices all algorithms' combine work equally
// and the pick stays driven by the communication terms — γ exists so the
// *predicted time* is honest (and so future unequal-volume patterns tune
// correctly).

struct ReduceScatterChoice {
  /// True: run direct exchange.  False: run the Bruck skeleton with `radix`.
  bool direct = false;
  std::int64_t radix = 2;
  CostMetrics predicted;
  double predicted_us = 0.0;
  /// Learned wire-segment force (see RadixChoice::segments_hint).
  int segments_hint = 0;
};

/// The radix minimizing predict_reduce_us over reduce_bruck_cost (ties
/// toward the smaller radix).  Pure function.
[[nodiscard]] RadixChoice pick_reduce_radix(std::int64_t n, int k,
                                            std::int64_t block_bytes,
                                            const LinearModel& machine,
                                            RadixSet set = RadixSet::kAll);

/// Pick algorithm + radix for a reduce-scatter: the best Bruck radix vs
/// direct exchange, both under the γ-extended model.  Pure function.
[[nodiscard]] ReduceScatterChoice pick_reduce_scatter(
    std::int64_t n, int k, std::int64_t block_bytes,
    const LinearModel& machine, RadixSet set = RadixSet::kAll);

/// Memoized pick_reduce_scatter, keyed on (n, k, b, set, β/τ/γ bits); the
/// chosen algorithm and radix then key the PlanCache.  Thread-safe; shares
/// the tuner cache counters.
[[nodiscard]] ReduceScatterChoice pick_reduce_scatter_cached(
    std::int64_t n, int k, std::int64_t block_bytes,
    const LinearModel& machine, RadixSet set = RadixSet::kAll);

/// The full modeled trade-off curve: one entry per candidate radix.
[[nodiscard]] std::vector<RadixChoice> index_radix_curve(
    std::int64_t n, int k, std::int64_t block_bytes, const LinearModel& machine,
    RadixSet set = RadixSet::kAll);

/// Block size at which the modeled times of two radices cross, found by
/// scanning block sizes in [1, limit].  Returns 0 if they never cross.
/// Used to reproduce Fig. 5's break-even observation (~100–200 bytes between
/// r = 2 and r = n on the SP-1 model at n = 64).
[[nodiscard]] std::int64_t crossover_block_bytes(std::int64_t n, int k,
                                                 std::int64_t radix_a,
                                                 std::int64_t radix_b,
                                                 const LinearModel& machine,
                                                 std::int64_t limit = 1 << 20);

// ---------------------------------------------------------------------------
// Hierarchical (two-level leader-model) tuning.  A flat algorithm sends
// across group boundaries, so on a TwoLevelModel it is priced entirely under
// `inter`; a hierarchical candidate prices its gather/scatter stages under
// `intra` and only the leader exchange under `inter`.  The tuner sweeps the
// group size g (and the inter-leader radix where one applies) and reports
// whether the best hierarchy beats the best flat algorithm.

struct HierChoice {
  /// True: the best hierarchical shape is strictly cheaper than flat.
  bool hier = false;
  /// Nominal group size of the best hierarchical candidate (1 when n == 1).
  std::int64_t group = 1;
  /// Inter-leader radix of the best hierarchical candidate (index/reduce
  /// only; 2 for concat, whose inter stage has no radix).
  std::int64_t inter_radix = 2;
  /// Radix of the best *flat* algorithm (index/reduce only; 2 for concat).
  std::int64_t flat_radix = 2;
  double flat_us = 0.0;
  double hier_us = 0.0;
  /// Stage measures of the best hierarchical candidate.
  HierCost hier_cost;
};

/// Predicted time (µs) of a hierarchical non-reducing collective: intra
/// stages under machine.intra, the leader exchange under machine.inter.
[[nodiscard]] double predict_hier_us(const TwoLevelModel& machine,
                                     const HierCost& h);

/// Reducing variant: the leader exchange is priced with the γ-extended
/// predict_reduce_us, and the leader-local splice combines add
/// intra.γ · local_combine_bytes (they run at memory speed on the leader).
[[nodiscard]] double predict_hier_reduce_us(const TwoLevelModel& machine,
                                            const HierCost& h);

/// Flat-vs-hierarchical pick for the index operation (alltoall).  Sweeps
/// g ∈ [2, n] (or only `forced_group` when > 0) and, per g, the inter
/// radices candidate_radices(G, set, k).  `group`/`inter_radix` always name
/// the best hierarchical candidate even when flat wins, so a forced-on knob
/// can still run the best shape.  Ties break toward flat, then smaller g.
[[nodiscard]] HierChoice pick_index_plan(std::int64_t n, int k,
                                         std::int64_t block_bytes,
                                         const TwoLevelModel& machine,
                                         RadixSet set = RadixSet::kAll,
                                         std::int64_t forced_group = 0);

/// Memoized pick_index_plan, keyed on (n, k, b, set, forced_group, both
/// models' β/τ/γ bits).  Thread-safe; shares the tuner cache counters.
[[nodiscard]] HierChoice pick_index_plan_cached(
    std::int64_t n, int k, std::int64_t block_bytes,
    const TwoLevelModel& machine, RadixSet set = RadixSet::kAll,
    std::int64_t forced_group = 0);

/// Flat-vs-hierarchical pick for concatenation (allgather).  The inter
/// stage has no radix; `strategy` resolves against the super-block size
/// inside the cost formula.
[[nodiscard]] HierChoice pick_concat_plan(
    std::int64_t n, int k, std::int64_t block_bytes,
    const TwoLevelModel& machine,
    ConcatLastRound strategy = ConcatLastRound::kAuto,
    std::int64_t forced_group = 0);

/// Memoized pick_concat_plan.  Thread-safe; shares the tuner counters.
[[nodiscard]] HierChoice pick_concat_plan_cached(
    std::int64_t n, int k, std::int64_t block_bytes,
    const TwoLevelModel& machine,
    ConcatLastRound strategy = ConcatLastRound::kAuto,
    std::int64_t forced_group = 0);

/// Flat-vs-hierarchical pick for reduce-scatter (γ-extended model on the
/// reducing stages).
[[nodiscard]] HierChoice pick_reduce_plan(std::int64_t n, int k,
                                          std::int64_t block_bytes,
                                          const TwoLevelModel& machine,
                                          RadixSet set = RadixSet::kAll,
                                          std::int64_t forced_group = 0);

/// Memoized pick_reduce_plan.  Thread-safe; shares the tuner counters.
[[nodiscard]] HierChoice pick_reduce_plan_cached(
    std::int64_t n, int k, std::int64_t block_bytes,
    const TwoLevelModel& machine, RadixSet set = RadixSet::kAll,
    std::int64_t forced_group = 0);

// ---------------------------------------------------------------------------
// Wire segmentation (the pipelined executor's per-message pipelining knob).

struct SegmentChoice {
  int segments = 1;
  double predicted_us = 0.0;
};

/// Segment-size floor shared by the tuner and the pipelined executor:
/// slices under this size cost more in per-message overhead than their
/// overlap buys on every profile we model.  The executor applies it per
/// message (a plan-wide S never splits the small early-round messages of a
/// geometrically growing pattern), the tuner when picking S.
inline constexpr std::int64_t kMinSegmentBytes = 4096;

/// Modeled time of one communication round whose largest message is
/// `message_bytes`, shipped in `segments` pipeline segments through the
/// executor's three overlapped stages (pack → wire → unpack):
///   T(S) = (S + 2) · (β + τ·m/S).
/// S = 1 degenerates to the unpipelined 3·(β + τ·m); raising S shrinks the
/// per-stage payload but pays one more per-segment start-up — the classic
/// latency-for-overlap trade.
[[nodiscard]] double pipelined_round_us(const LinearModel& machine,
                                        std::int64_t message_bytes,
                                        int segments);

/// The segment count minimizing Σ rounds · pipelined_round_us, enumerated
/// over S ∈ [1, max_segments] with segments no smaller than
/// `min_segment_bytes` (sub-4-KiB slices cost more in per-message overhead
/// than their overlap buys on every profile we model).  Ties break toward
/// the smaller S.  `message_bytes` is the per-round maximum message size
/// (C2/C1 of the plan's predicted metrics is the natural estimate).
[[nodiscard]] SegmentChoice pick_segment_count(
    const LinearModel& machine, std::int64_t rounds,
    std::int64_t message_bytes, int max_segments = 16,
    std::int64_t min_segment_bytes = kMinSegmentBytes);

/// Resolve a user-facing segment knob to the count that keys the PlanCache:
/// 0 means "tune from the predicted metrics" (per-round message size
/// ≈ C2/C1), an explicit S is clamped against the kMinSegmentBytes
/// per-message floor the tuner and executor both apply.  A forced S the
/// floor would collapse anyway must resolve — and key the cache — exactly
/// like the tuned pick, or one geometry caches two plans for the same
/// effective execution.  `pipelined = false` resolves to 1 (no wire
/// segmentation).  Every library caller passes true — the plan executor
/// always segments — and the parameter stays for external callers that
/// key plans themselves.
[[nodiscard]] int resolve_segment_knob(int requested, bool pipelined,
                                       const LinearModel& machine,
                                       const CostMetrics& predicted);

// ---------------------------------------------------------------------------
// Nonblocking fusion (the progress engine's batching knob).  G pending
// same-geometry collectives can run as one wire exchange over blocks of
// G·b — the start-up term β is paid once per round instead of G times — at
// the price of a local gather into the fused layout before posting and a
// scatter back on completion.

// The per-byte price of those local gather/scatter passes is
// model::kPackUsPerByte (costs.hpp) — shared with the strided-layout pack
// term so one constant governs all modeled local memory movement.

struct FusionChoice {
  /// True: run the G members as one fused exchange at block G·b.
  bool fuse = false;
  /// Modeled time of running the G members back-to-back, unfused.
  double serial_us = 0.0;
  /// Modeled time of the fused exchange plus both pack/unpack passes.
  double fused_us = 0.0;
};

/// Decide whether G pending same-shape collectives should fuse.
/// `per_op` is the modeled measures of one member at its own block size;
/// `fused` the measures of the same pattern at block G·b; `user_bytes` the
/// mean of one member's send and recv buffer lengths (each buffer crosses
/// the fused staging area once, on every member).  Deterministic pure
/// function: every rank of an SPMD group makes the identical decision.
[[nodiscard]] FusionChoice pick_fusion(int group, const LinearModel& machine,
                                       const CostMetrics& per_op,
                                       const CostMetrics& fused,
                                       std::int64_t user_bytes);

// ---------------------------------------------------------------------------
// Learned-override seam.  The src/tune adaptive autotuner (and a loaded
// BRUCK_TUNE_TABLE) speaks to the pick_*_cached family through this
// registry: a TunerQuery names one tuned decision point (family, geometry,
// machine-constant bits — the same key material the memo caches use), a
// TunerConfig names one concrete runnable configuration.  Overrides are
// consulted *before* the memo caches, so a learned pick wins over the
// model's for exactly the keyed geometry and machine.  The model layer owns
// only the registry; all measurement, hysteresis, and persistence policy
// lives in src/tune (which depends on model, never the reverse).

enum class TunedFamily : int {
  kIndexRadix = 0,     ///< pick_index_radix_cached (alltoall radix)
  kIndexVector = 1,    ///< pick_indexv_cached (alltoallv direct-vs-Bruck)
  kReduceScatter = 2,  ///< pick_reduce_scatter_cached
  kHierIndex = 3,      ///< pick_index_plan_cached (flat vs hierarchical)
  kHierConcat = 4,     ///< pick_concat_plan_cached
  kHierReduce = 5,     ///< pick_reduce_plan_cached
};

[[nodiscard]] const char* to_string(TunedFamily family);
/// Strict parse of a to_string(TunedFamily) name; anything else ⇒ nullopt.
[[nodiscard]] std::optional<TunedFamily> parse_tuned_family(const char* text);

/// One concrete configuration a tuned decision point can run.  Zero-valued
/// fields mean "no opinion — keep the model's choice / resolve normally".
struct TunerConfig {
  /// Index-vector / reduce-scatter families: run the direct exchange.
  bool direct = false;
  /// Bruck radix (flat families) or inter-leader radix (hier families).
  std::int64_t radix = 0;
  /// Forced wire-segment count (resolved through resolve_segment_knob, so
  /// the kMinSegmentBytes floor still clamps it).
  int segments = 0;
  /// Hier families only: 1 forces the hierarchical shape, 0 forces flat,
  /// -1 means not applicable.
  int hier = -1;
  /// Hier families only: nominal group size (0 = the tuner's sweep).
  std::int64_t group = 0;

  friend bool operator==(const TunerConfig&, const TunerConfig&) = default;
};

/// One tuned decision point.  The machine constants enter as bit patterns
/// (model_bits) — the memo caches' keying idiom — so a learned entry never
/// leaks across machines.  For hier families the bits are the *inter*
/// model's (the level that dominates the flat-vs-hier comparison).
struct TunerQuery {
  TunedFamily family = TunedFamily::kIndexRadix;
  std::int64_t n = 0;
  int k = 0;
  std::int64_t block_bytes = 0;
  std::uint64_t beta_bits = 0;
  std::uint64_t tau_bits = 0;
  std::uint64_t gamma_bits = 0;

  friend auto operator<=>(const TunerQuery&, const TunerQuery&) = default;
};

/// The bit pattern of a double — the exact-round-trip currency of tuner
/// keys and the persisted table (two models predicting identical times are
/// the same key; NaN never reaches the tuner).
[[nodiscard]] std::uint64_t model_bits(double v);

[[nodiscard]] TunerQuery make_tuner_query(TunedFamily family, std::int64_t n,
                                          int k, std::int64_t block_bytes,
                                          const LinearModel& machine);

/// Install (or replace) the learned configuration for one decision point.
void set_tuner_override(const TunerQuery& query, const TunerConfig& config);
/// The learned configuration for a decision point, if any.
[[nodiscard]] std::optional<TunerConfig> tuner_override(
    const TunerQuery& query);
[[nodiscard]] std::size_t tuner_override_count();
/// Every live override, in key order (the persistence serializer's input).
[[nodiscard]] std::vector<std::pair<TunerQuery, TunerConfig>>
tuner_overrides();
void clear_tuner_overrides();

/// Live-exploration hook: consulted by the facade (coll::alltoall /
/// reduce_scatter) after the model's choice is fully resolved (radix AND
/// wire segments).  Returning a config reroutes this one execution;
/// std::nullopt keeps the model's.  Deterministic across SPMD ranks by
/// contract — every rank must be handed the identical schedule or plans
/// diverge and the exchange deadlocks (tune::AdaptiveTuner guarantees this
/// with a per-key call-ordinal schedule).
using AdaptiveHook = std::function<std::optional<TunerConfig>(
    const TunerQuery&, const TunerConfig&)>;
void set_adaptive_hook(AdaptiveHook hook);
[[nodiscard]] bool adaptive_hook_installed();
/// model_choice routed through the installed hook (identity when none).
[[nodiscard]] TunerConfig adaptive_decision(const TunerQuery& query,
                                            const TunerConfig& model_choice);

/// One executed collective as fed back to the learner: what ran, how long
/// it took on the wall, and what the model had predicted.
struct ExecutionSample {
  TunerQuery query;
  TunerConfig config;
  double wall_us = 0.0;
  double predicted_us = 0.0;
};
using ObservationHook = std::function<void(const ExecutionSample&)>;
void set_observation_hook(ObservationHook hook);
[[nodiscard]] bool observation_hook_installed();
void notify_execution(const ExecutionSample& sample);

/// Invoked at the end of clear_tuner_cache (outside the registry locks):
/// a file-backed tune table re-installs its overrides here, which is what
/// makes "survives a clear only when the table file is the source" true.
void set_tuner_reload_hook(std::function<void()> hook);

// ---------------------------------------------------------------------------
// Calibrated-machine substitution.  tune::calibrate publishes the measured
// per-fabric model here; the coll:: facade swaps it in wherever the caller
// left the option struct's machine at its compiled-in default.  The
// substitution is sentinel-based: a machine whose β/τ/γ bits equal
// ibm_sp1()'s (the default of every options struct) is replaced by the
// active model — an explicitly passed ibm_sp1() is indistinguishable from
// the default and is substituted too (documented behavior; pass a model
// with any different bit to opt out).

void set_active_machine(const std::optional<LinearModel>& machine);
[[nodiscard]] std::optional<LinearModel> active_machine();
[[nodiscard]] LinearModel effective_machine(const LinearModel& requested);

void set_active_two_level(const std::optional<TwoLevelModel>& machine);
[[nodiscard]] std::optional<TwoLevelModel> active_two_level();
[[nodiscard]] TwoLevelModel effective_two_level(const TwoLevelModel& requested);

// ---------------------------------------------------------------------------
// Tuning epoch.  Every writer of the process-global tuning state above
// (set_active_machine, set_active_two_level, set_tuner_override,
// clear_tuner_overrides, clear_tuner_cache) and coll::PlanCache::clear
// bumps this counter *after* its write.  A caller that memoizes a resolved
// decision reads the epoch before resolving and keeps the decision only
// while the epoch is unchanged: a resolution that raced a write is stored
// under the older epoch and misses on its next use.

/// The current epoch (acquire: a caller that reads epoch E also sees every
/// state write that preceded the bump to E).
[[nodiscard]] std::uint64_t tuning_epoch();
/// Invalidate every memoized resolution (release).
void bump_tuning_epoch();

}  // namespace bruck::model
