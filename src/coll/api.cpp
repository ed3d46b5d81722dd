#include "coll/api.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "coll/bcast.hpp"
#include "coll/call_memo.hpp"
#include "coll/composite.hpp"
#include "coll/gather_scatter.hpp"
#include "coll/plan_cache.hpp"
#include "coll/progress.hpp"
#include "coll/vector_reference.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace bruck::coll {

std::string to_string(IndexAlgorithm a) {
  switch (a) {
    case IndexAlgorithm::kBruck: return "bruck";
    case IndexAlgorithm::kDirect: return "direct";
    case IndexAlgorithm::kPairwise: return "pairwise";
    case IndexAlgorithm::kAuto: return "auto";
  }
  return "?";
}

std::string to_string(ConcatAlgorithm a) {
  switch (a) {
    case ConcatAlgorithm::kBruck: return "bruck";
    case ConcatAlgorithm::kFolklore: return "folklore";
    case ConcatAlgorithm::kRing: return "ring";
    case ConcatAlgorithm::kAuto: return "auto";
  }
  return "?";
}

std::string to_string(ExecutionPath p) {
  switch (p) {
    case ExecutionPath::kReference: return "reference";
    case ExecutionPath::kPipelined: return "pipelined";
  }
  return "?";
}

std::string to_string(ReduceAlgorithm a) {
  switch (a) {
    case ReduceAlgorithm::kBruck: return "bruck";
    case ReduceAlgorithm::kDirect: return "direct";
    case ReduceAlgorithm::kPairwise: return "pairwise";
    case ReduceAlgorithm::kAuto: return "auto";
  }
  return "?";
}

std::string to_string(HierMode m) {
  switch (m) {
    case HierMode::kDefault: return "default";
    case HierMode::kOff: return "off";
    case HierMode::kOn: return "on";
    case HierMode::kAuto: return "auto";
  }
  return "?";
}

std::optional<HierMode> parse_hier_mode(const char* text) {
  if (text == nullptr) return std::nullopt;
  const std::string_view s(text);
  if (s == "off") return HierMode::kOff;
  if (s == "on") return HierMode::kOn;
  if (s == "auto") return HierMode::kAuto;
  return std::nullopt;
}

std::optional<std::int64_t> parse_hier_group(const char* text) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0') return std::nullopt;  // junk / trailing junk
  if (errno == ERANGE) return std::nullopt;
  if (v < 0 || v > (1 << 20)) return std::nullopt;
  return static_cast<std::int64_t>(v);
}

HierMode default_hier_mode() {
  const char* env = std::getenv("BRUCK_HIER");
  if (env == nullptr) return HierMode::kOff;
  if (const auto parsed = parse_hier_mode(env)) return *parsed;
  static std::once_flag warned;
  std::call_once(warned, [env] {
    std::fprintf(stderr,
                 "bruck: ignoring invalid BRUCK_HIER=\"%s\" "
                 "(want off|on|auto); using off\n",
                 env);
  });
  return HierMode::kOff;
}

std::int64_t default_hier_group() {
  const char* env = std::getenv("BRUCK_HIER_GROUP_SIZE");
  if (env == nullptr) return 0;
  if (const auto parsed = parse_hier_group(env)) return *parsed;
  static std::once_flag warned;
  std::call_once(warned, [env] {
    std::fprintf(stderr,
                 "bruck: ignoring invalid BRUCK_HIER_GROUP_SIZE=\"%s\" "
                 "(want an integer in [0, 1048576]); using 0\n",
                 env);
  });
  return 0;
}

namespace {

/// Option-level hier knobs resolved against the environment: kDefault
/// defers to BRUCK_HIER, a zero group to BRUCK_HIER_GROUP_SIZE.
HierMode resolve_hier_mode(HierMode mode) {
  return mode == HierMode::kDefault ? default_hier_mode() : mode;
}

std::int64_t resolve_hier_group(std::int64_t group) {
  return group != 0 ? group : default_hier_group();
}

/// Whether the plain-overload compiled path should run the hierarchical
/// composite: the knob resolves past kOff, the geometry is non-degenerate,
/// and the caller didn't force a non-Bruck flat algorithm (`bruck_family`).
bool hier_eligible(HierMode resolved, std::int64_t n, std::int64_t block_bytes,
                   bool bruck_family) {
  return resolved != HierMode::kOff && n > 1 && block_bytes > 0 &&
         bruck_family;
}

/// Microseconds since `start` on the wall clock (the adaptive tuner's
/// feedback signal).
double wall_since_us(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<
             std::chrono::duration<double, std::micro>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// The blocking facade's one execution tail: run `plan` through
/// Plan::run_pipelined with the family's run arguments (block size or
/// VectorView, ReduceOp, start round, layouts), and report the
/// cache/round/byte statistics as a PlanEvent.  `wall_out`, when given,
/// receives the measured execution wall time in microseconds (also carried
/// on the PlanEvent).
template <typename... RunArgs>
int run_plan(mps::Communicator& comm, const Plan& plan, bool cache_hit,
             double* wall_out, std::span<const std::byte> send,
             std::span<std::byte> recv, const RunArgs&... args) {
  const auto start = std::chrono::steady_clock::now();
  const PlanExecution ex = plan.run_pipelined(comm, send, recv, args...);
  const double wall_us = wall_since_us(start);
  mps::PlanEvent event{cache_hit, plan.round_count(), ex.bytes_sent,
                       ex.bytes_reduced};
  event.wall_us = wall_us;
  comm.record_plan_event(event);
  if (wall_out != nullptr) *wall_out = wall_us;
  return ex.next_round;
}

/// run_plan on the plan for `key`, fetched (or lowered once) from the
/// PlanCache.
template <typename... RunArgs>
int run_compiled(mps::Communicator& comm, const PlanKey& key,
                 double* wall_out, std::span<const std::byte> send,
                 std::span<std::byte> recv, const RunArgs&... args) {
  const PlanCache::Lookup lookup = PlanCache::global().get_or_lower(key);
  return run_plan(comm, *lookup.plan, lookup.cache_hit, wall_out, send, recv,
                  args...);
}

/// A flat call's recipe and plan, and whether they came without planning
/// work (a memo hit or a PlanCache hit).
struct ResolvedCall {
  const CallMemo::Entry& entry;
  bool cache_hit = false;
};

/// The recipe and plan for `signature`: the communicator's memo entry when
/// it is current, else `resolve()` and the PlanCache, remembered for the
/// next call (see coll/call_memo.hpp).  The epoch is read before resolving,
/// so a resolution that races a tuning-state write is stored under the
/// older epoch and misses next time.
template <typename Resolve>
ResolvedCall resolve_memoized(mps::Communicator& comm,
                              const CallSignature& signature,
                              const Resolve& resolve) {
  CallMemo& memo = CommState::of(comm).memo;
  const std::uint64_t epoch = model::tuning_epoch();
  if (const CallMemo::Entry* hit = memo.find(signature, epoch)) {
    PlanCache::global().note_hit();
    return {*hit, true};
  }
  const Recipe recipe = resolve();
  PlanCache::Lookup lookup = PlanCache::global().get_or_lower(recipe.key);
  return {memo.store(signature, epoch, recipe, std::move(lookup.plan)),
          lookup.cache_hit};
}

/// The wire segment count for `predicted` under the user knob `requested`.
/// A learned tuner force (`hint`, 0 = none) stands in for an untouched
/// knob and goes through the same clamp as a user-requested count.
int resolve_segments(int requested, int hint,
                     const model::LinearModel& machine,
                     const model::CostMetrics& predicted) {
  return model::resolve_segment_knob(
      requested == 0 && hint > 0 ? hint : requested, /*pipelined=*/true,
      machine, predicted);
}

/// plan_alltoall under an already effective `machine`.
AlltoallPlan plan_alltoall_under(std::int64_t n, int k,
                                 std::int64_t block_bytes,
                                 const AlltoallOptions& options,
                                 const model::LinearModel& machine) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  AlltoallPlan plan;
  switch (options.algorithm) {
    case IndexAlgorithm::kDirect:
      plan.algorithm = IndexAlgorithm::kDirect;
      plan.radix = std::max<std::int64_t>(2, n);
      plan.predicted = model::index_direct_cost(n, k, block_bytes);
      break;
    case IndexAlgorithm::kPairwise:
      plan.algorithm = IndexAlgorithm::kPairwise;
      plan.radix = std::max<std::int64_t>(2, n);
      plan.predicted = model::index_pairwise_cost(n, k, block_bytes);
      break;
    case IndexAlgorithm::kBruck:
    case IndexAlgorithm::kAuto: {
      plan.algorithm = IndexAlgorithm::kBruck;
      if (options.radix != 0) {
        plan.radix = options.radix;
        plan.predicted =
            model::index_bruck_cost(n, plan.radix, k, block_bytes);
      } else {
        // Memoized: repeated kAuto calls on one geometry skip the sweep.
        const model::RadixChoice choice = model::pick_index_radix_cached(
            n, k, block_bytes, machine, options.radix_set);
        plan.radix = choice.radix;
        plan.predicted = choice.metrics;
        plan.segments_hint = choice.segments_hint;
      }
      break;
    }
  }
  plan.predicted_us = machine.predict_us(plan.predicted);
  return plan;
}

Recipe resolve_alltoall(std::int64_t n, int k, std::int64_t block_bytes,
                        const AlltoallOptions& options,
                        const LayoutPair& layouts = {}) {
  Recipe r;
  r.machine = model::effective_machine(options.machine);
  const AlltoallPlan plan =
      plan_alltoall_under(n, k, block_bytes, options, r.machine);
  r.predicted = plan.predicted;
  r.key = index_plan_key(
      plan.algorithm, n, k, plan.radix,
      resolve_segments(options.segments, plan.segments_hint, r.machine,
                       plan.predicted),
      layout_digest(layouts.send, layouts.recv));
  return r;
}

Recipe resolve_allgather(std::int64_t n, int k, std::int64_t block_bytes,
                         const AllgatherOptions& options,
                         const LayoutPair& layouts = {}) {
  const ConcatAlgorithm algorithm =
      options.algorithm == ConcatAlgorithm::kAuto ? ConcatAlgorithm::kBruck
                                                  : options.algorithm;
  // Canonicalize the last-round strategy so equal geometries share a key
  // (the same resolution concat_bruck_cost and the builder apply).
  const model::ConcatLastRound strategy =
      algorithm == ConcatAlgorithm::kBruck
          ? model::resolve_concat_last_round(n, k, block_bytes,
                                             options.last_round)
          : options.last_round;
  Recipe r;
  r.machine = model::effective_machine(options.machine);
  switch (algorithm) {
    case ConcatAlgorithm::kBruck:
    case ConcatAlgorithm::kAuto:
      r.predicted = model::concat_bruck_cost(n, k, block_bytes, strategy);
      break;
    case ConcatAlgorithm::kFolklore:
      r.predicted = model::concat_folklore_cost(n, block_bytes);
      break;
    case ConcatAlgorithm::kRing:
      r.predicted = model::concat_ring_cost(n, block_bytes);
      break;
  }
  r.key = concat_plan_key(
      algorithm, n, k, strategy, block_bytes,
      resolve_segments(options.segments, 0, r.machine, r.predicted),
      layout_digest(layouts.send, layouts.recv));
  return r;
}

Recipe resolve_reduce_scatter(std::int64_t n, int k, std::int64_t block_bytes,
                              const ReduceOp& op,
                              const ReduceScatterOptions& options,
                              const LayoutPair& layouts = {}) {
  Recipe r;
  r.machine = model::effective_machine(options.machine);
  // The effective machine passes through resolve_reduce_algorithm's own
  // effective_machine unchanged (the substitution is idempotent).
  const detail::ReducePlanChoice choice = detail::resolve_reduce_algorithm(
      n, k, block_bytes, options.algorithm, options.radix, r.machine,
      options.radix_set);
  r.predicted = choice.predicted;
  r.key = reduce_plan_key(
      choice.algorithm, n, k, choice.radix, op,
      resolve_segments(options.segments, choice.segments_hint, r.machine,
                       choice.predicted),
      layout_digest(layouts.send, layouts.recv));
  return r;
}

/// The memoized resolution of a flat call on `comm`, one per family.
ResolvedCall resolve_call(mps::Communicator& comm, std::int64_t block_bytes,
                          const AlltoallOptions& options,
                          const LayoutPair& layouts = {}) {
  const std::int64_t n = comm.size();
  const int k = comm.ports();
  return resolve_memoized(
      comm, call_signature(n, k, block_bytes, options, layouts),
      [&] { return resolve_alltoall(n, k, block_bytes, options, layouts); });
}

ResolvedCall resolve_call(mps::Communicator& comm, std::int64_t block_bytes,
                          const AllgatherOptions& options,
                          const LayoutPair& layouts = {}) {
  const std::int64_t n = comm.size();
  const int k = comm.ports();
  return resolve_memoized(
      comm, call_signature(n, k, block_bytes, options, layouts),
      [&] { return resolve_allgather(n, k, block_bytes, options, layouts); });
}

ResolvedCall resolve_call(mps::Communicator& comm, std::int64_t block_bytes,
                          const ReduceOp& op,
                          const ReduceScatterOptions& options,
                          const LayoutPair& layouts = {}) {
  const std::int64_t n = comm.size();
  const int k = comm.ports();
  return resolve_memoized(
      comm, call_signature(n, k, block_bytes, op, options, layouts), [&] {
        return resolve_reduce_scatter(n, k, block_bytes, op, options,
                                      layouts);
      });
}

/// Run a plain blocking call's recipe through `run(key, wall_out)`, with
/// live adaptive exploration when the call is fully tuner-driven (Bruck,
/// no forced radix or segment count) and a tuner installed the hook.  Such
/// calls come here instead of through the call memo.  The
/// decided config — not its clamped resolution — is echoed back with the
/// measured wall time so the learner can match the arm it scheduled.
template <typename Run>
int run_tuned(model::TunedFamily family, std::int64_t n, int k,
              std::int64_t block_bytes, const Recipe& r, bool tuner_driven,
              const Run& run) {
  if (!tuner_driven || !model::adaptive_hook_installed()) {
    return run(r.key, nullptr);
  }
  const model::TunerQuery query =
      model::make_tuner_query(family, n, k, block_bytes, r.machine);
  model::TunerConfig base;
  base.radix = r.key.radix;
  base.segments = r.key.segments;
  const model::TunerConfig decided = model::adaptive_decision(query, base);
  PlanKey key = r.key;
  if (decided.radix > 0) key.radix = decided.radix;
  if (decided.segments > 0) key.segments = decided.segments;
  double wall_us = 0.0;
  const int next = run(key, &wall_us);
  model::ExecutionSample sample;
  sample.query = query;
  sample.config = decided;
  sample.wall_us = wall_us;
  sample.predicted_us = family == model::TunedFamily::kReduceScatter
                            ? r.machine.predict_reduce_us(r.predicted)
                            : r.machine.predict_us(r.predicted);
  model::notify_execution(sample);
  return next;
}

/// The layout overloads' shared contract: both layouts carry the same
/// logical block size, and the buffers cover `send_blocks` / `recv_blocks`
/// layout-mapped blocks.  Returns that block size.
std::int64_t check_layouts(std::span<const std::byte> send,
                           std::span<std::byte> recv, const Layout& send_layout,
                           const Layout& recv_layout, std::int64_t send_blocks,
                           std::int64_t recv_blocks) {
  const std::int64_t b = send_layout.block_bytes();
  BRUCK_REQUIRE_MSG(recv_layout.block_bytes() == b,
                    "send and recv layouts must carry the same logical "
                    "block size");
  BRUCK_REQUIRE_MSG(
      static_cast<std::int64_t>(send.size()) >=
              send_layout.span_bytes(send_blocks) &&
          static_cast<std::int64_t>(recv.size()) >=
              recv_layout.span_bytes(recv_blocks),
      "buffers must cover the layouts' physical span");
  return b;
}

bool both_contiguous(const Layout& send_layout, const Layout& recv_layout) {
  return send_layout.is_contiguous() && recv_layout.is_contiguous();
}

/// Reductions combine whole op elements.
void check_whole_elems(std::int64_t bytes, const ReduceOp& op) {
  BRUCK_REQUIRE(bytes >= 0);
  BRUCK_REQUIRE_MSG(op.elem_bytes() >= 1 && bytes % op.elem_bytes() == 0,
                    "payload must be a whole number of op elements");
}

/// The common part of every nonblocking submission: the resolved recipe,
/// the payload buffers, the raw user segment knob and start round from
/// `options`, and (when given) value copies of the layouts.
template <typename Options>
OpSpec make_spec(OpSpec::Family family, std::span<const std::byte> send,
                 std::span<std::byte> recv, std::int64_t block_bytes,
                 const Recipe& r, const Options& options,
                 const LayoutPair& layouts) {
  OpSpec spec;
  spec.family = family;
  spec.send = send;
  spec.recv = recv;
  spec.block_bytes = block_bytes;
  spec.key = r.key;
  spec.predicted = r.predicted;
  spec.machine = r.machine;
  spec.requested_segments = options.segments;
  spec.start_round = options.start_round;
  if (layouts.send != nullptr) {
    spec.send_layout = *layouts.send;
    spec.recv_layout = *layouts.recv;
    spec.has_layout = true;
  }
  return spec;
}

/// make_spec for a memoized flat call: the spec also carries its plan.
template <typename Options>
OpSpec make_spec(OpSpec::Family family, std::span<const std::byte> send,
                 std::span<std::byte> recv, std::int64_t block_bytes,
                 const ResolvedCall& call, const Options& options,
                 const LayoutPair& layouts) {
  OpSpec spec = make_spec(family, send, recv, block_bytes, call.entry.recipe,
                          options, layouts);
  spec.plan = call.entry.plan;
  spec.plan_hit = call.cache_hit;
  return spec;
}

/// Packed canonical layout: block i at the prefix sum of the footprints
/// [0, i) — the sizes themselves, or their physical spans span_of(size)
/// under `layout` (identical for contiguous layouts).
std::vector<std::int64_t> prefix_displs(std::span<const std::int64_t> sizes,
                                        const Layout* layout = nullptr) {
  std::vector<std::int64_t> displs(sizes.size());
  std::int64_t pos = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    displs[i] = pos;
    pos += layout != nullptr ? layout->span_of(sizes[i]) : sizes[i];
  }
  return displs;
}

/// Row `rank` of the n×n count matrix: the bytes this rank sends.
std::span<const std::int64_t> count_row(std::span<const std::int64_t> counts,
                                        std::int64_t n, std::int64_t rank) {
  return counts.subspan(static_cast<std::size_t>(rank * n),
                        static_cast<std::size_t>(n));
}

/// Column `rank` of the n×n count matrix: the bytes this rank receives.
std::vector<std::int64_t> count_column(std::span<const std::int64_t> counts,
                                       std::int64_t n, std::int64_t rank) {
  std::vector<std::int64_t> col(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    col[static_cast<std::size_t>(i)] =
        counts[static_cast<std::size_t>(i * n + rank)];
  }
  return col;
}

/// An alltoallv call's validated shape, shared by the blocking, layout,
/// and nonblocking overloads: the count-matrix scan (total bytes and the
/// heaviest pair — the tuner's input and the padding stride) and the
/// displacement tables.  Empty tables default to the packed canonical
/// layout (in layout space when layouts are given).  The displacement spans
/// point into the caller's tables or the owned defaults, so the shape is
/// neither copied nor moved.
struct IndexvShape {
  IndexvShape(std::int64_t n, std::int64_t rank,
              std::span<const std::int64_t> counts,
              std::span<const std::int64_t> send,
              std::span<const std::int64_t> recv, const LayoutPair& layouts)
      : send_displs(send), recv_displs(recv) {
    BRUCK_REQUIRE_MSG(static_cast<std::int64_t>(counts.size()) == n * n,
                      "alltoallv needs the full n*n count matrix");
    for (const std::int64_t c : counts) {
      BRUCK_REQUIRE_MSG(c >= 0, "counts must be non-negative");
      total += c;
      max_pair = std::max(max_pair, c);
    }
    if (layouts.send != nullptr) {
      BRUCK_REQUIRE_MSG(layouts.send->block_bytes() >= max_pair &&
                            layouts.recv->block_bytes() >= max_pair,
                        "layouts must cover the largest pair count");
    }
    if (send_displs.empty()) {
      send_default = prefix_displs(count_row(counts, n, rank), layouts.send);
      send_displs = send_default;
    }
    if (recv_displs.empty()) {
      recv_default =
          prefix_displs(count_column(counts, n, rank), layouts.recv);
      recv_displs = recv_default;
    }
    BRUCK_REQUIRE(static_cast<std::int64_t>(send_displs.size()) == n);
    BRUCK_REQUIRE(static_cast<std::int64_t>(recv_displs.size()) == n);
  }
  IndexvShape(const IndexvShape&) = delete;
  IndexvShape& operator=(const IndexvShape&) = delete;

  std::int64_t total = 0;
  std::int64_t max_pair = 0;
  std::span<const std::int64_t> send_displs;
  std::span<const std::int64_t> recv_displs;
  std::vector<std::int64_t> send_default;
  std::vector<std::int64_t> recv_default;
};

Recipe resolve_alltoallv(std::int64_t n, int k, const IndexvShape& shape,
                         std::span<const std::int64_t> counts,
                         const AlltoallvOptions& options,
                         const LayoutPair& layouts) {
  const std::int64_t mean =
      std::max<std::int64_t>(1, (shape.total + n * n - 1) / (n * n));
  Recipe r;
  r.machine = model::effective_machine(options.machine);
  IndexAlgorithm algorithm = options.algorithm;
  std::int64_t radix = std::max<std::int64_t>(2, n);
  switch (options.algorithm) {
    case IndexAlgorithm::kDirect:
      r.predicted = model::index_direct_cost(n, k, shape.max_pair);
      break;
    case IndexAlgorithm::kPairwise:
      r.predicted = model::index_pairwise_cost(n, k, shape.max_pair);
      break;
    case IndexAlgorithm::kBruck:
      radix = options.radix != 0
                  ? options.radix
                  : model::pick_index_radix_cached(n, k, mean, r.machine,
                                                   options.radix_set)
                        .radix;
      r.predicted = model::index_bruck_cost(n, radix, k, mean);
      break;
    case IndexAlgorithm::kAuto: {
      const model::VectorIndexChoice choice = model::pick_indexv_cached(
          n, k, shape.total, shape.max_pair, r.machine, options.radix_set);
      algorithm =
          choice.direct ? IndexAlgorithm::kDirect : IndexAlgorithm::kBruck;
      radix = choice.radix;
      r.predicted = choice.predicted;
      break;
    }
  }
  r.key = indexv_plan_key(
      algorithm, n, k, radix, shape_digest(counts),
      resolve_segments(options.segments, 0, r.machine, r.predicted),
      layout_digest(layouts.send, layouts.recv));
  return r;
}

/// kReference under layouts: the per-pair oracle predates layouts, so
/// stage through packed copies around it.
int alltoallv_staged_reference(mps::Communicator& comm,
                               std::span<const std::byte> send,
                               std::span<std::byte> recv,
                               std::span<const std::int64_t> counts,
                               const IndexvShape& shape,
                               const LayoutPair& layouts, int start_round) {
  const std::int64_t n = comm.size();
  const std::int64_t rank = comm.rank();
  const std::span<const std::int64_t> row = count_row(counts, n, rank);
  const std::vector<std::int64_t> col = count_column(counts, n, rank);
  const std::vector<std::int64_t> packed_sd = prefix_displs(row);
  const std::vector<std::int64_t> packed_rd = prefix_displs(col);
  const auto at = [](std::span<const std::int64_t> v, std::int64_t i) {
    return v[static_cast<std::size_t>(i)];
  };
  std::vector<std::byte> s(
      static_cast<std::size_t>(packed_sd.back() + at(row, n - 1)));
  std::vector<std::byte> r(
      static_cast<std::size_t>(packed_rd.back() + at(col, n - 1)));
  for (std::int64_t j = 0; j < n; ++j) {
    layout_gather(send, *layouts.send, at(shape.send_displs, j), 0,
                  at(row, j),
                  std::span<std::byte>(s).subspan(
                      static_cast<std::size_t>(at(packed_sd, j)),
                      static_cast<std::size_t>(at(row, j))));
  }
  const int next = alltoallv_reference(comm, s, r, counts, packed_sd,
                                       packed_rd,
                                       VectorReferenceOptions{start_round});
  for (std::int64_t i = 0; i < n; ++i) {
    layout_scatter(recv, *layouts.recv, at(shape.recv_displs, i), 0,
                   at(col, i),
                   std::span<const std::byte>(r).subspan(
                       static_cast<std::size_t>(at(packed_rd, i)),
                       static_cast<std::size_t>(at(col, i))));
  }
  return next;
}

/// Both blocking alltoallv overloads (null layouts = the plain one).
int run_alltoallv(mps::Communicator& comm, std::span<const std::byte> send,
                  std::span<std::byte> recv,
                  std::span<const std::int64_t> counts,
                  std::span<const std::int64_t> send_displs,
                  std::span<const std::int64_t> recv_displs,
                  const AlltoallvOptions& options, const LayoutPair& layouts) {
  const std::int64_t n = comm.size();
  const IndexvShape shape(n, comm.rank(), counts, send_displs, recv_displs,
                          layouts);
  if (options.path == ExecutionPath::kReference) {
    if (layouts.send != nullptr) {
      return alltoallv_staged_reference(comm, send, recv, counts, shape,
                                        layouts, options.start_round);
    }
    return alltoallv_reference(comm, send, recv, counts, shape.send_displs,
                               shape.recv_displs,
                               VectorReferenceOptions{options.start_round});
  }
  const VectorView view{counts, shape.send_displs, shape.recv_displs,
                        shape.max_pair};
  return run_compiled(
      comm,
      resolve_alltoallv(n, comm.ports(), shape, counts, options, layouts).key,
      nullptr, send, recv, view, options.start_round, layouts);
}

/// Both nonblocking alltoallv overloads (null layouts = the plain one).
Request submit_ialltoallv(mps::Communicator& comm,
                          std::span<const std::byte> send,
                          std::span<std::byte> recv,
                          std::span<const std::int64_t> counts,
                          std::span<const std::int64_t> send_displs,
                          std::span<const std::int64_t> recv_displs,
                          const AlltoallvOptions& options,
                          const LayoutPair& layouts) {
  const std::int64_t n = comm.size();
  const IndexvShape shape(n, comm.rank(), counts, send_displs, recv_displs,
                          layouts);
  OpSpec spec = make_spec(
      OpSpec::Family::kAlltoallv, send, recv, /*block_bytes=*/0,
      resolve_alltoallv(n, comm.ports(), shape, counts, options, layouts),
      options, layouts);
  // The engine outlives the caller's tables: own every shape vector.
  spec.counts.assign(counts.begin(), counts.end());
  spec.send_displs.assign(shape.send_displs.begin(), shape.send_displs.end());
  spec.recv_displs.assign(shape.recv_displs.begin(), shape.recv_displs.end());
  spec.pad_bytes = shape.max_pair;
  return ProgressEngine::for_comm(comm).submit(std::move(spec));
}

/// Allreduce's stage block: ⌈elems/n⌉ op elements.  The tail block is
/// zero-padded identically on every rank; padded results are combined but
/// never copied back.
std::int64_t allreduce_block(std::int64_t n, std::int64_t bytes,
                             const ReduceOp& op) {
  const std::int64_t ew = op.elem_bytes();
  return (n > 0 ? ceil_div(bytes / ew, n) : 0) * ew;
}

/// The reduce-scatter stage of an allreduce: its tuning knobs, path, and
/// start round (the blocking stage also keeps the default hierarchy knob).
ReduceScatterOptions reduce_stage(const AllreduceOptions& options) {
  ReduceScatterOptions rs;
  rs.algorithm = options.algorithm;
  rs.radix = options.radix;
  rs.machine = options.machine;
  rs.radix_set = options.radix_set;
  rs.start_round = options.start_round;
  rs.path = options.path;
  rs.segments = options.segments;
  return rs;
}

/// The allgather stage of an allreduce, starting at `start_round`.
AllgatherOptions concat_stage(const AllreduceOptions& options,
                              int start_round) {
  AllgatherOptions ag;
  ag.algorithm = options.concat;
  ag.machine = options.machine;
  ag.start_round = start_round;
  ag.path = options.path;
  ag.segments = options.segments;
  return ag;
}

/// Both blocking allreduce overloads past the oracle (null layouts = the
/// plain one): reduce-scatter over allreduce_block blocks, then allgather
/// the reduced blocks.  Under layouts the gather into the padded scratch
/// walks the send layout and the final scatter walks the recv layout —
/// they replace the staging memcpys rather than adding copies — and the
/// wire stages run contiguous (no layout digest in their keys).
int run_allreduce(mps::Communicator& comm, std::span<const std::byte> send,
                  std::span<std::byte> recv, std::int64_t bytes,
                  const ReduceOp& op, const AllreduceOptions& options,
                  const LayoutPair& layouts) {
  const std::int64_t n = comm.size();
  const std::int64_t b = allreduce_block(n, bytes, op);
  const auto head = static_cast<std::size_t>(bytes);
  const auto whole = static_cast<std::size_t>(n * b);
  // Staging is never value-initialized: `padded` is fully written (the
  // user's bytes, then a zeroed pad tail), and the stages write every byte
  // of `reduced` and `gathered` before they are read.
  const auto padded = std::make_unique_for_overwrite<std::byte[]>(whole);
  if (layouts.send != nullptr) {
    layout_gather(send, *layouts.send, 0, 0, bytes,
                  std::span<std::byte>(padded.get(), head));
  } else if (bytes > 0) {
    std::memcpy(padded.get(), send.data(), head);
  }
  std::memset(padded.get() + head, 0, whole - head);
  const auto reduced =
      std::make_unique_for_overwrite<std::byte[]>(static_cast<std::size_t>(b));
  const int after_reduce = reduce_scatter(
      comm, std::span<const std::byte>(padded.get(), whole),
      std::span<std::byte>(reduced.get(), static_cast<std::size_t>(b)), b, op,
      reduce_stage(options));

  const auto gathered = std::make_unique_for_overwrite<std::byte[]>(whole);
  const int next = allgather(
      comm, std::span<const std::byte>(reduced.get(), static_cast<std::size_t>(b)),
      std::span<std::byte>(gathered.get(), whole), b,
      concat_stage(options, after_reduce));
  if (layouts.recv != nullptr) {
    layout_scatter(recv, *layouts.recv, 0, 0, bytes,
                   std::span<const std::byte>(gathered.get(), head));
  } else if (bytes > 0) {
    std::memcpy(recv.data(), gathered.get(), head);
  }
  return next;
}

/// Both nonblocking allreduce overloads (null layouts = the plain one):
/// the two stages are resolved up front by the reduce-scatter and
/// allgather resolvers, and the engine chains the allgather after the
/// reduce-scatter inside one tag namespace.  Layouts, when present, only
/// steer the engine's staging copies — neither stage key carries a layout
/// digest.
Request submit_iallreduce(mps::Communicator& comm,
                          std::span<const std::byte> send,
                          std::span<std::byte> recv, std::int64_t bytes,
                          const ReduceOp& op, const AllreduceOptions& options,
                          const LayoutPair& layouts) {
  const std::int64_t n = comm.size();
  const int k = comm.ports();
  const std::int64_t b = allreduce_block(n, bytes, op);
  OpSpec spec = make_spec(
      OpSpec::Family::kAllreduce, send, recv, b,
      resolve_reduce_scatter(n, k, b, op, reduce_stage(options)), options,
      layouts);
  spec.concat_key =
      resolve_allgather(n, k, b, concat_stage(options, options.start_round))
          .key;
  spec.op = op;
  return ProgressEngine::for_comm(comm).submit(std::move(spec));
}

}  // namespace

AlltoallPlan plan_alltoall(std::int64_t n, int k, std::int64_t block_bytes,
                           const AlltoallOptions& options) {
  // A default-machine caller gets the calibrated constants when a fabric
  // bootstrap published them (see model::effective_machine).
  return plan_alltoall_under(n, k, block_bytes, options,
                             model::effective_machine(options.machine));
}

int alltoall(mps::Communicator& comm, std::span<const std::byte> send,
             std::span<std::byte> recv, std::int64_t block_bytes,
             const AlltoallOptions& options) {
  const std::int64_t n = comm.size();
  const int k = comm.ports();
  if (options.path == ExecutionPath::kReference) {
    // The per-pair oracle with uniform counts.  The options are still
    // resolved, so a bad radix or pairwise on a non-power-of-two n is
    // rejected here as on the executor path.
    (void)plan_alltoall(n, k, block_bytes, options);
    BRUCK_REQUIRE(static_cast<std::int64_t>(send.size()) == n * block_bytes);
    BRUCK_REQUIRE(static_cast<std::int64_t>(recv.size()) == n * block_bytes);
    const std::vector<std::int64_t> counts(static_cast<std::size_t>(n * n),
                                           block_bytes);
    const std::vector<std::int64_t> displs =
        prefix_displs(std::span(counts).first(static_cast<std::size_t>(n)));
    return alltoallv_reference(comm, send, recv, counts, displs, displs,
                               VectorReferenceOptions{options.start_round});
  }

  // Hierarchical dispatch: when the knob engages, lower this rank's
  // leader-model composite and run it stage by stage (the composite records
  // its own per-stage PlanEvents).
  const bool bruck_family = options.algorithm == IndexAlgorithm::kAuto ||
                            options.algorithm == IndexAlgorithm::kBruck;
  const HierMode hmode = resolve_hier_mode(options.hier);
  if (hier_eligible(hmode, n, block_bytes, bruck_family)) {
    const model::HierChoice choice = model::pick_index_plan_cached(
        n, k, block_bytes, model::effective_two_level(options.hier_machine),
        options.radix_set, resolve_hier_group(options.hier_group));
    if (hmode == HierMode::kOn || choice.hier) {
      HierShape shape;
      shape.group = choice.group;
      shape.inter_radix = choice.inter_radix;
      const CompositePlan cp = CompositePlan::lower_index_hier(
          n, k, comm.rank(), block_bytes, shape);
      return cp.run(comm, send, recv, /*op=*/nullptr, options.start_round)
          .next_round;
    }
  }

  // Fully tuner-driven calls under an adaptive hook skip the memo, so the
  // hook sees every call.
  if (bruck_family && options.radix == 0 && options.segments == 0 &&
      model::adaptive_hook_installed()) {
    return run_tuned(model::TunedFamily::kIndexRadix, n, k, block_bytes,
                     resolve_alltoall(n, k, block_bytes, options), true,
                     [&](const PlanKey& key, double* wall_out) {
                       return run_compiled(comm, key, wall_out, send, recv,
                                           block_bytes, options.start_round);
                     });
  }
  const ResolvedCall call = resolve_call(comm, block_bytes, options);
  return run_plan(comm, *call.entry.plan, call.cache_hit, nullptr, send, recv,
                  block_bytes, options.start_round);
}

int alltoall_staged(mps::Communicator& comm, std::span<const std::byte> send,
                    std::span<std::byte> recv, const Layout& send_layout,
                    const Layout& recv_layout,
                    const AlltoallOptions& options) {
  const std::int64_t n = comm.size();
  const std::int64_t b =
      check_layouts(send, recv, send_layout, recv_layout, n, n);
  std::vector<std::byte> s(static_cast<std::size_t>(n * b));
  std::vector<std::byte> r(s.size());
  layout_gather_all(send, send_layout, n, s);
  const int next = alltoall(comm, s, r, b, options);
  layout_scatter_all(recv, recv_layout, n, r);
  return next;
}

int alltoall(mps::Communicator& comm, std::span<const std::byte> send,
             std::span<std::byte> recv, const Layout& send_layout,
             const Layout& recv_layout, const AlltoallOptions& options) {
  const std::int64_t n = comm.size();
  const std::int64_t b =
      check_layouts(send, recv, send_layout, recv_layout, n, n);
  if (both_contiguous(send_layout, recv_layout)) {
    // The degenerate case is the plain call: same plan, same cache key,
    // same zero-copy fast path.
    return alltoall(comm, send.first(static_cast<std::size_t>(n * b)),
                    recv.first(static_cast<std::size_t>(n * b)), b, options);
  }
  if (options.path == ExecutionPath::kReference) {
    // The per-pair oracle takes packed buffers: stage through copies so
    // kReference stays the bitwise cross-check of the zero-copy path.
    return alltoall_staged(comm, send, recv, send_layout, recv_layout,
                           options);
  }
  const LayoutPair layouts{&send_layout, &recv_layout};
  const ResolvedCall call = resolve_call(comm, b, options, layouts);
  return run_plan(comm, *call.entry.plan, call.cache_hit, nullptr, send, recv,
                  b, options.start_round, layouts);
}

int allgather(mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv, std::int64_t block_bytes,
              const AllgatherOptions& options) {
  const std::int64_t n = comm.size();
  const int k = comm.ports();
  if (options.path == ExecutionPath::kReference) {
    // The per-pair oracle with uniform counts.  As in alltoall, the options
    // are still resolved (an infeasible kByteSplit is rejected).
    (void)resolve_allgather(n, k, block_bytes, options);
    BRUCK_REQUIRE(static_cast<std::int64_t>(recv.size()) == n * block_bytes);
    const std::vector<std::int64_t> counts(static_cast<std::size_t>(n),
                                           block_bytes);
    return allgatherv_reference(comm, send, recv, counts,
                                prefix_displs(counts),
                                VectorReferenceOptions{options.start_round});
  }

  // Hierarchical dispatch (see alltoall).
  const HierMode hmode = resolve_hier_mode(options.hier);
  if (hier_eligible(hmode, n, block_bytes,
                    options.algorithm == ConcatAlgorithm::kAuto ||
                        options.algorithm == ConcatAlgorithm::kBruck)) {
    const model::HierChoice choice = model::pick_concat_plan_cached(
        n, k, block_bytes, model::effective_two_level(options.hier_machine),
        options.last_round, resolve_hier_group(options.hier_group));
    if (hmode == HierMode::kOn || choice.hier) {
      HierShape shape;
      shape.group = choice.group;
      shape.strategy = options.last_round;
      const CompositePlan cp = CompositePlan::lower_concat_hier(
          n, k, comm.rank(), block_bytes, shape);
      return cp.run(comm, send, recv, /*op=*/nullptr, options.start_round)
          .next_round;
    }
  }

  const ResolvedCall call = resolve_call(comm, block_bytes, options);
  return run_plan(comm, *call.entry.plan, call.cache_hit, nullptr, send, recv,
                  block_bytes, options.start_round);
}

int allgather(mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv, const Layout& send_layout,
              const Layout& recv_layout, const AllgatherOptions& options) {
  const std::int64_t n = comm.size();
  const std::int64_t b =
      check_layouts(send, recv, send_layout, recv_layout, 1, n);
  if (both_contiguous(send_layout, recv_layout)) {
    return allgather(comm, send.first(static_cast<std::size_t>(b)),
                     recv.first(static_cast<std::size_t>(n * b)), b, options);
  }
  if (options.path == ExecutionPath::kReference) {
    std::vector<std::byte> s(static_cast<std::size_t>(b));
    std::vector<std::byte> r(static_cast<std::size_t>(n * b));
    layout_gather(send, send_layout, 0, 0, b, s);
    const int next = allgather(comm, s, r, b, options);
    layout_scatter_all(recv, recv_layout, n, r);
    return next;
  }
  const LayoutPair layouts{&send_layout, &recv_layout};
  const ResolvedCall call = resolve_call(comm, b, options, layouts);
  return run_plan(comm, *call.entry.plan, call.cache_hit, nullptr, send, recv,
                  b, options.start_round, layouts);
}

int alltoallv(mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv,
              std::span<const std::int64_t> counts,
              std::span<const std::int64_t> send_displs,
              std::span<const std::int64_t> recv_displs,
              const AlltoallvOptions& options) {
  return run_alltoallv(comm, send, recv, counts, send_displs, recv_displs,
                       options, {});
}

int alltoallv(mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv,
              std::span<const std::int64_t> counts,
              std::span<const std::int64_t> send_displs,
              std::span<const std::int64_t> recv_displs,
              const Layout& send_layout, const Layout& recv_layout,
              const AlltoallvOptions& options) {
  return run_alltoallv(
      comm, send, recv, counts, send_displs, recv_displs, options,
      both_contiguous(send_layout, recv_layout)
          ? LayoutPair{}
          : LayoutPair{&send_layout, &recv_layout});
}

int allgatherv(mps::Communicator& comm, std::span<const std::byte> send,
               std::span<std::byte> recv,
               std::span<const std::int64_t> counts,
               std::span<const std::int64_t> recv_displs,
               const AllgathervOptions& options) {
  const std::int64_t n = comm.size();
  const int k = comm.ports();
  BRUCK_REQUIRE_MSG(static_cast<std::int64_t>(counts.size()) == n,
                    "allgatherv needs one count per rank");

  std::int64_t total = 0;
  std::int64_t max_block = 0;
  for (const std::int64_t c : counts) {
    BRUCK_REQUIRE_MSG(c >= 0, "counts must be non-negative");
    total += c;
    max_block = std::max(max_block, c);
  }

  std::vector<std::int64_t> rd_storage;
  if (recv_displs.empty()) {
    rd_storage = prefix_displs(counts);
    recv_displs = rd_storage;
  }
  BRUCK_REQUIRE(static_cast<std::int64_t>(recv_displs.size()) == n);

  if (options.path == ExecutionPath::kReference) {
    return allgatherv_reference(comm, send, recv, counts, recv_displs,
                                VectorReferenceOptions{options.start_round});
  }

  const ConcatAlgorithm algorithm =
      options.algorithm == ConcatAlgorithm::kAuto ? ConcatAlgorithm::kBruck
                                                  : options.algorithm;
  // Segment tuning sees the mean block (wire messages carry trimmed true
  // sizes, so the mean is the honest per-message estimate).  Computed for
  // forced counts too (resolve_segment_knob clamps them against the floor).
  const std::int64_t b_eff = ceil_div(total, std::max<std::int64_t>(1, n));
  model::CostMetrics predicted;
  switch (algorithm) {
    case ConcatAlgorithm::kBruck:
    case ConcatAlgorithm::kAuto:
      predicted = model::concat_bruck_cost(
          n, k, b_eff, model::ConcatLastRound::kColumnGranular);
      break;
    case ConcatAlgorithm::kFolklore:
      predicted = model::concat_folklore_cost(n, b_eff);
      break;
    case ConcatAlgorithm::kRing:
      predicted = model::concat_ring_cost(n, b_eff);
      break;
  }
  const int segments =
      resolve_segments(options.segments, 0,
                       model::effective_machine(options.machine), predicted);
  const VectorView view{counts, {}, recv_displs, max_block};
  return run_compiled(
      comm, concatv_plan_key(algorithm, n, k, shape_digest(counts), segments),
      nullptr, send, recv, view, options.start_round);
}

namespace detail {

ReducePlanChoice resolve_reduce_algorithm(std::int64_t n, int k,
                                          std::int64_t block_bytes,
                                          ReduceAlgorithm algorithm,
                                          std::int64_t radix,
                                          const model::LinearModel& machine,
                                          model::RadixSet set) {
  const model::LinearModel m = model::effective_machine(machine);
  ReducePlanChoice out;
  switch (algorithm) {
    case ReduceAlgorithm::kDirect:
      out.algorithm = ReduceAlgorithm::kDirect;
      out.radix = std::max<std::int64_t>(2, n);
      out.predicted = model::reduce_direct_cost(n, k, block_bytes);
      break;
    case ReduceAlgorithm::kPairwise:
      out.algorithm = ReduceAlgorithm::kPairwise;
      out.radix = std::max<std::int64_t>(2, n);
      out.predicted = model::reduce_direct_cost(n, k, block_bytes);
      break;
    case ReduceAlgorithm::kBruck:
      out.algorithm = ReduceAlgorithm::kBruck;
      out.radix = radix != 0
                      ? radix
                      : model::pick_reduce_radix(n, k, block_bytes, m, set)
                            .radix;
      out.predicted = model::reduce_bruck_cost(n, out.radix, k, block_bytes);
      break;
    case ReduceAlgorithm::kAuto: {
      const model::ReduceScatterChoice choice =
          model::pick_reduce_scatter_cached(n, k, block_bytes, m, set);
      out.algorithm = choice.direct ? ReduceAlgorithm::kDirect
                                    : ReduceAlgorithm::kBruck;
      out.radix = choice.radix;
      out.predicted = choice.predicted;
      out.segments_hint = choice.segments_hint;
      break;
    }
  }
  return out;
}

}  // namespace detail

int reduce_scatter(mps::Communicator& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv, std::int64_t block_bytes,
                   const ReduceOp& op, const ReduceScatterOptions& options) {
  const std::int64_t n = comm.size();
  const int k = comm.ports();
  check_whole_elems(block_bytes, op);

  if (options.path == ExecutionPath::kReference) {
    return reduce_scatter_reference(
        comm, send, recv, block_bytes, op,
        ReduceReferenceOptions{options.start_round});
  }

  // Hierarchical dispatch (see alltoall).
  const bool bruck_family = options.algorithm == ReduceAlgorithm::kAuto ||
                            options.algorithm == ReduceAlgorithm::kBruck;
  const HierMode hmode = resolve_hier_mode(options.hier);
  if (hier_eligible(hmode, n, block_bytes, bruck_family)) {
    const model::HierChoice hier_choice = model::pick_reduce_plan_cached(
        n, k, block_bytes, model::effective_two_level(options.hier_machine),
        options.radix_set, resolve_hier_group(options.hier_group));
    if (hmode == HierMode::kOn || hier_choice.hier) {
      HierShape shape;
      shape.group = hier_choice.group;
      shape.inter_radix = hier_choice.inter_radix;
      const CompositePlan cp = CompositePlan::lower_reduce_hier(
          n, k, comm.rank(), block_bytes, op, shape);
      return cp.run(comm, send, recv, &op, options.start_round).next_round;
    }
  }

  // Live adaptive exploration (see run_tuned) skips the memo: tuner-driven
  // Bruck calls only — kAuto may still resolve to direct.
  if (bruck_family && options.radix == 0 && options.segments == 0 &&
      model::adaptive_hook_installed()) {
    const Recipe r = resolve_reduce_scatter(n, k, block_bytes, op, options);
    return run_tuned(
        model::TunedFamily::kReduceScatter, n, k, block_bytes, r,
        r.key.algorithm == static_cast<std::uint8_t>(ReduceAlgorithm::kBruck),
        [&](const PlanKey& key, double* wall_out) {
          return run_compiled(comm, key, wall_out, send, recv, block_bytes,
                              op, options.start_round);
        });
  }
  const ResolvedCall call = resolve_call(comm, block_bytes, op, options);
  return run_plan(comm, *call.entry.plan, call.cache_hit, nullptr, send, recv,
                  block_bytes, op, options.start_round);
}

int reduce_scatter(mps::Communicator& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv, const Layout& send_layout,
                   const Layout& recv_layout, const ReduceOp& op,
                   const ReduceScatterOptions& options) {
  const std::int64_t n = comm.size();
  const std::int64_t b =
      check_layouts(send, recv, send_layout, recv_layout, n, 1);
  if (both_contiguous(send_layout, recv_layout)) {
    return reduce_scatter(comm, send.first(static_cast<std::size_t>(n * b)),
                          recv.first(static_cast<std::size_t>(b)), b, op,
                          options);
  }
  check_whole_elems(b, op);
  if (options.path == ExecutionPath::kReference) {
    std::vector<std::byte> s(static_cast<std::size_t>(n * b));
    std::vector<std::byte> r(static_cast<std::size_t>(b));
    layout_gather_all(send, send_layout, n, s);
    const int next = reduce_scatter(comm, s, r, b, op, options);
    layout_scatter(recv, recv_layout, 0, 0, b, r);
    return next;
  }
  const LayoutPair layouts{&send_layout, &recv_layout};
  const ResolvedCall call = resolve_call(comm, b, op, options, layouts);
  return run_plan(comm, *call.entry.plan, call.cache_hit, nullptr, send, recv,
                  b, op, options.start_round, layouts);
}

int allreduce(mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv, const ReduceOp& op,
              const AllreduceOptions& options) {
  const std::int64_t bytes = static_cast<std::int64_t>(send.size());
  BRUCK_REQUIRE(static_cast<std::int64_t>(recv.size()) == bytes);
  check_whole_elems(bytes, op);
  if (options.path == ExecutionPath::kReference) {
    return allreduce_reference(comm, send, recv, op,
                               ReduceReferenceOptions{options.start_round});
  }
  return run_allreduce(comm, send, recv, bytes, op, options, {});
}

int allreduce(mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv, const Layout& send_layout,
              const Layout& recv_layout, const ReduceOp& op,
              const AllreduceOptions& options) {
  const std::int64_t bytes =
      check_layouts(send, recv, send_layout, recv_layout, 1, 1);
  if (both_contiguous(send_layout, recv_layout)) {
    return allreduce(comm, send.first(static_cast<std::size_t>(bytes)),
                     recv.first(static_cast<std::size_t>(bytes)), op,
                     options);
  }
  check_whole_elems(bytes, op);
  if (options.path == ExecutionPath::kReference) {
    std::vector<std::byte> s(static_cast<std::size_t>(bytes));
    std::vector<std::byte> r(static_cast<std::size_t>(bytes));
    layout_gather(send, send_layout, 0, 0, bytes, s);
    const int next = allreduce_reference(
        comm, s, r, op, ReduceReferenceOptions{options.start_round});
    layout_scatter(recv, recv_layout, 0, 0, bytes, r);
    return next;
  }
  return run_allreduce(comm, send, recv, bytes, op, options,
                       LayoutPair{&send_layout, &recv_layout});
}

// -- Nonblocking entry points ----------------------------------------------
//
// Each i* twin runs its family's resolver — the one its blocking twin runs
// — and hands the finished recipe to the communicator's progress engine
// instead of executing it.  The engine owns scheduling from there (lazy
// start, tag allocation, fusion); see progress.hpp.

Request ialltoall(mps::Communicator& comm, std::span<const std::byte> send,
                  std::span<std::byte> recv, std::int64_t block_bytes,
                  const AlltoallOptions& options) {
  return ProgressEngine::for_comm(comm).submit(
      make_spec(OpSpec::Family::kAlltoall, send, recv, block_bytes,
                resolve_call(comm, block_bytes, options), options, {}));
}

Request ialltoall(mps::Communicator& comm, std::span<const std::byte> send,
                  std::span<std::byte> recv, const Layout& send_layout,
                  const Layout& recv_layout,
                  const AlltoallOptions& options) {
  const std::int64_t n = comm.size();
  const std::int64_t b =
      check_layouts(send, recv, send_layout, recv_layout, n, n);
  if (both_contiguous(send_layout, recv_layout)) {
    return ialltoall(comm, send.first(static_cast<std::size_t>(n * b)),
                     recv.first(static_cast<std::size_t>(n * b)), b, options);
  }
  const LayoutPair layouts{&send_layout, &recv_layout};
  return ProgressEngine::for_comm(comm).submit(
      make_spec(OpSpec::Family::kAlltoall, send, recv, b,
                resolve_call(comm, b, options, layouts), options, layouts));
}

Request iallgather(mps::Communicator& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv, std::int64_t block_bytes,
                   const AllgatherOptions& options) {
  return ProgressEngine::for_comm(comm).submit(
      make_spec(OpSpec::Family::kAllgather, send, recv, block_bytes,
                resolve_call(comm, block_bytes, options), options, {}));
}

Request iallgather(mps::Communicator& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv, const Layout& send_layout,
                   const Layout& recv_layout,
                   const AllgatherOptions& options) {
  const std::int64_t n = comm.size();
  const std::int64_t b =
      check_layouts(send, recv, send_layout, recv_layout, 1, n);
  if (both_contiguous(send_layout, recv_layout)) {
    return iallgather(comm, send.first(static_cast<std::size_t>(b)),
                      recv.first(static_cast<std::size_t>(n * b)), b,
                      options);
  }
  const LayoutPair layouts{&send_layout, &recv_layout};
  return ProgressEngine::for_comm(comm).submit(
      make_spec(OpSpec::Family::kAllgather, send, recv, b,
                resolve_call(comm, b, options, layouts), options, layouts));
}

Request ialltoallv(mps::Communicator& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv,
                   std::span<const std::int64_t> counts,
                   std::span<const std::int64_t> send_displs,
                   std::span<const std::int64_t> recv_displs,
                   const AlltoallvOptions& options) {
  return submit_ialltoallv(comm, send, recv, counts, send_displs, recv_displs,
                           options, {});
}

Request ialltoallv(mps::Communicator& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv,
                   std::span<const std::int64_t> counts,
                   std::span<const std::int64_t> send_displs,
                   std::span<const std::int64_t> recv_displs,
                   const Layout& send_layout, const Layout& recv_layout,
                   const AlltoallvOptions& options) {
  return submit_ialltoallv(
      comm, send, recv, counts, send_displs, recv_displs, options,
      both_contiguous(send_layout, recv_layout)
          ? LayoutPair{}
          : LayoutPair{&send_layout, &recv_layout});
}

Request ireduce_scatter(mps::Communicator& comm,
                        std::span<const std::byte> send,
                        std::span<std::byte> recv, std::int64_t block_bytes,
                        const ReduceOp& op,
                        const ReduceScatterOptions& options) {
  check_whole_elems(block_bytes, op);
  OpSpec spec = make_spec(OpSpec::Family::kReduceScatter, send, recv,
                          block_bytes,
                          resolve_call(comm, block_bytes, op, options),
                          options, {});
  spec.op = op;
  return ProgressEngine::for_comm(comm).submit(std::move(spec));
}

Request ireduce_scatter(mps::Communicator& comm,
                        std::span<const std::byte> send,
                        std::span<std::byte> recv, const Layout& send_layout,
                        const Layout& recv_layout, const ReduceOp& op,
                        const ReduceScatterOptions& options) {
  const std::int64_t n = comm.size();
  const std::int64_t b =
      check_layouts(send, recv, send_layout, recv_layout, n, 1);
  if (both_contiguous(send_layout, recv_layout)) {
    return ireduce_scatter(comm, send.first(static_cast<std::size_t>(n * b)),
                           recv.first(static_cast<std::size_t>(b)), b, op,
                           options);
  }
  check_whole_elems(b, op);
  const LayoutPair layouts{&send_layout, &recv_layout};
  OpSpec spec = make_spec(OpSpec::Family::kReduceScatter, send, recv, b,
                          resolve_call(comm, b, op, options, layouts),
                          options, layouts);
  spec.op = op;
  return ProgressEngine::for_comm(comm).submit(std::move(spec));
}

Request iallreduce(mps::Communicator& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv, const ReduceOp& op,
                   const AllreduceOptions& options) {
  const std::int64_t bytes = static_cast<std::int64_t>(send.size());
  BRUCK_REQUIRE(static_cast<std::int64_t>(recv.size()) == bytes);
  check_whole_elems(bytes, op);
  return submit_iallreduce(comm, send, recv, bytes, op, options, {});
}

Request iallreduce(mps::Communicator& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv, const Layout& send_layout,
                   const Layout& recv_layout, const ReduceOp& op,
                   const AllreduceOptions& options) {
  const std::int64_t bytes =
      check_layouts(send, recv, send_layout, recv_layout, 1, 1);
  if (both_contiguous(send_layout, recv_layout)) {
    return iallreduce(comm, send.first(static_cast<std::size_t>(bytes)),
                      recv.first(static_cast<std::size_t>(bytes)), op,
                      options);
  }
  check_whole_elems(bytes, op);
  return submit_iallreduce(comm, send, recv, bytes, op, options,
                           LayoutPair{&send_layout, &recv_layout});
}

int broadcast(mps::Communicator& comm, std::int64_t root,
              std::span<std::byte> data, const BcastApiOptions& options) {
  switch (options.algorithm) {
    case BcastAlgorithm::kBinomial:
      return bcast_binomial(comm, root, data,
                            BcastOptions{options.start_round});
    case BcastAlgorithm::kCirculant:
    case BcastAlgorithm::kAuto:
      return bcast_circulant(comm, root, data,
                             BcastOptions{options.start_round});
  }
  BRUCK_ENSURE_MSG(false, "unreachable");
  return options.start_round;
}

int gather(mps::Communicator& comm, std::int64_t root,
           std::span<const std::byte> send, std::span<std::byte> recv,
           std::int64_t block_bytes, const RootedOptions& options) {
  return gather_binomial(comm, root, send, recv, block_bytes,
                         GatherScatterOptions{options.start_round});
}

int scatter(mps::Communicator& comm, std::int64_t root,
            std::span<const std::byte> send, std::span<std::byte> recv,
            std::int64_t block_bytes, const RootedOptions& options) {
  return scatter_binomial(comm, root, send, recv, block_bytes,
                          GatherScatterOptions{options.start_round});
}

}  // namespace bruck::coll
