// The per-communicator call memo (coll/call_memo.hpp):
//
//   * every writer of tuning state invalidates it: after set_active_machine,
//     set_tuner_override, clear_tuner_overrides, clear_tuner_cache or
//     PlanCache::clear, the next call on the *same* communicator runs the
//     new plan;
//   * with an adaptive hook installed, every tuner-driven call reaches the
//     hook;
//   * its key is complete: changing any option the resolver reads between
//     two calls on one communicator yields the plan key and trace a fresh
//     communicator gets for the changed options;
//   * memo hits count as cache hits (PlanEvent and PlanCache::stats());
//   * rank threads repeating alltoalls race tuning-state writers cleanly
//     (run under TSan in CI).
#include "coll/call_memo.hpp"

#include <atomic>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "coll/api.hpp"
#include "coll/plan_cache.hpp"
#include "coll/verify.hpp"
#include "gtest/gtest.h"
#include "model/costs.hpp"
#include "model/tuner.hpp"
#include "mps/runtime.hpp"

namespace bruck::coll {
namespace {

// n = 9, b = 64: the default machine tunes the alltoall to radix 3 (4
// rounds), a cheap start-up to radix 8 and powers of two to radix 2.
constexpr std::int64_t kN = 9;
constexpr int kK = 1;
constexpr std::int64_t kB = 64;

/// Process-global tuning state back to its defaults.
void reset_tuning() {
  model::set_adaptive_hook(nullptr);
  model::set_active_machine(std::nullopt);
  model::set_active_two_level(std::nullopt);
  model::clear_tuner_cache();
  PlanCache::global().clear();
}

model::LinearModel cheap_startup() {
  model::LinearModel m = model::ibm_sp1();
  m.beta_us = 0.01;
  return m;
}

AlltoallOptions flat_alltoall() {
  AlltoallOptions o;
  o.hier = HierMode::kOff;
  return o;
}

AllgatherOptions flat_allgather() {
  AllgatherOptions o;
  o.hier = HierMode::kOff;
  return o;
}

ReduceScatterOptions flat_reduce_scatter() {
  ReduceScatterOptions o;
  o.hier = HierMode::kOff;
  return o;
}

/// The key this communicator's memo holds for `signature` now, if any.
std::optional<PlanKey> memo_key(mps::Communicator& comm,
                                const CallSignature& signature) {
  const CallMemo::Entry* e =
      CommState::of(comm).memo.find(signature, model::tuning_epoch());
  if (e == nullptr) return std::nullopt;
  return e->recipe.key;
}

/// One alltoall of kB-byte blocks at `round` whose output is checked;
/// the first mismatch lands in `error`.  Returns the next free round.
int checked_alltoall(mps::Communicator& comm, AlltoallOptions options,
                     int round, std::string& error,
                     std::int64_t block_bytes = kB) {
  const std::int64_t n = comm.size();
  std::vector<std::byte> send(static_cast<std::size_t>(n * block_bytes));
  std::vector<std::byte> recv(send.size());
  fill_index_send(send, n, comm.rank(), block_bytes, 7);
  options.start_round = round;
  const int next = alltoall(comm, send, recv, block_bytes, options);
  if (error.empty()) {
    error = check_index_recv(recv, n, comm.rank(), block_bytes, 7);
  }
  return next;
}

// ---------------------------------------------------------------------------
// Invalidation.

/// Two default alltoalls on each rank of one world; rank 0 runs `between`
/// while every rank waits between two barriers.
struct TwoCalls {
  std::shared_ptr<mps::Trace> trace;
  std::vector<std::optional<PlanKey>> second_keys;
  std::vector<std::string> errors;
};

TwoCalls run_two_calls(const std::function<void()>& between) {
  TwoCalls out;
  out.second_keys.resize(kN);
  out.errors.resize(kN);
  const AlltoallOptions options = flat_alltoall();
  out.trace = mps::run_spmd(kN, kK, [&](mps::Communicator& comm) {
                const auto r = static_cast<std::size_t>(comm.rank());
                const int next =
                    checked_alltoall(comm, options, 0, out.errors[r]);
                comm.barrier();
                if (comm.rank() == 0) between();
                comm.barrier();
                checked_alltoall(comm, options, next, out.errors[r]);
                out.second_keys[r] = memo_key(
                    comm, call_signature(kN, kK, kB, options));
              }).trace;
  return out;
}

/// Both calls ran correctly, the first with `first_radix` and the second
/// with `second_radix` (round counts in the trace, radix in the memo).
void expect_radices(const TwoCalls& run, std::int64_t first_radix,
                    std::int64_t second_radix) {
  const int first_rounds = static_cast<int>(
      model::index_bruck_cost(kN, first_radix, kK, kB).c1);
  const int second_rounds = static_cast<int>(
      model::index_bruck_cost(kN, second_radix, kK, kB).c1);
  ASSERT_NE(first_rounds, second_rounds);
  for (std::int64_t r = 0; r < kN; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const auto ru = static_cast<std::size_t>(r);
    EXPECT_EQ(run.errors[ru], "");
    const std::vector<mps::PlanEvent>& plans = run.trace->sink(r).plans();
    ASSERT_EQ(plans.size(), 2u);
    EXPECT_EQ(plans[0].rounds, first_rounds);
    EXPECT_EQ(plans[1].rounds, second_rounds);
    ASSERT_TRUE(run.second_keys[ru].has_value());
    EXPECT_EQ(run.second_keys[ru]->radix, second_radix);
  }
}

std::int64_t default_radix() {
  return model::pick_index_radix(kN, kK, kB, model::ibm_sp1()).radix;
}

model::TunerQuery index_query() {
  return model::make_tuner_query(model::TunedFamily::kIndexRadix, kN, kK, kB,
                                 model::ibm_sp1());
}

model::TunerConfig forced_radix(std::int64_t radix) {
  model::TunerConfig c;
  c.radix = radix;
  return c;
}

TEST(CallMemoInvalidation, SetActiveMachineRetunesTheNextCall) {
  reset_tuning();
  const std::int64_t cheap =
      model::pick_index_radix(kN, kK, kB, cheap_startup()).radix;
  ASSERT_NE(cheap, default_radix());
  const TwoCalls run =
      run_two_calls([] { model::set_active_machine(cheap_startup()); });
  expect_radices(run, default_radix(), cheap);
  reset_tuning();
}

TEST(CallMemoInvalidation, SetTunerOverrideRetunesTheNextCall) {
  reset_tuning();
  ASSERT_NE(default_radix(), 9);
  const TwoCalls run = run_two_calls(
      [] { model::set_tuner_override(index_query(), forced_radix(9)); });
  expect_radices(run, default_radix(), 9);
  reset_tuning();
}

TEST(CallMemoInvalidation, ClearTunerCacheDropsTheLearnedRadix) {
  reset_tuning();
  model::set_tuner_override(index_query(), forced_radix(9));
  const TwoCalls run = run_two_calls([] { model::clear_tuner_cache(); });
  expect_radices(run, 9, default_radix());
  reset_tuning();
}

TEST(CallMemoInvalidation, ClearTunerOverridesDropsTheLearnedRadix) {
  reset_tuning();
  model::set_tuner_override(index_query(), forced_radix(9));
  const TwoCalls run = run_two_calls([] { model::clear_tuner_overrides(); });
  expect_radices(run, 9, default_radix());
  reset_tuning();
}

TEST(CallMemoInvalidation, PlanCacheClearForcesAFreshLowering) {
  reset_tuning();
  const TwoCalls run = run_two_calls([] { PlanCache::global().clear(); });
  // The cleared cache lowered the plan again, once; every other rank's
  // second call hit that lowering.
  const PlanCacheStats stats = PlanCache::global().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kN - 1));
  int lowered = 0;
  for (std::int64_t r = 0; r < kN; ++r) {
    const auto ru = static_cast<std::size_t>(r);
    EXPECT_EQ(run.errors[ru], "") << "rank " << r;
    ASSERT_TRUE(run.second_keys[ru].has_value());
    EXPECT_EQ(run.second_keys[ru]->radix, default_radix());
    lowered += run.trace->sink(r).plans().at(1).cache_hit ? 0 : 1;
  }
  EXPECT_EQ(lowered, 1);
  reset_tuning();
}

TEST(CallMemoInvalidation, AdaptiveHookSeesEveryTunerDrivenCall) {
  reset_tuning();
  std::atomic<int> consulted{0};
  model::set_adaptive_hook(
      [&](const model::TunerQuery&, const model::TunerConfig&)
          -> std::optional<model::TunerConfig> {
        consulted.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
      });
  constexpr int kCalls = 4;
  std::vector<std::string> errors(kN);
  mps::run_spmd(kN, kK, [&](mps::Communicator& comm) {
    int round = 0;
    for (int i = 0; i < kCalls; ++i) {
      round = checked_alltoall(comm, flat_alltoall(), round,
                               errors[static_cast<std::size_t>(comm.rank())]);
    }
  });
  model::set_adaptive_hook(nullptr);
  for (const std::string& e : errors) EXPECT_EQ(e, "");
  EXPECT_EQ(consulted.load(), kCalls * static_cast<int>(kN));
  reset_tuning();
}

// ---------------------------------------------------------------------------
// Statistics.

TEST(CallMemoStats, MemoHitsCountAsCacheHitsWithoutResolving) {
  reset_tuning();
  constexpr int kCalls = 3;
  std::vector<std::string> errors(kN);
  model::TunerCacheStats after_first;
  const mps::RunResult rr = mps::run_spmd(kN, kK, [&](mps::Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    int round = checked_alltoall(comm, flat_alltoall(), 0, errors[r]);
    comm.barrier();
    if (comm.rank() == 0) after_first = model::tuner_cache_stats();
    comm.barrier();
    for (int i = 1; i < kCalls; ++i) {
      round = checked_alltoall(comm, flat_alltoall(), round, errors[r]);
    }
  });
  for (const std::string& e : errors) EXPECT_EQ(e, "");
  // The repeated calls never reached the tuner...
  const model::TunerCacheStats after_all = model::tuner_cache_stats();
  EXPECT_EQ(after_all.hits, after_first.hits);
  EXPECT_EQ(after_all.misses, after_first.misses);
  // ...yet count as cache hits, in the PlanCache and on every PlanEvent.
  const PlanCacheStats stats = PlanCache::global().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kCalls * kN - 1));
  for (std::int64_t r = 0; r < kN; ++r) {
    const std::vector<mps::PlanEvent>& plans = rr.trace->sink(r).plans();
    ASSERT_EQ(plans.size(), static_cast<std::size_t>(kCalls));
    for (int i = 1; i < kCalls; ++i) {
      EXPECT_TRUE(plans[static_cast<std::size_t>(i)].cache_hit)
          << "rank " << r << " call " << i;
    }
  }
  reset_tuning();
}

// ---------------------------------------------------------------------------
// Key completeness.

/// One collective call on `comm` starting at `round`; returns the next
/// free round.
using Call = std::function<int(mps::Communicator&, int)>;
/// The key `comm`'s memo holds for a call's signature.
using KeyOf = std::function<std::optional<PlanKey>(mps::Communicator&)>;

struct Variant {
  Call call;
  KeyOf key;
};

Variant alltoall_variant(const AlltoallOptions& options,
                         std::int64_t block_bytes = kB) {
  return {[options, block_bytes](mps::Communicator& comm, int round) {
            std::string ignored;
            return checked_alltoall(comm, options, round, ignored,
                                    block_bytes);
          },
          [options, block_bytes](mps::Communicator& comm) {
            return memo_key(comm,
                            call_signature(kN, kK, block_bytes, options));
          }};
}

/// The alltoall over a strided layout in both buffers.
Variant strided_alltoall_variant() {
  const Layout layout = Layout::vector(4, 16, 32);
  const AlltoallOptions options = flat_alltoall();
  return {[layout, options](mps::Communicator& comm, int round) {
            std::vector<std::byte> send(
                static_cast<std::size_t>(layout.span_bytes(kN)),
                std::byte{3});
            std::vector<std::byte> recv(send.size());
            AlltoallOptions o = options;
            o.start_round = round;
            return alltoall(comm, send, recv, layout, layout, o);
          },
          [layout, options](mps::Communicator& comm) {
            return memo_key(comm,
                            call_signature(kN, kK, layout.block_bytes(),
                                           options,
                                           LayoutPair{&layout, &layout}));
          }};
}

Variant allgather_variant(const AllgatherOptions& options) {
  return {[options](mps::Communicator& comm, int round) {
            std::vector<std::byte> send(static_cast<std::size_t>(kB));
            std::vector<std::byte> recv(static_cast<std::size_t>(kN * kB));
            fill_concat_send(send, comm.rank(), kB, 5);
            AllgatherOptions o = options;
            o.start_round = round;
            return allgather(comm, send, recv, kB, o);
          },
          [options](mps::Communicator& comm) {
            return memo_key(comm, call_signature(kN, kK, kB, options));
          }};
}

Variant reduce_scatter_variant(const ReduceOp& op,
                               const ReduceScatterOptions& options) {
  return {[op, options](mps::Communicator& comm, int round) {
            std::vector<std::byte> send(static_cast<std::size_t>(kN * kB),
                                        std::byte{0});
            std::vector<std::byte> recv(static_cast<std::size_t>(kB));
            ReduceScatterOptions o = options;
            o.start_round = round;
            return reduce_scatter(comm, send, recv, kB, op, o);
          },
          [op, options](mps::Communicator& comm) {
            return memo_key(comm, call_signature(kN, kK, kB, op, options));
          }};
}

/// What one rank did: its memo key for the second call, its sends and its
/// plan events (cache_hit aside — it depends on what ran before).
struct RankRecord {
  std::optional<PlanKey> key;
  std::vector<std::tuple<int, std::int64_t, std::int64_t, int>> sends;
  std::vector<std::tuple<int, std::int64_t, std::int64_t>> plans;
};

void append_trace(mps::Trace& trace, std::int64_t rank,
                  RankRecord& out) {
  for (const mps::SendEvent& e : trace.sink(rank).sends()) {
    out.sends.emplace_back(e.round, e.dst, e.bytes, e.tag);
  }
  for (const mps::PlanEvent& e : trace.sink(rank).plans()) {
    out.plans.emplace_back(e.rounds, e.bytes_sent, e.bytes_reduced);
  }
}

/// Run `base` then `changed` on one world, and each of them on a fresh
/// world of its own (the second at the round the first left off); the two
/// must agree rank by rank on the changed call's key and on the trace.
void expect_memo_tracks_change(const std::string& label, const Variant& base,
                               const Variant& changed) {
  SCOPED_TRACE(label);
  std::vector<RankRecord> reused(kN);
  std::vector<RankRecord> fresh(kN);
  std::vector<std::optional<PlanKey>> base_keys(kN);
  std::vector<int> next_rounds(kN, 0);

  const auto reused_run = mps::run_spmd(kN, kK, [&](mps::Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    const int next = base.call(comm, 0);
    changed.call(comm, next);
    reused[r].key = changed.key(comm);
    base_keys[r] = base.key(comm);
  });
  const auto fresh_base = mps::run_spmd(kN, kK, [&](mps::Communicator& comm) {
    next_rounds[static_cast<std::size_t>(comm.rank())] = base.call(comm, 0);
  });
  const auto fresh_changed =
      mps::run_spmd(kN, kK, [&](mps::Communicator& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        changed.call(comm, next_rounds[r]);
        fresh[r].key = changed.key(comm);
      });

  for (std::int64_t r = 0; r < kN; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const auto ru = static_cast<std::size_t>(r);
    append_trace(*reused_run.trace, r, reused[ru]);
    append_trace(*fresh_base.trace, r, fresh[ru]);
    append_trace(*fresh_changed.trace, r, fresh[ru]);
    ASSERT_TRUE(reused[ru].key.has_value());
    ASSERT_TRUE(fresh[ru].key.has_value());
    ASSERT_TRUE(base_keys[ru].has_value());
    EXPECT_TRUE(*reused[ru].key == *fresh[ru].key);
    // The change matters: it resolves to a different plan key.
    EXPECT_FALSE(*reused[ru].key == *base_keys[ru]);
    EXPECT_EQ(reused[ru].sends, fresh[ru].sends);
    EXPECT_EQ(reused[ru].plans, fresh[ru].plans);
  }
}

TEST(CallMemoKey, EveryResolvedOptionFieldIsPartOfTheKey) {
  reset_tuning();
  const AlltoallOptions a2a = flat_alltoall();
  AlltoallOptions direct = a2a;
  direct.algorithm = IndexAlgorithm::kDirect;
  AlltoallOptions radix = a2a;
  radix.radix = 2;
  AlltoallOptions pow2 = a2a;
  pow2.radix_set = model::RadixSet::kPowersOfTwo;
  AlltoallOptions machine = a2a;
  machine.machine = cheap_startup();
  AlltoallOptions segments = a2a;
  segments.segments = 2;
  constexpr std::int64_t kLargeBlock = 16384;  // splits into 2 segments

  const AllgatherOptions ag = flat_allgather();
  AllgatherOptions ring = ag;
  ring.algorithm = ConcatAlgorithm::kRing;
  AllgatherOptions columns = ag;
  columns.last_round = model::ConcatLastRound::kColumnGranular;

  const ReduceScatterOptions rs = flat_reduce_scatter();
  ReduceScatterOptions rs_direct = rs;
  rs_direct.algorithm = ReduceAlgorithm::kDirect;
  const ReduceOp sum = ReduceOp::sum(ReduceElem::kF64);
  const ReduceOp max = ReduceOp::max(ReduceElem::kI32);

  expect_memo_tracks_change("alltoall algorithm", alltoall_variant(a2a),
                            alltoall_variant(direct));
  expect_memo_tracks_change("alltoall radix", alltoall_variant(a2a),
                            alltoall_variant(radix));
  expect_memo_tracks_change("alltoall radix set", alltoall_variant(a2a),
                            alltoall_variant(pow2));
  expect_memo_tracks_change("alltoall machine", alltoall_variant(a2a),
                            alltoall_variant(machine));
  expect_memo_tracks_change("alltoall segments",
                            alltoall_variant(a2a, kLargeBlock),
                            alltoall_variant(segments, kLargeBlock));
  expect_memo_tracks_change("alltoall layout", alltoall_variant(a2a),
                            strided_alltoall_variant());
  expect_memo_tracks_change("allgather algorithm", allgather_variant(ag),
                            allgather_variant(ring));
  expect_memo_tracks_change("allgather last round", allgather_variant(ag),
                            allgather_variant(columns));
  expect_memo_tracks_change("reduce-scatter op",
                            reduce_scatter_variant(sum, rs),
                            reduce_scatter_variant(max, rs));
  expect_memo_tracks_change("reduce-scatter algorithm",
                            reduce_scatter_variant(sum, rs),
                            reduce_scatter_variant(sum, rs_direct));
  reset_tuning();
}

// ---------------------------------------------------------------------------
// Concurrency: tuning-state writers racing the memo's readers.

TEST(CallMemoConcurrency, RepeatedAlltoallsRaceTuningWrites) {
  reset_tuning();
  constexpr std::int64_t n = 4;
  constexpr int kCalls = 200;
  // Both machines tune this geometry identically, so every rank runs the
  // same plan whichever one it resolves under.
  model::LinearModel variant = model::ibm_sp1();
  variant.beta_us += 1.0;
  ASSERT_EQ(model::pick_index_radix(n, kK, kB, variant).radix,
            model::pick_index_radix(n, kK, kB, model::ibm_sp1()).radix);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    bool flip = false;
    while (!done.load(std::memory_order_relaxed)) {
      model::set_active_machine(flip ? std::optional(variant) : std::nullopt);
      model::clear_tuner_cache();
      PlanCache::global().clear();
      flip = !flip;
      std::this_thread::yield();
    }
  });
  std::vector<std::string> errors(n);
  mps::run_spmd(n, kK, [&](mps::Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    int round = 0;
    for (int i = 0; i < kCalls; ++i) {
      round = checked_alltoall(comm, flat_alltoall(), round, errors[r]);
    }
  });
  done.store(true, std::memory_order_relaxed);
  writer.join();
  for (std::int64_t r = 0; r < n; ++r) {
    EXPECT_EQ(errors[static_cast<std::size_t>(r)], "") << "rank " << r;
  }
  reset_tuning();
}

}  // namespace
}  // namespace bruck::coll
