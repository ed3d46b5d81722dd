#include "model/tuner.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>

#include "util/assert.hpp"
#include "util/math.hpp"

namespace bruck::model {

std::vector<std::int64_t> candidate_radices(std::int64_t n, RadixSet set,
                                            int k) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  const std::int64_t hi = std::max<std::int64_t>(2, n);
  std::vector<std::int64_t> out;
  switch (set) {
    case RadixSet::kAll:
      for (std::int64_t r = 2; r <= hi; ++r) out.push_back(r);
      break;
    case RadixSet::kPowersOfTwo: {
      for (std::int64_t r = 2; r <= hi; r *= 2) out.push_back(r);
      if (out.empty() || out.back() != hi) out.push_back(hi);
      break;
    }
    case RadixSet::kPortAligned: {
      // (r−1) mod k == 0 minimizes wasted port slots per subphase
      // (Section 3.4); always include r = 2 (the C1-optimal end at k = 1)
      // and r = n (the C2-optimal end).
      for (std::int64_t r = 2; r <= hi; ++r) {
        if ((r - 1) % k == 0 || r == 2 || r == hi) out.push_back(r);
      }
      break;
    }
  }
  BRUCK_ENSURE(!out.empty());
  return out;
}

std::vector<RadixChoice> index_radix_curve(std::int64_t n, int k,
                                           std::int64_t block_bytes,
                                           const LinearModel& machine,
                                           RadixSet set) {
  std::vector<RadixChoice> curve;
  for (std::int64_t r : candidate_radices(n, set, k)) {
    RadixChoice c;
    c.radix = r;
    c.metrics = index_bruck_cost(n, r, k, block_bytes);
    c.predicted_us = machine.predict_us(c.metrics);
    curve.push_back(c);
  }
  return curve;
}

RadixChoice pick_index_radix(std::int64_t n, int k, std::int64_t block_bytes,
                             const LinearModel& machine, RadixSet set) {
  const std::vector<RadixChoice> curve =
      index_radix_curve(n, k, block_bytes, machine, set);
  const auto best = std::min_element(
      curve.begin(), curve.end(), [](const RadixChoice& a, const RadixChoice& b) {
        if (a.predicted_us != b.predicted_us)
          return a.predicted_us < b.predicted_us;
        return a.radix < b.radix;
      });
  return *best;
}

std::uint64_t model_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

namespace {

std::uint64_t double_bits(double v) { return model_bits(v); }

/// One tuner memo family, registered so tuner_cache_stats() and
/// clear_tuner_cache() see every cache without per-family wiring (adding a
/// tuned collective family used to mean hand-extending both functions).
class MemoCacheBase {
 public:
  virtual void add_stats(TunerCacheStats& out) = 0;
  virtual void clear() = 0;

 protected:
  ~MemoCacheBase() = default;
};

std::mutex& memo_registry_mu() {
  static std::mutex mu;
  return mu;
}

std::vector<MemoCacheBase*>& memo_registry() {
  static std::vector<MemoCacheBase*> registry;
  return registry;
}

/// Thread-safe compute-once memo: the compute runs outside the lock
/// (concurrent first callers may both compute, but results are
/// deterministic so last-writer-wins is harmless).
template <typename Key, typename Value>
class MemoCache final : public MemoCacheBase {
 public:
  MemoCache() {
    std::lock_guard<std::mutex> lock(memo_registry_mu());
    memo_registry().push_back(this);
  }

  template <typename Compute>
  Value get_or_compute(const Key& key, const Compute& compute) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = entries_.find(key);
      if (it != entries_.end()) {
        ++hits_;
        return it->second;
      }
    }
    const Value value = compute();
    std::lock_guard<std::mutex> lock(mu_);
    ++misses_;
    entries_.emplace(key, value);
    return value;
  }

  void add_stats(TunerCacheStats& out) override {
    std::lock_guard<std::mutex> lock(mu_);
    out.hits += hits_;
    out.misses += misses_;
  }

  void clear() override {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    hits_ = 0;
    misses_ = 0;
  }

 private:
  std::mutex mu_;
  std::map<Key, Value> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

// (n, k, b, set, β bits, τ bits) → choice.  Doubles are compared by bit
// pattern: two models predicting identical times are the same key, and NaN
// never reaches here (predict_us is a polynomial of finite inputs).
using TunerKey =
    std::tuple<std::int64_t, int, std::int64_t, int, std::uint64_t,
               std::uint64_t>;

MemoCache<TunerKey, RadixChoice>& tuner_cache() {
  static MemoCache<TunerKey, RadixChoice> cache;
  return cache;
}

// ---------------------------------------------------------------------------
// Learned-override registry.  The hot-path guard is a relaxed atomic count:
// with no overrides installed (the common case) a pick_*_cached call pays
// one relaxed load and never touches a lock.

std::atomic<std::size_t> g_override_count{0};
std::atomic<std::uint64_t> g_override_hits{0};

std::mutex& override_mu() {
  static std::mutex mu;
  return mu;
}

std::map<TunerQuery, TunerConfig>& override_map() {
  static std::map<TunerQuery, TunerConfig> overrides;
  return overrides;
}

/// Override lookup for one decision point; counts a hit when found.
std::optional<TunerConfig> find_override(const TunerQuery& query) {
  if (g_override_count.load(std::memory_order_relaxed) == 0) {
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(override_mu());
  const auto it = override_map().find(query);
  if (it == override_map().end()) return std::nullopt;
  g_override_hits.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

std::int64_t clamp_radix(std::int64_t radix, std::int64_t n) {
  return std::clamp<std::int64_t>(radix, 2, std::max<std::int64_t>(2, n));
}

std::mutex& hook_mu() {
  static std::mutex mu;
  return mu;
}

/// Hooks and the published (calibrated) machine live together behind one
/// mutex: none of them is hot (the facade copies the hook out once per
/// collective, not per round).
struct HookState {
  AdaptiveHook adaptive;
  ObservationHook observation;
  std::function<void()> reload;
  std::optional<LinearModel> active;
  std::optional<TwoLevelModel> active_two_level;
};

HookState& hook_state() {
  static HookState state;
  return state;
}

std::atomic<bool> g_adaptive_installed{false};
std::atomic<bool> g_observation_installed{false};
/// Whether an active flat or two-level model is published: while neither
/// is, effective_machine / effective_two_level return without hook_mu.
std::atomic<bool> g_models_published{false};
std::atomic<std::uint64_t> g_tuning_epoch{0};

/// Called with hook_mu held, after an active-model write.
void publish_models() {
  g_models_published.store(
      hook_state().active.has_value() ||
          hook_state().active_two_level.has_value(),
      std::memory_order_release);
}

bool same_constants(const LinearModel& a, const LinearModel& b) {
  return model_bits(a.beta_us) == model_bits(b.beta_us) &&
         model_bits(a.tau_us_per_byte) == model_bits(b.tau_us_per_byte) &&
         model_bits(a.gamma_us_per_byte) == model_bits(b.gamma_us_per_byte);
}

}  // namespace

RadixChoice pick_index_radix_cached(std::int64_t n, int k,
                                    std::int64_t block_bytes,
                                    const LinearModel& machine, RadixSet set) {
  const std::optional<TunerConfig> learned = find_override(
      make_tuner_query(TunedFamily::kIndexRadix, n, k, block_bytes, machine));
  if (learned && learned->radix > 0) {
    RadixChoice c;
    c.radix = clamp_radix(learned->radix, n);
    c.metrics = index_bruck_cost(n, c.radix, k, block_bytes);
    c.predicted_us = machine.predict_us(c.metrics);
    c.segments_hint = learned->segments;
    return c;
  }
  const TunerKey key{n,
                     k,
                     block_bytes,
                     static_cast<int>(set),
                     double_bits(machine.beta_us),
                     double_bits(machine.tau_us_per_byte)};
  RadixChoice c = tuner_cache().get_or_compute(key, [&] {
    return pick_index_radix(n, k, block_bytes, machine, set);
  });
  // Segments-only override: keep the model's radix, carry the learned force.
  if (learned) c.segments_hint = learned->segments;
  return c;
}

VectorIndexChoice pick_indexv(std::int64_t n, int k, std::int64_t total_bytes,
                              std::int64_t max_pair_bytes,
                              const LinearModel& machine, RadixSet set) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  BRUCK_REQUIRE(total_bytes >= 0);
  BRUCK_REQUIRE(max_pair_bytes >= 0);
  BRUCK_REQUIRE(max_pair_bytes <= total_bytes);
  VectorIndexChoice out;
  if (total_bytes == 0 || n == 1) {
    // Nothing on the wire: direct degenerates to pure round counting.
    out.direct = true;
    out.radix = std::max<std::int64_t>(2, n);
    out.predicted = index_direct_cost(n, k, 0);
    out.predicted_us = machine.predict_us(out.predicted);
    return out;
  }
  const std::int64_t mean = std::max<std::int64_t>(
      1, (total_bytes + n * n - 1) / (n * n));
  const RadixChoice bruck = pick_index_radix(n, k, mean, machine, set);
  const CostMetrics direct = index_direct_cost(n, k, max_pair_bytes);
  const double direct_us = machine.predict_us(direct);
  if (direct_us <= bruck.predicted_us) {
    out.direct = true;
    out.radix = std::max<std::int64_t>(2, n);
    out.predicted = direct;
    out.predicted_us = direct_us;
  } else {
    out.direct = false;
    out.radix = bruck.radix;
    out.predicted = bruck.metrics;
    out.predicted_us = bruck.predicted_us;
  }
  return out;
}

namespace {

// (n, k, log2 bucket of total, log2 bucket of max, set, β bits, τ bits).
using VectorTunerKey = std::tuple<std::int64_t, int, int, int, int,
                                  std::uint64_t, std::uint64_t>;

MemoCache<VectorTunerKey, VectorIndexChoice>& vector_tuner_cache() {
  static MemoCache<VectorTunerKey, VectorIndexChoice> cache;
  return cache;
}

int log2_bucket(std::int64_t v) {
  return v == 0 ? 0
               : std::bit_width(static_cast<std::uint64_t>(v));
}

/// Representative value of a bucket (its upper bound): every input in a
/// bucket computes with the same value, so the cached decision is exact for
/// the whole bucket, not just its first caller.
std::int64_t bucket_ceiling(int bucket) {
  return bucket == 0 ? 0 : (std::int64_t{1} << bucket) - 1;
}

}  // namespace

VectorIndexChoice pick_indexv_cached(std::int64_t n, int k,
                                     std::int64_t total_bytes,
                                     std::int64_t max_pair_bytes,
                                     const LinearModel& machine,
                                     RadixSet set) {
  const int total_bucket = log2_bucket(total_bytes);
  const int max_bucket = log2_bucket(max_pair_bytes);
  // Override key: the log2-bucketed total stands in for block_bytes (the
  // same granularity the memo cache keys on, so a learned entry covers the
  // whole bucket).
  if (const std::optional<TunerConfig> learned = find_override(
          make_tuner_query(TunedFamily::kIndexVector, n, k,
                           bucket_ceiling(total_bucket), machine));
      learned && (learned->direct || learned->radix > 0)) {
    VectorIndexChoice out;
    if (learned->direct) {
      out.direct = true;
      out.radix = std::max<std::int64_t>(2, n);
      out.predicted = index_direct_cost(n, k, bucket_ceiling(max_bucket));
      out.predicted_us = machine.predict_us(out.predicted);
    } else {
      out.direct = false;
      out.radix = clamp_radix(learned->radix, n);
      const std::int64_t total_rep =
          std::max(bucket_ceiling(total_bucket), bucket_ceiling(max_bucket));
      const std::int64_t mean =
          std::max<std::int64_t>(1, (total_rep + n * n - 1) / (n * n));
      out.predicted = index_bruck_cost(n, out.radix, k, mean);
      out.predicted_us = machine.predict_us(out.predicted);
    }
    return out;
  }
  const VectorTunerKey key{n,
                           k,
                           total_bucket,
                           max_bucket,
                           static_cast<int>(set),
                           double_bits(machine.beta_us),
                           double_bits(machine.tau_us_per_byte)};
  // Compute from the bucket ceilings, not the raw inputs, so every caller
  // in a bucket gets the identical (cache-key-stable) decision.
  return vector_tuner_cache().get_or_compute(key, [&] {
    const std::int64_t total_rep =
        std::max(bucket_ceiling(total_bucket), bucket_ceiling(max_bucket));
    return pick_indexv(n, k, total_rep, bucket_ceiling(max_bucket), machine,
                       set);
  });
}

RadixChoice pick_reduce_radix(std::int64_t n, int k, std::int64_t block_bytes,
                              const LinearModel& machine, RadixSet set) {
  RadixChoice best;
  bool first = true;
  for (const std::int64_t r : candidate_radices(n, set, k)) {
    RadixChoice c;
    c.radix = r;
    c.metrics = reduce_bruck_cost(n, r, k, block_bytes);
    c.predicted_us = machine.predict_reduce_us(c.metrics);
    if (first || c.predicted_us < best.predicted_us ||
        (c.predicted_us == best.predicted_us && c.radix < best.radix)) {
      best = c;
      first = false;
    }
  }
  return best;
}

ReduceScatterChoice pick_reduce_scatter(std::int64_t n, int k,
                                        std::int64_t block_bytes,
                                        const LinearModel& machine,
                                        RadixSet set) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  BRUCK_REQUIRE(block_bytes >= 0);
  const RadixChoice bruck =
      pick_reduce_radix(n, k, block_bytes, machine, set);
  const CostMetrics direct = reduce_direct_cost(n, k, block_bytes);
  const double direct_us = machine.predict_reduce_us(direct);
  ReduceScatterChoice out;
  if (direct_us <= bruck.predicted_us) {
    out.direct = true;
    out.radix = std::max<std::int64_t>(2, n);
    out.predicted = direct;
    out.predicted_us = direct_us;
  } else {
    out.direct = false;
    out.radix = bruck.radix;
    out.predicted = bruck.metrics;
    out.predicted_us = bruck.predicted_us;
  }
  return out;
}

namespace {

// (n, k, b, set, β bits, τ bits, γ bits) → choice.
using ReduceTunerKey = std::tuple<std::int64_t, int, std::int64_t, int,
                                  std::uint64_t, std::uint64_t, std::uint64_t>;

MemoCache<ReduceTunerKey, ReduceScatterChoice>& reduce_tuner_cache() {
  static MemoCache<ReduceTunerKey, ReduceScatterChoice> cache;
  return cache;
}

}  // namespace

ReduceScatterChoice pick_reduce_scatter_cached(std::int64_t n, int k,
                                               std::int64_t block_bytes,
                                               const LinearModel& machine,
                                               RadixSet set) {
  const std::optional<TunerConfig> learned = find_override(make_tuner_query(
      TunedFamily::kReduceScatter, n, k, block_bytes, machine));
  if (learned && (learned->direct || learned->radix > 0)) {
    ReduceScatterChoice out;
    if (learned->direct) {
      out.direct = true;
      out.radix = std::max<std::int64_t>(2, n);
      out.predicted = reduce_direct_cost(n, k, block_bytes);
    } else {
      out.direct = false;
      out.radix = clamp_radix(learned->radix, n);
      out.predicted = reduce_bruck_cost(n, out.radix, k, block_bytes);
    }
    out.predicted_us = machine.predict_reduce_us(out.predicted);
    out.segments_hint = learned->segments;
    return out;
  }
  const ReduceTunerKey key{n,
                           k,
                           block_bytes,
                           static_cast<int>(set),
                           double_bits(machine.beta_us),
                           double_bits(machine.tau_us_per_byte),
                           double_bits(machine.gamma_us_per_byte)};
  ReduceScatterChoice out = reduce_tuner_cache().get_or_compute(key, [&] {
    return pick_reduce_scatter(n, k, block_bytes, machine, set);
  });
  if (learned) out.segments_hint = learned->segments;
  return out;
}

double predict_hier_us(const TwoLevelModel& machine, const HierCost& h) {
  return machine.intra.predict_us(h.up) + machine.inter.predict_us(h.inter) +
         machine.intra.predict_us(h.down);
}

double predict_hier_reduce_us(const TwoLevelModel& machine,
                              const HierCost& h) {
  // The up-stage gather ships raw contributions (no combining on the wire);
  // all intra combining happens in the leader's splice pass, priced at the
  // intra γ.  Only the leader exchange is a reducing wire pattern.
  return machine.intra.predict_us(h.up) +
         machine.intra.gamma_us_per_byte *
             static_cast<double>(h.local_combine_bytes) +
         machine.inter.predict_reduce_us(h.inter) +
         machine.intra.predict_us(h.down);
}

namespace {

std::vector<std::int64_t> hier_group_candidates(std::int64_t n,
                                                std::int64_t forced_group) {
  std::vector<std::int64_t> out;
  if (forced_group > 0) {
    out.push_back(std::min(forced_group, n));
    return out;
  }
  // g = 1 is flat-with-extra-steps (every rank its own leader) and g = n a
  // single group; both stay valid shapes for a forced knob but neither can
  // beat its flat/degenerate twin, so the auto sweep starts at 2.
  for (std::int64_t g = 2; g <= n; ++g) out.push_back(g);
  return out;
}

/// Sweep (g, inter radix) and keep the strict minimizer.  `cost` maps
/// (g, r) → HierCost, `predict` prices it; ascending loop order plus strict
/// < breaks ties toward the smaller group, then the smaller radix.
template <typename CostFn, typename PredictFn>
void sweep_hier(std::int64_t n, int k, RadixSet set, std::int64_t forced_group,
                bool radixed, const CostFn& cost, const PredictFn& predict,
                HierChoice& out) {
  bool first = true;
  for (const std::int64_t g : hier_group_candidates(n, forced_group)) {
    const std::int64_t groups =
        ceil_div(n, std::min<std::int64_t>(std::max<std::int64_t>(g, 1), n));
    const std::vector<std::int64_t> radices =
        radixed && groups > 1 ? candidate_radices(groups, set, k)
                              : std::vector<std::int64_t>{2};
    for (const std::int64_t r : radices) {
      const HierCost h = cost(g, r);
      const double t = predict(h);
      if (first || t < out.hier_us) {
        out.group = g;
        out.inter_radix = r;
        out.hier_cost = h;
        out.hier_us = t;
        first = false;
      }
    }
  }
  out.hier = !first && out.hier_us < out.flat_us;
}

// (collective, n, k, b, set-or-strategy, forced_group, intra β/τ/γ bits,
// inter β/τ/γ bits) → choice.  One cache serves all three hierarchical
// families; the leading discriminator keeps their keys disjoint.
using HierTunerKey =
    std::tuple<int, std::int64_t, int, std::int64_t, int, std::int64_t,
               std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t,
               std::uint64_t, std::uint64_t>;

MemoCache<HierTunerKey, HierChoice>& hier_tuner_cache() {
  static MemoCache<HierTunerKey, HierChoice> cache;
  return cache;
}

HierTunerKey hier_key(int collective, std::int64_t n, int k,
                      std::int64_t block_bytes, int discriminant,
                      std::int64_t forced_group, const TwoLevelModel& m) {
  return {collective,
          n,
          k,
          block_bytes,
          discriminant,
          forced_group,
          double_bits(m.intra.beta_us),
          double_bits(m.intra.tau_us_per_byte),
          double_bits(m.intra.gamma_us_per_byte),
          double_bits(m.inter.beta_us),
          double_bits(m.inter.tau_us_per_byte),
          double_bits(m.inter.gamma_us_per_byte)};
}

}  // namespace

HierChoice pick_index_plan(std::int64_t n, int k, std::int64_t block_bytes,
                           const TwoLevelModel& machine, RadixSet set,
                           std::int64_t forced_group) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  BRUCK_REQUIRE(block_bytes >= 0);
  HierChoice out;
  const RadixChoice flat =
      pick_index_radix(n, k, block_bytes, machine.inter, set);
  out.flat_radix = flat.radix;
  out.flat_us = flat.predicted_us;
  out.hier_us = flat.predicted_us;
  if (n == 1) return out;
  sweep_hier(
      n, k, set, forced_group, /*radixed=*/true,
      [&](std::int64_t g, std::int64_t r) {
        return hier_index_cost(n, k, g, r, block_bytes);
      },
      [&](const HierCost& h) { return predict_hier_us(machine, h); }, out);
  return out;
}

HierChoice pick_index_plan_cached(std::int64_t n, int k,
                                  std::int64_t block_bytes,
                                  const TwoLevelModel& machine, RadixSet set,
                                  std::int64_t forced_group) {
  // Overrides for the hierarchical families key on the *inter* model (the
  // level that dominates the flat-vs-hier comparison).  A learned shape
  // re-sweeps with the learned group forced, then pins hier/radix; the cost
  // fields stay informational (the sweep's, not the pinned radix's).
  if (const std::optional<TunerConfig> learned = find_override(
          make_tuner_query(TunedFamily::kHierIndex, n, k, block_bytes,
                           machine.inter))) {
    HierChoice out = pick_index_plan(
        n, k, block_bytes, machine, set,
        learned->group > 0 ? learned->group : forced_group);
    if (learned->hier >= 0) out.hier = learned->hier == 1 && n > 1;
    if (learned->radix > 0) {
      (out.hier ? out.inter_radix : out.flat_radix) = learned->radix;
    }
    return out;
  }
  const HierTunerKey key = hier_key(0, n, k, block_bytes,
                                    static_cast<int>(set), forced_group,
                                    machine);
  return hier_tuner_cache().get_or_compute(key, [&] {
    return pick_index_plan(n, k, block_bytes, machine, set, forced_group);
  });
}

HierChoice pick_concat_plan(std::int64_t n, int k, std::int64_t block_bytes,
                            const TwoLevelModel& machine,
                            ConcatLastRound strategy,
                            std::int64_t forced_group) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  BRUCK_REQUIRE(block_bytes >= 0);
  HierChoice out;
  const CostMetrics flat = concat_bruck_cost(
      n, k, block_bytes,
      resolve_concat_last_round(n, k, block_bytes, strategy));
  out.flat_us = machine.inter.predict_us(flat);
  out.hier_us = out.flat_us;
  if (n == 1) return out;
  sweep_hier(
      n, k, RadixSet::kAll, forced_group, /*radixed=*/false,
      [&](std::int64_t g, std::int64_t) {
        return hier_concat_cost(n, k, g, block_bytes, strategy);
      },
      [&](const HierCost& h) { return predict_hier_us(machine, h); }, out);
  return out;
}

HierChoice pick_concat_plan_cached(std::int64_t n, int k,
                                   std::int64_t block_bytes,
                                   const TwoLevelModel& machine,
                                   ConcatLastRound strategy,
                                   std::int64_t forced_group) {
  if (const std::optional<TunerConfig> learned = find_override(
          make_tuner_query(TunedFamily::kHierConcat, n, k, block_bytes,
                           machine.inter))) {
    HierChoice out = pick_concat_plan(
        n, k, block_bytes, machine, strategy,
        learned->group > 0 ? learned->group : forced_group);
    if (learned->hier >= 0) out.hier = learned->hier == 1 && n > 1;
    return out;
  }
  const HierTunerKey key = hier_key(1, n, k, block_bytes,
                                    static_cast<int>(strategy), forced_group,
                                    machine);
  return hier_tuner_cache().get_or_compute(key, [&] {
    return pick_concat_plan(n, k, block_bytes, machine, strategy,
                            forced_group);
  });
}

HierChoice pick_reduce_plan(std::int64_t n, int k, std::int64_t block_bytes,
                            const TwoLevelModel& machine, RadixSet set,
                            std::int64_t forced_group) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  BRUCK_REQUIRE(block_bytes >= 0);
  HierChoice out;
  const RadixChoice flat =
      pick_reduce_radix(n, k, block_bytes, machine.inter, set);
  out.flat_radix = flat.radix;
  out.flat_us = flat.predicted_us;
  out.hier_us = flat.predicted_us;
  if (n == 1) return out;
  sweep_hier(
      n, k, set, forced_group, /*radixed=*/true,
      [&](std::int64_t g, std::int64_t r) {
        return hier_reduce_cost(n, k, g, r, block_bytes);
      },
      [&](const HierCost& h) { return predict_hier_reduce_us(machine, h); },
      out);
  return out;
}

HierChoice pick_reduce_plan_cached(std::int64_t n, int k,
                                   std::int64_t block_bytes,
                                   const TwoLevelModel& machine, RadixSet set,
                                   std::int64_t forced_group) {
  if (const std::optional<TunerConfig> learned = find_override(
          make_tuner_query(TunedFamily::kHierReduce, n, k, block_bytes,
                           machine.inter))) {
    HierChoice out = pick_reduce_plan(
        n, k, block_bytes, machine, set,
        learned->group > 0 ? learned->group : forced_group);
    if (learned->hier >= 0) out.hier = learned->hier == 1 && n > 1;
    if (learned->radix > 0) {
      (out.hier ? out.inter_radix : out.flat_radix) = learned->radix;
    }
    return out;
  }
  const HierTunerKey key = hier_key(2, n, k, block_bytes,
                                    static_cast<int>(set), forced_group,
                                    machine);
  return hier_tuner_cache().get_or_compute(key, [&] {
    return pick_reduce_plan(n, k, block_bytes, machine, set, forced_group);
  });
}

TunerCacheStats tuner_cache_stats() {
  TunerCacheStats out;
  {
    std::lock_guard<std::mutex> lock(memo_registry_mu());
    for (MemoCacheBase* cache : memo_registry()) {
      cache->add_stats(out);
    }
  }
  out.overrides = g_override_count.load(std::memory_order_relaxed);
  out.override_hits = g_override_hits.load(std::memory_order_relaxed);
  return out;
}

void clear_tuner_cache() {
  {
    std::lock_guard<std::mutex> lock(memo_registry_mu());
    for (MemoCacheBase* cache : memo_registry()) {
      cache->clear();
    }
  }
  clear_tuner_overrides();
  g_override_hits.store(0, std::memory_order_relaxed);
  // Reload outside every registry lock: a file-backed tune table reinstalls
  // its overrides here (set_tuner_override takes the override lock itself),
  // which is what makes file-backed learned picks survive a clear while
  // purely in-memory ones do not.
  std::function<void()> reload;
  {
    std::lock_guard<std::mutex> lock(hook_mu());
    reload = hook_state().reload;
  }
  if (reload) reload();
  bump_tuning_epoch();
}

const char* to_string(TunedFamily family) {
  switch (family) {
    case TunedFamily::kIndexRadix:
      return "index";
    case TunedFamily::kIndexVector:
      return "indexv";
    case TunedFamily::kReduceScatter:
      return "reduce_scatter";
    case TunedFamily::kHierIndex:
      return "hier_index";
    case TunedFamily::kHierConcat:
      return "hier_concat";
    case TunedFamily::kHierReduce:
      return "hier_reduce";
  }
  return "?";
}

std::optional<TunedFamily> parse_tuned_family(const char* text) {
  if (text == nullptr) return std::nullopt;
  for (const TunedFamily f :
       {TunedFamily::kIndexRadix, TunedFamily::kIndexVector,
        TunedFamily::kReduceScatter, TunedFamily::kHierIndex,
        TunedFamily::kHierConcat, TunedFamily::kHierReduce}) {
    if (std::strcmp(text, to_string(f)) == 0) return f;
  }
  return std::nullopt;
}

TunerQuery make_tuner_query(TunedFamily family, std::int64_t n, int k,
                            std::int64_t block_bytes,
                            const LinearModel& machine) {
  TunerQuery q;
  q.family = family;
  q.n = n;
  q.k = k;
  q.block_bytes = block_bytes;
  q.beta_bits = model_bits(machine.beta_us);
  q.tau_bits = model_bits(machine.tau_us_per_byte);
  q.gamma_bits = model_bits(machine.gamma_us_per_byte);
  return q;
}

void set_tuner_override(const TunerQuery& query, const TunerConfig& config) {
  std::lock_guard<std::mutex> lock(override_mu());
  override_map()[query] = config;
  g_override_count.store(override_map().size(), std::memory_order_relaxed);
  bump_tuning_epoch();
}

std::optional<TunerConfig> tuner_override(const TunerQuery& query) {
  if (g_override_count.load(std::memory_order_relaxed) == 0) {
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(override_mu());
  const auto it = override_map().find(query);
  if (it == override_map().end()) return std::nullopt;
  return it->second;
}

std::size_t tuner_override_count() {
  return g_override_count.load(std::memory_order_relaxed);
}

std::vector<std::pair<TunerQuery, TunerConfig>> tuner_overrides() {
  std::lock_guard<std::mutex> lock(override_mu());
  return {override_map().begin(), override_map().end()};
}

void clear_tuner_overrides() {
  std::lock_guard<std::mutex> lock(override_mu());
  override_map().clear();
  g_override_count.store(0, std::memory_order_relaxed);
  bump_tuning_epoch();
}

void set_adaptive_hook(AdaptiveHook hook) {
  std::lock_guard<std::mutex> lock(hook_mu());
  hook_state().adaptive = std::move(hook);
  g_adaptive_installed.store(static_cast<bool>(hook_state().adaptive),
                             std::memory_order_relaxed);
}

bool adaptive_hook_installed() {
  return g_adaptive_installed.load(std::memory_order_relaxed);
}

TunerConfig adaptive_decision(const TunerQuery& query,
                              const TunerConfig& model_choice) {
  if (!adaptive_hook_installed()) return model_choice;
  AdaptiveHook hook;
  {
    std::lock_guard<std::mutex> lock(hook_mu());
    hook = hook_state().adaptive;
  }
  if (!hook) return model_choice;
  const std::optional<TunerConfig> rerouted = hook(query, model_choice);
  return rerouted ? *rerouted : model_choice;
}

void set_observation_hook(ObservationHook hook) {
  std::lock_guard<std::mutex> lock(hook_mu());
  hook_state().observation = std::move(hook);
  g_observation_installed.store(static_cast<bool>(hook_state().observation),
                                std::memory_order_relaxed);
}

bool observation_hook_installed() {
  return g_observation_installed.load(std::memory_order_relaxed);
}

void notify_execution(const ExecutionSample& sample) {
  if (!observation_hook_installed()) return;
  ObservationHook hook;
  {
    std::lock_guard<std::mutex> lock(hook_mu());
    hook = hook_state().observation;
  }
  if (hook) hook(sample);
}

void set_tuner_reload_hook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(hook_mu());
  hook_state().reload = std::move(hook);
}

void set_active_machine(const std::optional<LinearModel>& machine) {
  {
    std::lock_guard<std::mutex> lock(hook_mu());
    hook_state().active = machine;
    publish_models();
  }
  bump_tuning_epoch();
}

std::optional<LinearModel> active_machine() {
  std::lock_guard<std::mutex> lock(hook_mu());
  return hook_state().active;
}

LinearModel effective_machine(const LinearModel& requested) {
  if (!g_models_published.load(std::memory_order_acquire) ||
      !same_constants(requested, ibm_sp1())) {
    return requested;
  }
  std::lock_guard<std::mutex> lock(hook_mu());
  return hook_state().active ? *hook_state().active : requested;
}

void set_active_two_level(const std::optional<TwoLevelModel>& machine) {
  {
    std::lock_guard<std::mutex> lock(hook_mu());
    hook_state().active_two_level = machine;
    publish_models();
  }
  bump_tuning_epoch();
}

std::optional<TwoLevelModel> active_two_level() {
  std::lock_guard<std::mutex> lock(hook_mu());
  return hook_state().active_two_level;
}

TwoLevelModel effective_two_level(const TwoLevelModel& requested) {
  if (!g_models_published.load(std::memory_order_acquire)) return requested;
  const TwoLevelModel sentinel = uniform_two_level(ibm_sp1());
  if (!same_constants(requested.intra, sentinel.intra) ||
      !same_constants(requested.inter, sentinel.inter)) {
    return requested;
  }
  std::lock_guard<std::mutex> lock(hook_mu());
  if (hook_state().active_two_level) return *hook_state().active_two_level;
  // A calibrated flat model with no measured hierarchy: apply it uniformly
  // (the same default shape uniform_two_level gives the compiled-in model).
  if (hook_state().active) return uniform_two_level(*hook_state().active);
  return requested;
}

std::uint64_t tuning_epoch() {
  return g_tuning_epoch.load(std::memory_order_acquire);
}

void bump_tuning_epoch() {
  g_tuning_epoch.fetch_add(1, std::memory_order_release);
}

double pipelined_round_us(const LinearModel& machine,
                          std::int64_t message_bytes, int segments) {
  BRUCK_REQUIRE(message_bytes >= 0);
  BRUCK_REQUIRE(segments >= 1);
  const double per_segment =
      machine.beta_us + machine.tau_us_per_byte *
                            (static_cast<double>(message_bytes) / segments);
  // Three overlapped stages (pack, wire, unpack): pipeline fill of depth 3
  // plus one slot per further segment.
  return (segments + 2) * per_segment;
}

SegmentChoice pick_segment_count(const LinearModel& machine,
                                 std::int64_t rounds,
                                 std::int64_t message_bytes, int max_segments,
                                 std::int64_t min_segment_bytes) {
  BRUCK_REQUIRE(rounds >= 0);
  BRUCK_REQUIRE(max_segments >= 1);
  BRUCK_REQUIRE(min_segment_bytes >= 1);
  const int cap = static_cast<int>(std::min<std::int64_t>(
      max_segments, std::max<std::int64_t>(1, message_bytes / min_segment_bytes)));
  SegmentChoice best;
  best.segments = 1;
  best.predicted_us = rounds * pipelined_round_us(machine, message_bytes, 1);
  for (int s = 2; s <= cap; ++s) {
    const double t = rounds * pipelined_round_us(machine, message_bytes, s);
    if (t < best.predicted_us) {
      best.segments = s;
      best.predicted_us = t;
    }
  }
  return best;
}

int resolve_segment_knob(int requested, bool pipelined,
                         const LinearModel& machine,
                         const CostMetrics& predicted) {
  if (!pipelined) return 1;
  if (requested != 0) {
    BRUCK_REQUIRE_MSG(requested >= 1, "segment count must be >= 1");
  }
  if (predicted.c1 <= 0) return 1;
  const std::int64_t per_round =
      (predicted.c2 + predicted.c1 - 1) / predicted.c1;
  const std::int64_t floor_cap =
      std::max<std::int64_t>(1, per_round / kMinSegmentBytes);
  if (requested != 0) {
    return static_cast<int>(std::min<std::int64_t>(requested, floor_cap));
  }
  return pick_segment_count(machine, predicted.c1, per_round).segments;
}

FusionChoice pick_fusion(int group, const LinearModel& machine,
                         const CostMetrics& per_op, const CostMetrics& fused,
                         std::int64_t user_bytes) {
  BRUCK_REQUIRE(group >= 1);
  BRUCK_REQUIRE(user_bytes >= 0);
  FusionChoice out;
  out.serial_us = group * machine.predict_us(per_op);
  // Each member's user buffer crosses the fused staging area twice: once
  // gathered in before the exchange, once scattered out after.
  out.fused_us = machine.predict_us(fused) +
                 kPackUsPerByte * 2.0 * group *
                     static_cast<double>(user_bytes);
  out.fuse = group > 1 && out.fused_us < out.serial_us;
  return out;
}

std::int64_t crossover_block_bytes(std::int64_t n, int k, std::int64_t radix_a,
                                   std::int64_t radix_b,
                                   const LinearModel& machine,
                                   std::int64_t limit) {
  BRUCK_REQUIRE(limit >= 1);
  // Costs are linear in b, so the sign of (time_a − time_b) changes at most
  // once; find the first b where the order differs from b = 1.
  auto diff = [&](std::int64_t b) {
    const double ta = machine.predict_us(index_bruck_cost(n, radix_a, k, b));
    const double tb = machine.predict_us(index_bruck_cost(n, radix_b, k, b));
    return ta - tb;
  };
  double d1 = diff(1);
  if (d1 == 0.0) {
    // Both costs are affine in b, so equality at two points means equality
    // everywhere — no crossover.  Equality at b = 1 only means they diverge
    // immediately after.
    if (diff(2) == 0.0) return 0;
    return 1;
  }
  // Exponential search then bisection for the sign change.
  std::int64_t lo = 1;
  std::int64_t hi = 2;
  while (hi <= limit && diff(hi) * d1 > 0.0) {
    lo = hi;
    hi *= 2;
  }
  if (hi > limit) return 0;  // no crossover within limit
  while (lo + 1 < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (diff(mid) * d1 > 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

}  // namespace bruck::model
