#include "coll/plan_cache.hpp"

#include <bit>

#include "model/tuner.hpp"
#include "util/assert.hpp"

namespace bruck::coll {

std::size_t PlanKeyHash::operator()(const PlanKey& key) const {
  // FNV-1a over the key fields; cheap and stable.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(key.collective));
  mix(key.algorithm);
  mix(static_cast<std::uint64_t>(key.n));
  mix(static_cast<std::uint64_t>(key.k));
  mix(static_cast<std::uint64_t>(key.radix));
  mix(key.strategy);
  mix(static_cast<std::uint64_t>(key.block_class));
  mix(static_cast<std::uint64_t>(key.segments));
  mix(key.shape_digest);
  mix(key.reduce_tag);
  mix(key.layout_digest);
  return static_cast<std::size_t>(h);
}

std::uint64_t shape_digest(std::span<const std::int64_t> counts) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(counts.size());
  for (const std::int64_t c : counts) {
    // log2 size-class bucketing: 0 is its own bucket, otherwise the bit
    // width.  Counts that only jitter within a size class digest equal.
    mix(c == 0 ? 0
               : static_cast<std::uint64_t>(
                     std::bit_width(static_cast<std::uint64_t>(c))));
  }
  // Never return the uniform-plan sentinel: an unlucky shape whose hash
  // lands on 0 must not alias a regular plan's key.
  return reserve_shape_digest_sentinel(h);
}

PlanKey index_plan_key(IndexAlgorithm algorithm, std::int64_t n, int k,
                       std::int64_t radix, int segments,
                       std::uint64_t layout) {
  BRUCK_REQUIRE_MSG(algorithm != IndexAlgorithm::kAuto,
                    "resolve kAuto before keying");
  BRUCK_REQUIRE_MSG(segments >= 1, "resolve the segment count before keying");
  PlanKey key;
  key.collective = PlanCollective::kIndex;
  key.algorithm = static_cast<std::uint8_t>(algorithm);
  key.n = n;
  key.k = k;
  key.radix = algorithm == IndexAlgorithm::kBruck ? radix : 0;
  key.strategy = 0;
  key.block_class = 0;  // index plans serve every block size
  key.segments = segments;
  key.layout_digest = layout;
  return key;
}

PlanKey concat_plan_key(ConcatAlgorithm algorithm, std::int64_t n, int k,
                        model::ConcatLastRound strategy,
                        std::int64_t block_bytes, int segments,
                        std::uint64_t layout) {
  BRUCK_REQUIRE_MSG(algorithm != ConcatAlgorithm::kAuto,
                    "resolve kAuto before keying");
  BRUCK_REQUIRE_MSG(algorithm != ConcatAlgorithm::kBruck ||
                        strategy != model::ConcatLastRound::kAuto,
                    "resolve the last-round strategy before keying");
  BRUCK_REQUIRE_MSG(segments >= 1, "resolve the segment count before keying");
  PlanKey key;
  key.collective = PlanCollective::kConcat;
  key.algorithm = static_cast<std::uint8_t>(algorithm);
  key.n = n;
  key.k = k;
  key.radix = 0;
  key.strategy = algorithm == ConcatAlgorithm::kBruck
                     ? static_cast<std::uint8_t>(strategy)
                     : 0;
  key.block_class = block_bytes;
  key.segments = segments;
  key.layout_digest = layout;
  return key;
}

PlanKey reduce_plan_key(ReduceAlgorithm algorithm, std::int64_t n, int k,
                        std::int64_t radix, const ReduceOp& op,
                        int segments, std::uint64_t layout) {
  BRUCK_REQUIRE_MSG(algorithm != ReduceAlgorithm::kAuto,
                    "resolve kAuto before keying");
  BRUCK_REQUIRE_MSG(segments >= 1, "resolve the segment count before keying");
  PlanKey key;
  key.collective = PlanCollective::kReduce;
  key.algorithm = static_cast<std::uint8_t>(algorithm);
  key.n = n;
  key.k = k;
  key.radix = algorithm == ReduceAlgorithm::kBruck ? radix : 0;
  key.strategy = 0;
  key.block_class = 0;  // reduction plans serve every block size
  key.segments = segments;
  key.reduce_tag = op.cache_tag();
  key.layout_digest = layout;
  return key;
}

PlanKey indexv_plan_key(IndexAlgorithm algorithm, std::int64_t n, int k,
                        std::int64_t radix, std::uint64_t digest,
                        int segments, std::uint64_t layout) {
  PlanKey key = index_plan_key(algorithm, n, k, radix, segments, layout);
  BRUCK_REQUIRE_MSG(digest != 0, "vector keys need a nonzero shape digest");
  key.shape_digest = digest;
  return key;
}

PlanKey concatv_plan_key(ConcatAlgorithm algorithm, std::int64_t n, int k,
                         std::uint64_t digest, int segments) {
  // Strategy never enters vector keys: irregular concat Bruck is always
  // column-granular.
  PlanKey key = concat_plan_key(algorithm, n, k,
                                model::ConcatLastRound::kColumnGranular,
                                /*block_bytes=*/0, segments);
  BRUCK_REQUIRE_MSG(digest != 0, "vector keys need a nonzero shape digest");
  key.strategy = 0;
  key.shape_digest = digest;
  return key;
}

PlanKey rooted_plan_key(PlanCollective collective, std::int64_t n, int k,
                        int segments) {
  BRUCK_REQUIRE_MSG(collective == PlanCollective::kGather ||
                        collective == PlanCollective::kScatter ||
                        collective == PlanCollective::kBcast,
                    "rooted keys cover gather/scatter/bcast only");
  BRUCK_REQUIRE_MSG(segments >= 1, "resolve the segment count before keying");
  PlanKey key;
  key.collective = collective;
  key.algorithm = 0;  // one algorithm per rooted kind
  key.n = n;
  key.k = k;
  key.segments = segments;
  return key;
}

namespace {

std::shared_ptr<const Plan> lower_from_key(const PlanKey& key) {
  switch (key.collective) {
    case PlanCollective::kGather:
      return Plan::lower_gather_binomial(key.n, key.k, key.segments);
    case PlanCollective::kScatter:
      return Plan::lower_scatter_binomial(key.n, key.k, key.segments);
    case PlanCollective::kBcast:
      return Plan::lower_bcast_circulant(key.n, key.k, key.segments);
    default:
      break;
  }
  if (key.collective == PlanCollective::kReduce) {
    switch (static_cast<ReduceAlgorithm>(key.algorithm)) {
      case ReduceAlgorithm::kBruck:
        return Plan::lower_reduce_bruck(key.n, key.k, key.radix,
                                        key.segments);
      case ReduceAlgorithm::kDirect:
        return Plan::lower_reduce_direct(key.n, key.k, key.segments);
      case ReduceAlgorithm::kPairwise:
        return Plan::lower_reduce_pairwise(key.n, key.k, key.segments);
      case ReduceAlgorithm::kAuto:
        break;
    }
    BRUCK_ENSURE_MSG(false, "unloweable reduce plan key");
    return nullptr;
  }
  if (key.shape_digest != 0) {
    // Irregular plans are shape-free: the digest splits cache entries but
    // never changes the lowering inputs.
    if (key.collective == PlanCollective::kIndex) {
      switch (static_cast<IndexAlgorithm>(key.algorithm)) {
        case IndexAlgorithm::kBruck:
          return Plan::lower_indexv_bruck(key.n, key.k, key.radix,
                                          key.segments);
        case IndexAlgorithm::kDirect:
          return Plan::lower_indexv_direct(key.n, key.k, key.segments);
        case IndexAlgorithm::kPairwise:
          return Plan::lower_indexv_pairwise(key.n, key.k, key.segments);
        case IndexAlgorithm::kAuto:
          break;
      }
    } else {
      switch (static_cast<ConcatAlgorithm>(key.algorithm)) {
        case ConcatAlgorithm::kBruck:
          return Plan::lower_concatv_bruck(key.n, key.k, key.segments);
        case ConcatAlgorithm::kFolklore:
          return Plan::lower_concatv_folklore(key.n, key.k, key.segments);
        case ConcatAlgorithm::kRing:
          return Plan::lower_concatv_ring(key.n, key.k, key.segments);
        case ConcatAlgorithm::kAuto:
          break;
      }
    }
    BRUCK_ENSURE_MSG(false, "unloweable vector plan key");
    return nullptr;
  }
  if (key.collective == PlanCollective::kIndex) {
    switch (static_cast<IndexAlgorithm>(key.algorithm)) {
      case IndexAlgorithm::kBruck:
        return Plan::lower_index_bruck(key.n, key.k, key.radix, key.segments);
      case IndexAlgorithm::kDirect:
        return Plan::lower_index_direct(key.n, key.k, key.segments);
      case IndexAlgorithm::kPairwise:
        return Plan::lower_index_pairwise(key.n, key.k, key.segments);
      case IndexAlgorithm::kAuto:
        break;
    }
  } else {
    switch (static_cast<ConcatAlgorithm>(key.algorithm)) {
      case ConcatAlgorithm::kBruck:
        return Plan::lower_concat_bruck(
            key.n, key.k, key.block_class,
            static_cast<model::ConcatLastRound>(key.strategy), key.segments);
      case ConcatAlgorithm::kFolklore:
        return Plan::lower_concat_folklore(key.n, key.k, key.block_class,
                                           key.segments);
      case ConcatAlgorithm::kRing:
        return Plan::lower_concat_ring(key.n, key.k, key.block_class,
                                       key.segments);
      case ConcatAlgorithm::kAuto:
        break;
    }
  }
  BRUCK_ENSURE_MSG(false, "unloweable plan key");
  return nullptr;
}

}  // namespace

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity) {
  BRUCK_REQUIRE(capacity >= 1);
}

PlanCache::Lookup PlanCache::get_or_lower(const PlanKey& key) {
  // Lowering is O(n²·rounds) cell construction plus a full k-port
  // validation — far too much work to hold the cache mutex through.  The
  // first caller of a key installs an in-flight future and lowers outside
  // the lock; concurrent same-key callers wait on the future (and report a
  // hit — they did no planning work); lookups for other keys pass straight
  // through.
  std::shared_future<std::shared_ptr<const Plan>> in_flight;
  std::promise<std::shared_ptr<const Plan>> promise;
  bool creator = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = plans_.find(key);
    if (it != plans_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      return Lookup{it->second.plan, true};
    }
    const auto pending = pending_.find(key);
    if (pending != pending_.end()) {
      in_flight = pending->second;
    } else {
      creator = true;
      ++misses_;
      in_flight = promise.get_future().share();
      pending_.emplace(key, in_flight);
    }
  }

  if (!creator) {
    // Another thread is lowering this key: wait for its result (rethrows
    // its lowering failure, if any) and report a hit — no planning work
    // happened here.
    std::shared_ptr<const Plan> plan = in_flight.get();
    std::lock_guard<std::mutex> lock(mu_);
    ++hits_;
    return Lookup{std::move(plan), true};
  }

  std::shared_ptr<const Plan> plan;
  try {
    plan = lower_from_key(key);
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.erase(key);
    if (!plans_.contains(key)) {  // idempotent vs a clear() racing a lowering
      lru_.push_front(key);
      plans_.emplace(key, Entry{plan, lru_.begin()});
      if (plans_.size() > capacity_) {
        plans_.erase(lru_.back());
        lru_.pop_back();
        ++evictions_;
      }
    }
  }
  promise.set_value(plan);
  return Lookup{plan, false};
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return PlanCacheStats{hits_ + memo_hits_.load(std::memory_order_relaxed),
                        misses_, evictions_, plans_.size()};
}

void PlanCache::clear() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    plans_.clear();
    lru_.clear();
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
    memo_hits_.store(0, std::memory_order_relaxed);
  }
  model::bump_tuning_epoch();
}

PlanCache& PlanCache::global() {
  static PlanCache cache;
  return cache;
}

}  // namespace bruck::coll
