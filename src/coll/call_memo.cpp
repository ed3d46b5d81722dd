#include "coll/call_memo.hpp"

#include <utility>

#include "coll/progress.hpp"
#include "model/tuner.hpp"

namespace bruck::coll {

namespace {

/// The signature fields every family shares.
CallSignature base_signature(PlanCollective family, std::int64_t n, int k,
                             std::int64_t block_bytes,
                             const model::LinearModel& machine,
                             int segments, const LayoutPair& layouts) {
  CallSignature s;
  s.family = family;
  s.n = n;
  s.k = k;
  s.block_bytes = block_bytes;
  s.segments = segments;
  s.beta_bits = model::model_bits(machine.beta_us);
  s.tau_bits = model::model_bits(machine.tau_us_per_byte);
  s.gamma_bits = model::model_bits(machine.gamma_us_per_byte);
  s.layout_digest = layout_digest(layouts.send, layouts.recv);
  return s;
}

}  // namespace

CallSignature call_signature(std::int64_t n, int k, std::int64_t block_bytes,
                             const AlltoallOptions& options,
                             const LayoutPair& layouts) {
  CallSignature s =
      base_signature(PlanCollective::kIndex, n, k, block_bytes,
                     options.machine, options.segments, layouts);
  s.algorithm = static_cast<std::uint8_t>(options.algorithm);
  s.radix = options.radix;
  s.radix_set = static_cast<std::uint8_t>(options.radix_set);
  return s;
}

CallSignature call_signature(std::int64_t n, int k, std::int64_t block_bytes,
                             const AllgatherOptions& options,
                             const LayoutPair& layouts) {
  CallSignature s =
      base_signature(PlanCollective::kConcat, n, k, block_bytes,
                     options.machine, options.segments, layouts);
  s.algorithm = static_cast<std::uint8_t>(options.algorithm);
  s.last_round = static_cast<std::uint8_t>(options.last_round);
  return s;
}

CallSignature call_signature(std::int64_t n, int k, std::int64_t block_bytes,
                             const ReduceOp& op,
                             const ReduceScatterOptions& options,
                             const LayoutPair& layouts) {
  CallSignature s =
      base_signature(PlanCollective::kReduce, n, k, block_bytes,
                     options.machine, options.segments, layouts);
  s.algorithm = static_cast<std::uint8_t>(options.algorithm);
  s.radix = options.radix;
  s.radix_set = static_cast<std::uint8_t>(options.radix_set);
  s.reduce_tag = op.cache_tag();
  return s;
}

const CallMemo::Entry* CallMemo::find(const CallSignature& signature,
                                      std::uint64_t epoch) const {
  for (const Entry& e : entries_) {
    if (e.plan != nullptr && e.epoch == epoch && e.signature == signature) {
      return &e;
    }
  }
  return nullptr;
}

const CallMemo::Entry& CallMemo::store(const CallSignature& signature,
                                       std::uint64_t epoch,
                                       const Recipe& recipe,
                                       std::shared_ptr<const Plan> plan) {
  Entry* slot = nullptr;
  for (Entry& e : entries_) {
    if (e.plan != nullptr && e.signature == signature) {
      slot = &e;
      break;
    }
  }
  if (slot == nullptr) {
    slot = &entries_[next_];
    next_ = (next_ + 1) % kEntries;
  }
  *slot = Entry{signature, epoch, recipe, std::move(plan)};
  return *slot;
}

CommState::~CommState() = default;

CommState& CommState::of(mps::Communicator& comm) {
  std::shared_ptr<void>& slot = comm.extension_slot();
  if (!slot) slot = std::make_shared<CommState>();
  return *static_cast<CommState*>(slot.get());
}

}  // namespace bruck::coll
