// The benchmark's workloads and the per-rank collective instance each world
// runs: input generation from the seed, one call through the public
// coll:: facade, the same call assembled from the layer functions the
// facade calls (with a span around each), and the output checkers.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "coll/api.hpp"
#include "coll/plan.hpp"
#include "model/linear_model.hpp"
#include "model/metrics.hpp"
#include "mps/bootstrap.hpp"

namespace perfbench {

/// Every workload runs on n = 3 ranks with k = 1 port: at n = 4 the rank
/// threads or processes oversubscribe a 4-core host once anything else runs,
/// and p50 then swings several-fold between identical runs.
constexpr std::int64_t kRanks = 3;
constexpr int kPorts = 1;

enum class Family { kAlltoall, kAllreduce };

struct Workload {
  std::string_view name;
  bruck::mps::FabricBackend backend;
  Family family;
  /// Alltoall: bytes per block (one block per destination).  Allreduce:
  /// payload bytes per rank (f64 elements).
  std::int64_t bytes;
  /// Checked, untimed calls before any timing (caches, plan cache, tuner
  /// memo, fabric rings all warm).
  int warmup_calls;
  /// Barrier-bracketed timed calls between two stop/continue agreements.
  int latency_batch;
  /// Back-to-back calls per ops_per_s sample, each into its own buffer.
  int throughput_batch;
};

[[nodiscard]] std::span<const Workload> workloads();
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// Monotonic clock in nanoseconds.  CLOCK_MONOTONIC is system-wide, so
/// stamps taken in forked rank processes compare with the parent's.
[[nodiscard]] std::int64_t now_ns();

/// Layers a traced call is split into; each is one span under the call.
enum class Layer : std::uint8_t {
  kCall,      ///< the whole traced call (root span)
  kResolve,   ///< model: algorithm/radix/segment resolution
  kLookup,    ///< coll plan cache: PlanCache::get_or_lower
  kStageIn,   ///< coll pack: allreduce's padded staging copy in
  kExecutor,  ///< coll plan executor: Plan::run_pipelined (one per stage)
  kStageOut,  ///< coll pack: allreduce's copy out of the gathered result
};
constexpr int kLayerCount = 6;
[[nodiscard]] const char* layer_name(Layer layer);

struct Span {
  std::int32_t call = 0;
  std::int32_t parent = -1;  ///< index of the parent span in the log, -1 = root
  Layer layer = Layer::kCall;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// What one traced call observed besides its spans.
struct TracedCall {
  int next_round = 0;
  int lookups = 0;
  int lookup_hits = 0;
  std::int64_t bytes_reduced = 0;
};

/// One stage of a call: the compiled plan it runs, the block size it runs
/// at, and the paper's closed-form measures for the algorithm and radix the
/// tuner picked.
struct Stage {
  std::string label;  ///< the plan's algorithm and wire segments
  std::shared_ptr<const bruck::coll::Plan> plan;
  std::int64_t block_bytes = 0;
  /// Bruck radix of index/reduce stages; 0 for the concat stage.
  std::int64_t radix = 0;
  bruck::model::CostMetrics closed_form;
  bool reduce = false;
};

/// One rank's instance of a workload's collective.
class Collective {
 public:
  Collective(const Workload& workload, std::int64_t rank, std::uint64_t seed);

  [[nodiscard]] std::size_t recv_bytes() const;

  /// One call through the public facade; returns the next free round.
  int run(bruck::mps::Communicator& comm, std::span<std::byte> recv,
          int round) const;

  /// The same call assembled from the functions the facade calls, in the
  /// facade's order, with one span per layer appended to `spans`.
  TracedCall run_traced(bruck::mps::Communicator& comm,
                        std::span<std::byte> recv, int round,
                        std::int32_t call, std::vector<Span>& spans) const;

  /// Empty when `recv` holds this rank's correct result, else a
  /// description of the first mismatch.
  [[nodiscard]] std::string check(std::span<const std::byte> recv) const;

  /// The stages a call runs, resolved exactly as the facade resolves them.
  [[nodiscard]] std::vector<Stage> stages() const;

  /// Modeled time of one call under `machine` (γ term on reduce stages).
  [[nodiscard]] double predicted_us(
      const bruck::model::LinearModel& machine) const;

  [[nodiscard]] const std::vector<std::byte>& send() const { return send_; }

 private:
  const Workload& workload_;
  std::int64_t rank_;
  std::uint64_t seed_;
  std::vector<std::byte> send_;
  /// Allreduce only: the exact integer-valued sum every rank must receive.
  std::vector<std::byte> expected_;
};

}  // namespace perfbench
