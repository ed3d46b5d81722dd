#include "workload.hpp"

#include <array>
#include <chrono>
#include <cstring>

#include "coll/plan_cache.hpp"
#include "coll/reduction.hpp"
#include "coll/verify.hpp"
#include "model/costs.hpp"
#include "model/tuner.hpp"

namespace perfbench {

namespace coll = bruck::coll;
namespace model = bruck::model;
namespace mps = bruck::mps;

namespace {

// Why each workload exists is recorded in perfbench/README.md.
constexpr std::array<Workload, 3> kWorkloads{{
    {"a2a-64B-thread", mps::FabricBackend::kThread, Family::kAlltoall, 64,
     2000, 64, 4},
    {"a2a-64B-shm", mps::FabricBackend::kShm, Family::kAlltoall, 64, 2000,
     64, 256},
    {"allreduce-256K-shm", mps::FabricBackend::kShm, Family::kAllreduce,
     256 * 1024, 100, 8, 4},
}};

constexpr std::int64_t kF64 = 8;

/// Default facade options with the hierarchy pinned off (the benchmark
/// measures the flat plans; the env knob is cleared at start as well).
coll::AlltoallOptions alltoall_options() {
  coll::AlltoallOptions options;
  options.hier = coll::HierMode::kOff;
  return options;
}

coll::ReduceOp sum_f64() { return coll::ReduceOp::sum(coll::ReduceElem::kF64); }

/// Allreduce's reduce-scatter block: ⌈elems/n⌉ f64 elements.
std::int64_t allreduce_block_bytes(std::int64_t payload_bytes) {
  const std::int64_t elems = payload_bytes / kF64;
  return (elems + kRanks - 1) / kRanks * kF64;
}

/// The alltoall facade's resolution (coll::alltoall, flat compiled path).
struct IndexRecipe {
  coll::AlltoallPlan plan;
  int segments = 1;
  coll::PlanKey key;
};

IndexRecipe resolve_index(std::int64_t block_bytes) {
  const coll::AlltoallOptions options = alltoall_options();
  IndexRecipe r;
  r.plan = coll::plan_alltoall(kRanks, kPorts, block_bytes, options);
  r.segments = model::resolve_segment_knob(
      r.plan.segments_hint > 0 ? r.plan.segments_hint : options.segments,
      /*pipelined=*/true, model::effective_machine(options.machine),
      r.plan.predicted);
  r.key = coll::index_plan_key(r.plan.algorithm, kRanks, kPorts, r.plan.radix,
                               r.segments);
  return r;
}

/// The allreduce facade's resolution: its reduce_scatter stage, then its
/// allgather stage, both at the padded block size.
struct ReduceRecipe {
  coll::detail::ReducePlanChoice choice;
  int rs_segments = 1;
  model::ConcatLastRound strategy = model::ConcatLastRound::kAuto;
  model::CostMetrics concat;
  int ag_segments = 1;
  coll::PlanKey rs_key;
  coll::PlanKey ag_key;
};

ReduceRecipe resolve_reduce(std::int64_t block_bytes, const coll::ReduceOp& op) {
  const coll::AllreduceOptions options;
  const model::LinearModel machine = model::effective_machine(options.machine);
  ReduceRecipe r;
  r.choice = coll::detail::resolve_reduce_algorithm(
      kRanks, kPorts, block_bytes, options.algorithm, options.radix,
      options.machine, options.radix_set);
  r.rs_segments = model::resolve_segment_knob(
      r.choice.segments_hint > 0 ? r.choice.segments_hint : options.segments,
      /*pipelined=*/true, machine, r.choice.predicted);
  r.strategy = model::resolve_concat_last_round(kRanks, kPorts, block_bytes,
                                                model::ConcatLastRound::kAuto);
  r.concat = model::concat_bruck_cost(kRanks, kPorts, block_bytes, r.strategy);
  r.ag_segments = model::resolve_segment_knob(options.segments, true, machine,
                                              r.concat);
  r.rs_key = coll::reduce_plan_key(r.choice.algorithm, kRanks, kPorts,
                                   r.choice.radix, op, r.rs_segments);
  r.ag_key = coll::concat_plan_key(coll::ConcatAlgorithm::kBruck, kRanks,
                                   kPorts, r.strategy, block_bytes,
                                   r.ag_segments);
  return r;
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Rank `rank`'s element i: an integer in [-2^20, 2^20), so sums over the
/// ranks are exact in f64 whatever order the executor combines them in.
double input_value(std::uint64_t seed, std::int64_t rank, std::int64_t i) {
  const std::uint64_t h =
      mix(seed ^ mix(static_cast<std::uint64_t>(rank) << 40 ^
                     static_cast<std::uint64_t>(i)));
  return static_cast<double>(static_cast<std::int64_t>(h % (1u << 21)) -
                             (1 << 20));
}

}  // namespace

std::span<const Workload> workloads() { return kWorkloads; }

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kCall: return "call";
    case Layer::kResolve: return "model.resolve";
    case Layer::kLookup: return "plan_cache.lookup";
    case Layer::kStageIn: return "pack.stage_in";
    case Layer::kExecutor: return "executor.run";
    case Layer::kStageOut: return "pack.stage_out";
  }
  return "?";
}

Collective::Collective(const Workload& workload, std::int64_t rank,
                       std::uint64_t seed)
    : workload_(workload), rank_(rank), seed_(seed) {
  if (workload_.family == Family::kAlltoall) {
    send_.resize(static_cast<std::size_t>(kRanks * workload_.bytes));
    coll::fill_index_send(send_, kRanks, rank_, workload_.bytes, seed_);
    return;
  }
  const std::int64_t elems = workload_.bytes / kF64;
  std::vector<double> mine(static_cast<std::size_t>(elems));
  std::vector<double> sum(static_cast<std::size_t>(elems), 0.0);
  for (std::int64_t i = 0; i < elems; ++i) {
    mine[static_cast<std::size_t>(i)] = input_value(seed_, rank_, i);
    for (std::int64_t r = 0; r < kRanks; ++r) {
      sum[static_cast<std::size_t>(i)] += input_value(seed_, r, i);
    }
  }
  send_.resize(static_cast<std::size_t>(workload_.bytes));
  expected_.resize(static_cast<std::size_t>(workload_.bytes));
  std::memcpy(send_.data(), mine.data(), send_.size());
  std::memcpy(expected_.data(), sum.data(), expected_.size());
}

std::size_t Collective::recv_bytes() const {
  return workload_.family == Family::kAlltoall
             ? static_cast<std::size_t>(kRanks * workload_.bytes)
             : static_cast<std::size_t>(workload_.bytes);
}

int Collective::run(mps::Communicator& comm, std::span<std::byte> recv,
                    int round) const {
  if (workload_.family == Family::kAlltoall) {
    coll::AlltoallOptions options = alltoall_options();
    options.start_round = round;
    return coll::alltoall(comm, send_, recv, workload_.bytes, options);
  }
  coll::AllreduceOptions options;
  options.start_round = round;
  return coll::allreduce(comm, send_, recv, sum_f64(), options);
}

TracedCall Collective::run_traced(mps::Communicator& comm,
                                  std::span<std::byte> recv, int round,
                                  std::int32_t call,
                                  std::vector<Span>& spans) const {
  const auto open = [&](Layer layer, std::int32_t parent) {
    spans.push_back(Span{call, parent, layer, now_ns(), 0});
    return static_cast<std::int32_t>(spans.size() - 1);
  };
  const auto close = [&](std::int32_t span) { spans[span].end_ns = now_ns(); };

  TracedCall out;
  const std::int32_t root = open(Layer::kCall, -1);
  if (workload_.family == Family::kAlltoall) {
    std::int32_t s = open(Layer::kResolve, root);
    const IndexRecipe recipe = resolve_index(workload_.bytes);
    close(s);
    s = open(Layer::kLookup, root);
    const coll::PlanCache::Lookup lookup =
        coll::PlanCache::global().get_or_lower(recipe.key);
    close(s);
    s = open(Layer::kExecutor, root);
    const coll::PlanExecution ex = lookup.plan->run_pipelined(
        comm, send_, recv, workload_.bytes, round);
    close(s);
    close(root);
    out.next_round = ex.next_round;
    out.lookups = 1;
    out.lookup_hits = lookup.cache_hit ? 1 : 0;
    return out;
  }

  const coll::ReduceOp op = sum_f64();
  const std::int64_t b = allreduce_block_bytes(workload_.bytes);
  std::int32_t s = open(Layer::kResolve, root);
  const ReduceRecipe recipe = resolve_reduce(b, op);
  close(s);
  s = open(Layer::kLookup, root);
  const coll::PlanCache::Lookup rs =
      coll::PlanCache::global().get_or_lower(recipe.rs_key);
  const coll::PlanCache::Lookup ag =
      coll::PlanCache::global().get_or_lower(recipe.ag_key);
  close(s);
  // coll::allreduce's staging: zero-padded copy in, reduced block, gathered
  // result (allocated per call, as the facade does).
  s = open(Layer::kStageIn, root);
  std::vector<std::byte> padded(static_cast<std::size_t>(kRanks * b),
                                std::byte{0});
  std::memcpy(padded.data(), send_.data(), send_.size());
  std::vector<std::byte> reduced(static_cast<std::size_t>(b));
  std::vector<std::byte> gathered(static_cast<std::size_t>(kRanks * b));
  close(s);
  s = open(Layer::kExecutor, root);
  const coll::PlanExecution rs_ex =
      rs.plan->run_pipelined(comm, padded, reduced, b, op, round);
  close(s);
  s = open(Layer::kExecutor, root);
  const coll::PlanExecution ag_ex =
      ag.plan->run_pipelined(comm, reduced, gathered, b, rs_ex.next_round);
  close(s);
  s = open(Layer::kStageOut, root);
  std::memcpy(recv.data(), gathered.data(), recv.size());
  close(s);
  close(root);
  out.next_round = ag_ex.next_round;
  out.lookups = 2;
  out.lookup_hits = (rs.cache_hit ? 1 : 0) + (ag.cache_hit ? 1 : 0);
  out.bytes_reduced = rs_ex.bytes_reduced + ag_ex.bytes_reduced;
  return out;
}

std::string Collective::check(std::span<const std::byte> recv) const {
  if (recv.size() != recv_bytes()) return "receive buffer has the wrong size";
  if (workload_.family == Family::kAlltoall) {
    return coll::check_index_recv(recv, kRanks, rank_, workload_.bytes, seed_);
  }
  for (std::size_t i = 0; i < recv.size(); ++i) {
    if (recv[i] != expected_[i]) {
      return "allreduce result differs from the exact sum at byte " +
             std::to_string(i);
    }
  }
  return {};
}

std::vector<Stage> Collective::stages() const {
  const auto label = [](const coll::Plan& plan) {
    return plan.algorithm() + " segments=" + std::to_string(plan.segments());
  };
  std::vector<Stage> out;
  if (workload_.family == Family::kAlltoall) {
    const IndexRecipe recipe = resolve_index(workload_.bytes);
    Stage st;
    st.plan = coll::PlanCache::global().get_or_lower(recipe.key).plan;
    st.block_bytes = workload_.bytes;
    st.closed_form = model::index_bruck_cost(kRanks, recipe.plan.radix, kPorts,
                                             workload_.bytes);
    st.radix = recipe.plan.radix;
    st.label = label(*st.plan);
    out.push_back(st);
    return out;
  }
  const coll::ReduceOp op = sum_f64();
  const std::int64_t b = allreduce_block_bytes(workload_.bytes);
  const ReduceRecipe recipe = resolve_reduce(b, op);
  Stage rs;
  rs.plan = coll::PlanCache::global().get_or_lower(recipe.rs_key).plan;
  rs.block_bytes = b;
  rs.reduce = true;
  rs.closed_form =
      recipe.choice.algorithm == coll::ReduceAlgorithm::kBruck
          ? model::reduce_bruck_cost(kRanks, recipe.choice.radix, kPorts, b)
          : model::reduce_direct_cost(kRanks, kPorts, b);
  rs.radix = recipe.choice.radix;
  rs.label = label(*rs.plan);
  Stage ag;
  ag.plan = coll::PlanCache::global().get_or_lower(recipe.ag_key).plan;
  ag.block_bytes = b;
  ag.closed_form = model::concat_bruck_cost(kRanks, kPorts, b, recipe.strategy);
  ag.label = label(*ag.plan);
  out.push_back(rs);
  out.push_back(ag);
  return out;
}

double Collective::predicted_us(const model::LinearModel& machine) const {
  double us = 0.0;
  for (const Stage& st : stages()) {
    us += st.reduce ? machine.predict_reduce_us(st.closed_form)
                    : machine.predict_us(st.closed_form);
  }
  return us;
}

}  // namespace perfbench
