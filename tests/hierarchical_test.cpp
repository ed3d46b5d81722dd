// Hierarchical (two-level leader-model) collectives: randomized shape
// sweeps of the composite lowerings against the flat reference oracle
// (payload compared bitwise), executor trace agreement, degenerate
// partitions (singleton groups, one whole-fabric group, non-dividing group
// sizes, the n = 1 fabric), the tuner's flat-vs-hierarchical pick at both
// extremes of the intra/inter cost ratio, and the BRUCK_HIER /
// BRUCK_HIER_GROUP_SIZE knobs end-to-end through the plain facade.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "coll/api.hpp"
#include "coll/composite.hpp"
#include "coll/verify.hpp"
#include "model/tuner.hpp"
#include "mps/runtime.hpp"
#include "util/rng.hpp"

namespace bruck {
namespace {

using coll::AllgatherOptions;
using coll::AlltoallOptions;
using coll::ExecutionPath;
using coll::HierMode;
using coll::ReduceElem;
using coll::ReduceOp;
using coll::ReduceScatterOptions;

struct HierCase {
  std::int64_t n = 2;
  std::int64_t g = 1;  ///< forced nominal group size
  int k = 1;
  std::int64_t b = 1;  ///< block bytes (reduce tests scale by elem size)
};

std::string label(const HierCase& c) {
  return "n=" + std::to_string(c.n) + " g=" + std::to_string(c.g) +
         " k=" + std::to_string(c.k) + " b=" + std::to_string(c.b);
}

/// Hand-picked degenerates — g = 1 (every rank its own leader), g = n (one
/// group, trivial inter stage), non-dividing group sizes with a smaller
/// last group, the n = 1 fabric — plus a fixed-seed random sweep n ≤ 32.
std::vector<HierCase> sweep_cases() {
  std::vector<HierCase> cases = {
      {1, 1, 1, 4},   {2, 1, 1, 3},  {2, 2, 1, 5},   {4, 2, 2, 8},
      {5, 2, 1, 3},   {6, 4, 2, 7},  {7, 3, 1, 2},   {8, 4, 2, 16},
      {9, 3, 2, 1},   {12, 5, 3, 6}, {16, 4, 2, 4},  {16, 16, 1, 3},
      {32, 8, 2, 2},
  };
  SplitMix64 rng(0x41E12A11);
  for (int trial = 0; trial < 10; ++trial) {
    HierCase c;
    c.n = 2 + static_cast<std::int64_t>(rng.next_below(31));
    c.g = 1 + static_cast<std::int64_t>(
                  rng.next_below(static_cast<std::uint64_t>(c.n)));
    c.k = 1 + static_cast<int>(rng.next_below(3));
    c.b = 1 + static_cast<std::int64_t>(rng.next_below(12));
    cases.push_back(c);
  }
  return cases;
}

AlltoallOptions hier_alltoall(std::int64_t g, ExecutionPath path, int start) {
  AlltoallOptions o;
  o.hier = HierMode::kOn;
  o.hier_group = g;
  o.path = path;
  o.start_round = start;
  return o;
}

AllgatherOptions hier_allgather(std::int64_t g, ExecutionPath path,
                                int start) {
  AllgatherOptions o;
  o.hier = HierMode::kOn;
  o.hier_group = g;
  o.path = path;
  o.start_round = start;
  return o;
}

ReduceScatterOptions hier_reduce_scatter(std::int64_t g, ExecutionPath path,
                                         int start) {
  ReduceScatterOptions o;
  o.hier = HierMode::kOn;
  o.hier_group = g;
  o.path = path;
  o.start_round = start;
  return o;
}

// ---------------------------------------------------------------------------
// Payload sweeps: hierarchical execution must be bitwise-identical to the
// flat reference oracle on every shape.

TEST(Hierarchical, AlltoallMatchesFlatOracleBitwise) {
  for (const HierCase& c : sweep_cases()) {
    SCOPED_TRACE(label(c));
    const std::uint64_t seed = 0xA110A11u ^ static_cast<std::uint64_t>(
                                                c.n * 1000 + c.g * 10 + c.b);
    std::vector<std::string> errors(static_cast<std::size_t>(c.n));
    mps::run_spmd(c.n, c.k, [&](mps::Communicator& comm) {
      const std::int64_t rank = comm.rank();
      auto& err = errors[static_cast<std::size_t>(rank)];
      const std::size_t bytes = static_cast<std::size_t>(c.n * c.b);
      std::vector<std::byte> send(bytes);
      std::vector<std::byte> want(bytes, std::byte{0xEE});
      std::vector<std::byte> got_p(bytes, std::byte{0xEE});
      coll::fill_index_send(send, c.n, rank, c.b, seed);

      AlltoallOptions ref;
      ref.path = ExecutionPath::kReference;
      ref.hier = HierMode::kOff;
      const int round = coll::alltoall(comm, send, want, c.b, ref);
      coll::alltoall(comm, send, got_p, c.b,
                     hier_alltoall(c.g, ExecutionPath::kPipelined, round));

      err = coll::check_index_recv(want, c.n, rank, c.b, seed);
      if (err.empty() && got_p != want) {
        err = "pipelined hierarchical payload diverges from the flat oracle";
      }
    });
    for (const std::string& e : errors) ASSERT_EQ(e, "");
  }
}

TEST(Hierarchical, AllgatherMatchesFlatOracleBitwise) {
  for (const HierCase& c : sweep_cases()) {
    SCOPED_TRACE(label(c));
    const std::uint64_t seed = 0xC0CA7u ^ static_cast<std::uint64_t>(
                                              c.n * 1000 + c.g * 10 + c.b);
    std::vector<std::string> errors(static_cast<std::size_t>(c.n));
    mps::run_spmd(c.n, c.k, [&](mps::Communicator& comm) {
      const std::int64_t rank = comm.rank();
      auto& err = errors[static_cast<std::size_t>(rank)];
      std::vector<std::byte> send(static_cast<std::size_t>(c.b));
      const std::size_t bytes = static_cast<std::size_t>(c.n * c.b);
      std::vector<std::byte> want(bytes, std::byte{0xEE});
      std::vector<std::byte> got_p(bytes, std::byte{0xEE});
      coll::fill_concat_send(send, rank, c.b, seed);

      AllgatherOptions ref;
      ref.path = ExecutionPath::kReference;
      ref.hier = HierMode::kOff;
      const int round = coll::allgather(comm, send, want, c.b, ref);
      coll::allgather(comm, send, got_p, c.b,
                      hier_allgather(c.g, ExecutionPath::kPipelined, round));

      err = coll::check_concat_recv(want, c.n, c.b, seed);
      if (err.empty() && got_p != want) {
        err = "pipelined hierarchical payload diverges from the flat oracle";
      }
    });
    for (const std::string& e : errors) ASSERT_EQ(e, "");
  }
}

/// Deterministic i32 contribution of (src, element): small integers, so
/// every combine order sums exactly and results compare bitwise.
std::int32_t reduce_value(std::int64_t src, std::int64_t idx) {
  SplitMix64 rng(0x5EEDull + static_cast<std::uint64_t>(src) * 0x9E3779B9ull +
                 static_cast<std::uint64_t>(idx));
  return static_cast<std::int32_t>(static_cast<std::int64_t>(
                                       rng.next() % 1001) - 500);
}

TEST(Hierarchical, ReduceScatterMatchesFlatOracleBitwise) {
  for (const HierCase& c : sweep_cases()) {
    SCOPED_TRACE(label(c));
    const std::int64_t elems = c.b;  // i32 elements per block
    const std::int64_t b = elems * 4;
    const ReduceOp op = ReduceOp::sum(ReduceElem::kI32);
    std::vector<std::string> errors(static_cast<std::size_t>(c.n));
    mps::run_spmd(c.n, c.k, [&](mps::Communicator& comm) {
      const std::int64_t rank = comm.rank();
      auto& err = errors[static_cast<std::size_t>(rank)];
      std::vector<std::byte> send(static_cast<std::size_t>(c.n * b));
      for (std::int64_t i = 0; i < c.n * elems; ++i) {
        const std::int32_t v = reduce_value(rank, i);
        std::memcpy(send.data() + i * 4, &v, 4);
      }
      // Independent rank-order expectation for this rank's block.
      std::vector<std::byte> want(static_cast<std::size_t>(b));
      for (std::int64_t e = 0; e < elems; ++e) {
        std::int32_t acc = 0;
        for (std::int64_t src = 0; src < c.n; ++src) {
          acc += reduce_value(src, rank * elems + e);
        }
        std::memcpy(want.data() + e * 4, &acc, 4);
      }

      std::vector<std::byte> got_f(static_cast<std::size_t>(b),
                                   std::byte{0xEE});
      std::vector<std::byte> got_p(static_cast<std::size_t>(b),
                                   std::byte{0xEE});
      ReduceScatterOptions ref;
      ref.path = ExecutionPath::kReference;
      ref.hier = HierMode::kOff;
      const int round = coll::reduce_scatter(comm, send, got_f, b, op, ref);
      coll::reduce_scatter(
          comm, send, got_p, b, op,
          hier_reduce_scatter(c.g, ExecutionPath::kPipelined, round));

      if (got_f != want) err = "flat oracle diverges from expectation";
      if (err.empty() && got_p != want) {
        err = "pipelined hierarchical payload diverges from the flat oracle";
      }
    });
    for (const std::string& e : errors) ASSERT_EQ(e, "");
  }
}

// ---------------------------------------------------------------------------
// Trace accounting: the stage PlanEvents of a hierarchical chain must
// account for exactly the bytes its wire trace carries, and the facade's
// returned round count must equal the composites' uniform round_count().

mps::RunResult run_hier_chain(const HierCase& c, ExecutionPath path,
                              std::vector<int>* rounds_out) {
  const std::uint64_t seed = 0x7AACEull + static_cast<std::uint64_t>(c.n);
  return mps::run_spmd(c.n, c.k, [&](mps::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    std::vector<std::byte> isend(static_cast<std::size_t>(c.n * c.b));
    std::vector<std::byte> irecv(isend.size(), std::byte{0xEE});
    coll::fill_index_send(isend, c.n, rank, c.b, seed);
    int round = coll::alltoall(comm, isend, irecv, c.b,
                               hier_alltoall(c.g, path, 0));

    std::vector<std::byte> csend(static_cast<std::size_t>(c.b));
    std::vector<std::byte> crecv(static_cast<std::size_t>(c.n * c.b),
                                 std::byte{0xEE});
    coll::fill_concat_send(csend, rank, c.b, seed + 1);
    round = coll::allgather(comm, csend, crecv, c.b,
                            hier_allgather(c.g, path, round));

    const std::int64_t rb = 8;
    const ReduceOp op = ReduceOp::sum(ReduceElem::kI64);
    std::vector<std::byte> rsend(static_cast<std::size_t>(c.n * rb));
    for (std::int64_t j = 0; j < c.n; ++j) {
      const std::int64_t v = rank * 100 + j;
      std::memcpy(rsend.data() + j * rb, &v, 8);
    }
    std::vector<std::byte> rrecv(static_cast<std::size_t>(rb),
                                 std::byte{0xEE});
    round = coll::reduce_scatter(comm, rsend, rrecv, rb, op,
                                 hier_reduce_scatter(c.g, path, round));
    if (rounds_out != nullptr) {
      (*rounds_out)[static_cast<std::size_t>(rank)] = round;
    }
  });
}

TEST(Hierarchical, WireTraceMatchesPlanEventsAndRoundCount) {
  const HierCase cases[] = {
      {4, 2, 2, 8}, {6, 4, 2, 5}, {9, 3, 1, 3}, {8, 8, 2, 4}, {7, 1, 2, 6},
  };
  for (const HierCase& c : cases) {
    SCOPED_TRACE(label(c));
    std::vector<int> rounds_p(static_cast<std::size_t>(c.n), -2);
    const mps::RunResult rp =
        run_hier_chain(c, ExecutionPath::kPipelined, &rounds_p);
    ASSERT_EQ(rp.trace->metrics().total_bytes,
              rp.trace->plan_stats().bytes_sent);
    // Every rank returns the same fabric-wide next round: the sum of the
    // three composites' uniform round counts, lowered for the same shapes
    // the facade resolves (the tuner names the inter radix even when the
    // group size is forced).
    const model::TwoLevelModel machine =
        model::uniform_two_level(model::ibm_sp1());
    const model::HierChoice pi = model::pick_index_plan(
        c.n, c.k, c.b, machine, model::RadixSet::kAll, c.g);
    const model::HierChoice pc = model::pick_concat_plan(
        c.n, c.k, c.b, machine, model::ConcatLastRound::kAuto, c.g);
    const model::HierChoice pr = model::pick_reduce_plan(
        c.n, c.k, 8, machine, model::RadixSet::kAll, c.g);
    coll::HierShape si;
    si.group = pi.group;
    si.inter_radix = pi.inter_radix;
    coll::HierShape sc;
    sc.group = pc.group;
    sc.inter_radix = pc.inter_radix;
    coll::HierShape sr;
    sr.group = pr.group;
    sr.inter_radix = pr.inter_radix;
    const int want_rounds =
        coll::CompositePlan::lower_index_hier(c.n, c.k, 0, c.b, si)
            .round_count() +
        coll::CompositePlan::lower_concat_hier(c.n, c.k, 0, c.b, sc)
            .round_count() +
        coll::CompositePlan::lower_reduce_hier(
            c.n, c.k, 0, 8, ReduceOp::sum(ReduceElem::kI64), sr)
            .round_count();
    for (const int r : rounds_p) ASSERT_EQ(r, want_rounds);
  }
}

TEST(Hierarchical, ReferencePathIgnoresTheHierKnob) {
  // kReference is the oracle; the hier knob must never reroute it.
  const HierCase c{6, 2, 2, 4};
  const auto run_ref = [&](HierMode hier) {
    return mps::run_spmd(c.n, c.k, [&](mps::Communicator& comm) {
      std::vector<std::byte> send(static_cast<std::size_t>(c.n * c.b));
      std::vector<std::byte> recv(send.size(), std::byte{0xEE});
      coll::fill_index_send(send, c.n, comm.rank(), c.b, 99);
      AlltoallOptions o;
      o.path = ExecutionPath::kReference;
      o.hier = hier;
      o.hier_group = c.g;
      coll::alltoall(comm, send, recv, c.b, o);
    });
  };
  const mps::RunResult plain = run_ref(HierMode::kOff);
  const mps::RunResult forced = run_ref(HierMode::kOn);
  ASSERT_TRUE(plain.trace->to_schedule() == forced.trace->to_schedule());
}

// ---------------------------------------------------------------------------
// Tuner extremes: on a machine whose inter-group links are orders of
// magnitude slower than intra-group (shm vs socket), the leader model wins;
// on a uniform machine the extra gather/scatter stages can only lose.

TEST(Hierarchical, TunerPicksHierOnSkewedMachines) {
  const model::TwoLevelModel skewed = model::shm_socket_two_level();
  const std::int64_t n = 16;
  const int k = 1;
  const std::int64_t b = 8;

  const model::HierChoice ci = model::pick_index_plan(n, k, b, skewed);
  EXPECT_TRUE(ci.hier);
  EXPECT_GE(ci.group, 2);
  EXPECT_LE(ci.group, n);
  EXPECT_LT(ci.hier_us, ci.flat_us);
  EXPECT_DOUBLE_EQ(ci.hier_us, model::predict_hier_us(skewed, ci.hier_cost));

  const model::HierChoice cc = model::pick_concat_plan(n, k, b, skewed);
  EXPECT_TRUE(cc.hier);
  EXPECT_LT(cc.hier_us, cc.flat_us);
  EXPECT_DOUBLE_EQ(cc.hier_us, model::predict_hier_us(skewed, cc.hier_cost));

  const model::HierChoice cr = model::pick_reduce_plan(n, k, b, skewed);
  EXPECT_TRUE(cr.hier);
  EXPECT_LT(cr.hier_us, cr.flat_us);
  EXPECT_DOUBLE_EQ(cr.hier_us,
                   model::predict_hier_reduce_us(skewed, cr.hier_cost));
}

TEST(Hierarchical, TunerPrefersFlatOnUniformMachines) {
  const model::TwoLevelModel uniform =
      model::uniform_two_level(model::ibm_sp1());
  for (const std::int64_t b : {1ll, 64ll, 4096ll}) {
    SCOPED_TRACE("b=" + std::to_string(b));
    const model::HierChoice ci = model::pick_index_plan(16, 2, b, uniform);
    EXPECT_FALSE(ci.hier);
    EXPECT_LE(ci.flat_us, ci.hier_us);
    // The best hierarchical shape is still named, so a forced-on knob can
    // run it.
    EXPECT_GE(ci.group, 2);
    EXPECT_GE(ci.inter_radix, 2);
    EXPECT_FALSE(model::pick_concat_plan(16, 2, b, uniform).hier);
    EXPECT_FALSE(model::pick_reduce_plan(16, 2, b, uniform).hier);
  }
}

TEST(Hierarchical, CachedPicksMatchUncached) {
  const model::TwoLevelModel machines[] = {
      model::shm_socket_two_level(),
      model::uniform_two_level(model::ibm_sp1())};
  for (const auto& m : machines) {
    for (const std::int64_t g : {0ll, 3ll}) {
      const model::HierChoice a = model::pick_index_plan(12, 2, 16, m,
                                                         model::RadixSet::kAll,
                                                         g);
      const model::HierChoice b = model::pick_index_plan_cached(
          12, 2, 16, m, model::RadixSet::kAll, g);
      EXPECT_EQ(a.hier, b.hier);
      EXPECT_EQ(a.group, b.group);
      EXPECT_EQ(a.inter_radix, b.inter_radix);
      EXPECT_EQ(a.flat_radix, b.flat_radix);
      EXPECT_DOUBLE_EQ(a.flat_us, b.flat_us);
      EXPECT_DOUBLE_EQ(a.hier_us, b.hier_us);
    }
  }
}

TEST(Hierarchical, AutoModeFollowsTheTunerAtBothExtremes) {
  // kAuto under a uniform machine must execute the identical flat wire
  // trace as kOff; under the skewed machine it must go hierarchical (the
  // same trace a forced kOn run produces).
  const HierCase c{8, 0, 2, 4};
  const auto run_auto = [&](HierMode hier, const model::TwoLevelModel& m) {
    return mps::run_spmd(c.n, c.k, [&](mps::Communicator& comm) {
      std::vector<std::byte> send(static_cast<std::size_t>(c.n * c.b));
      std::vector<std::byte> recv(send.size(), std::byte{0xEE});
      coll::fill_index_send(send, c.n, comm.rank(), c.b, 7);
      AlltoallOptions o;
      o.hier = hier;
      o.hier_machine = m;
      coll::alltoall(comm, send, recv, c.b, o);
    });
  };
  const model::TwoLevelModel uniform =
      model::uniform_two_level(model::ibm_sp1());
  const model::TwoLevelModel skewed = model::shm_socket_two_level();

  const mps::RunResult auto_uniform = run_auto(HierMode::kAuto, uniform);
  const mps::RunResult off_uniform = run_auto(HierMode::kOff, uniform);
  ASSERT_TRUE(auto_uniform.trace->to_schedule() ==
              off_uniform.trace->to_schedule());

  const mps::RunResult auto_skewed = run_auto(HierMode::kAuto, skewed);
  const mps::RunResult on_skewed = run_auto(HierMode::kOn, skewed);
  ASSERT_TRUE(auto_skewed.trace->to_schedule() ==
              on_skewed.trace->to_schedule());
  // And the two extremes genuinely differ.
  ASSERT_FALSE(auto_skewed.trace->to_schedule() ==
               auto_uniform.trace->to_schedule());
}

// ---------------------------------------------------------------------------
// Env knobs end-to-end: BRUCK_HIER=on with BRUCK_HIER_GROUP_SIZE must make
// the plain facade execute the same wire trace as the option-forced run.

TEST(Hierarchical, EnvKnobsDriveThePlainFacade) {
  const char* prior_mode_raw = std::getenv("BRUCK_HIER");
  const std::string prior_mode = prior_mode_raw ? prior_mode_raw : "";
  const char* prior_group_raw = std::getenv("BRUCK_HIER_GROUP_SIZE");
  const std::string prior_group = prior_group_raw ? prior_group_raw : "";

  const HierCase c{6, 2, 2, 4};
  const auto run_plain = [&] {
    return mps::run_spmd(c.n, c.k, [&](mps::Communicator& comm) {
      std::vector<std::byte> send(static_cast<std::size_t>(c.n * c.b));
      std::vector<std::byte> recv(send.size(), std::byte{0xEE});
      coll::fill_index_send(send, c.n, comm.rank(), c.b, 11);
      AlltoallOptions o;
      coll::alltoall(comm, send, recv, c.b, o);
    });
  };

  ASSERT_EQ(setenv("BRUCK_HIER", "on", 1), 0);
  ASSERT_EQ(setenv("BRUCK_HIER_GROUP_SIZE", "2", 1), 0);
  const mps::RunResult env_run = run_plain();
  ASSERT_EQ(unsetenv("BRUCK_HIER"), 0);
  ASSERT_EQ(unsetenv("BRUCK_HIER_GROUP_SIZE"), 0);
  const mps::RunResult flat_run = run_plain();

  const mps::RunResult forced_run = mps::run_spmd(
      c.n, c.k, [&](mps::Communicator& comm) {
        std::vector<std::byte> send(static_cast<std::size_t>(c.n * c.b));
        std::vector<std::byte> recv(send.size(), std::byte{0xEE});
        coll::fill_index_send(send, c.n, comm.rank(), c.b, 11);
        coll::alltoall(comm, send, recv, c.b,
                       hier_alltoall(c.g, ExecutionPath::kPipelined, 0));
      });

  ASSERT_TRUE(env_run.trace->to_schedule() == forced_run.trace->to_schedule());
  ASSERT_FALSE(env_run.trace->to_schedule() == flat_run.trace->to_schedule());

  if (prior_mode_raw != nullptr) {
    ASSERT_EQ(setenv("BRUCK_HIER", prior_mode.c_str(), 1), 0);
  }
  if (prior_group_raw != nullptr) {
    ASSERT_EQ(setenv("BRUCK_HIER_GROUP_SIZE", prior_group.c_str(), 1), 0);
  }
}

// ---------------------------------------------------------------------------
// Composite anatomy: the stage list a lowering produces and the describe()
// rendering behind `bruckcl_plan compile --hier`.

TEST(Hierarchical, CompositeAnatomyDescribesEveryStage) {
  coll::HierShape shape;
  shape.group = 4;
  shape.inter_radix = 2;
  const coll::CompositePlan cp =
      coll::CompositePlan::lower_index_hier(8, 2, /*rank=*/0, 4, shape);
  ASSERT_EQ(cp.stages().size(), 3u);
  EXPECT_GT(cp.round_count(), 0);
  int stride_sum = 0;
  for (const auto& st : cp.stages()) stride_sum += st.round_stride;
  EXPECT_EQ(stride_sum, cp.round_count());

  const std::string d = cp.describe();
  EXPECT_NE(d.find("stage 0"), std::string::npos) << d;
  EXPECT_NE(d.find("stage 2"), std::string::npos) << d;
  EXPECT_NE(d.find("intra gather"), std::string::npos) << d;
  EXPECT_NE(d.find("inter index"), std::string::npos) << d;
  EXPECT_NE(d.find("intra scatter"), std::string::npos) << d;
}

}  // namespace
}  // namespace bruck
