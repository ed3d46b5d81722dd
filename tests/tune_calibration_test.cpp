// The online calibration subsystem (tune::): the micro-exchange ladder
// measures each fabric's real β/τ/γ, every rank ends up with bit-identical
// constants, and the persisted tune table round-trips *bitwise* (including
// a rejected corrupt or mis-versioned file falling back cleanly).
#include "tune/calibrate.hpp"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "model/linear_model.hpp"
#include "model/tuner.hpp"
#include "mps/bootstrap.hpp"
#include "tune/table.hpp"

#include <unistd.h>

namespace bruck {
namespace {

/// Run the ladder on `backend` and ship every rank's measured constants
/// back through the spawn payload: [measured flag byte | β | τ | γ].
std::vector<std::vector<std::byte>> calibrate_payloads(
    mps::FabricBackend backend, std::int64_t n, int k) {
  mps::SpawnOptions so;
  so.n = n;
  so.k = k;
  so.backend = backend;
  so.record_trace = false;
  so.tune = tune::TuneMode::kOff;  // the body drives calibration itself
  const std::string fabric = mps::to_string(backend);
  const mps::SpawnResult run = mps::spawn_local(
      so, [&fabric](mps::Communicator& comm) -> std::vector<std::byte> {
        const tune::Calibration cal = tune::calibrate(comm, fabric);
        std::vector<std::byte> payload(1 + 3 * sizeof(double));
        payload[0] = cal.measured ? std::byte{1} : std::byte{0};
        const double vals[3] = {cal.machine.beta_us,
                                cal.machine.tau_us_per_byte,
                                cal.machine.gamma_us_per_byte};
        std::memcpy(payload.data() + 1, vals, sizeof(vals));
        return payload;
      });
  return run.rank_payloads;
}

/// Rank 0's constants, or nullopt when calibration was skipped.
std::optional<model::LinearModel> measured_model(
    const std::vector<std::vector<std::byte>>& payloads,
    const std::string& name) {
  const std::vector<std::byte>& p0 = payloads.at(0);
  if (p0.size() != 1 + 3 * sizeof(double) || p0[0] != std::byte{1}) {
    return std::nullopt;
  }
  double vals[3] = {};
  std::memcpy(vals, p0.data() + 1, sizeof(vals));
  model::LinearModel m;
  m.name = name;
  m.beta_us = vals[0];
  m.tau_us_per_byte = vals[1];
  m.gamma_us_per_byte = vals[2];
  return m;
}

TEST(Calibration, ThreadFabricMeasuresPositiveConstants) {
  const auto payloads = calibrate_payloads(mps::FabricBackend::kThread, 8, 1);
  const auto m = measured_model(payloads, "thread");
  ASSERT_TRUE(m.has_value());
  EXPECT_GT(m->beta_us, 0.0);
  EXPECT_GT(m->tau_us_per_byte, 0.0);
  EXPECT_GT(m->gamma_us_per_byte, 0.0);
  // Sanity ceiling: a loopback thread fabric's per-message startup is not
  // measured in seconds.
  EXPECT_LT(m->beta_us, 1e6);
}

TEST(Calibration, EveryRankHoldsBitIdenticalConstants) {
  // Rank 0 fits the model and broadcasts the three doubles over a binomial
  // tree: divergent constants would give divergent tuner keys and picks,
  // so the payloads must match *bitwise* across ranks.
  const auto payloads = calibrate_payloads(mps::FabricBackend::kThread, 8, 2);
  ASSERT_EQ(payloads.size(), 8u);
  for (std::size_t r = 1; r < payloads.size(); ++r) {
    EXPECT_EQ(payloads[r], payloads[0]) << "rank " << r;
  }
}

TEST(Calibration, SingleRankSkipsCleanly) {
  const auto payloads = calibrate_payloads(mps::FabricBackend::kThread, 1, 1);
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_FALSE(measured_model(payloads, "solo").has_value());
}

TEST(Calibration, SocketBetaExceedsSharedMemoryFabrics) {
  // The cross-fabric ordering the subsystem exists to detect: the TCP
  // loopback fabric pays per-message syscall + copy costs, so its measured
  // per-message startup must exceed both same-host fabrics'.  Wall-clock
  // measurement on a shared CI host is noisy; take the best of three
  // attempts before declaring the ordering broken.
  bool ordered = false;
  double thread_beta = 0.0, shm_beta = 0.0, socket_beta = 0.0;
  for (int attempt = 0; attempt < 3 && !ordered; ++attempt) {
    const auto thread_m = measured_model(
        calibrate_payloads(mps::FabricBackend::kThread, 4, 1), "thread");
    const auto shm_m = measured_model(
        calibrate_payloads(mps::FabricBackend::kShm, 4, 1), "shm");
    const auto socket_m = measured_model(
        calibrate_payloads(mps::FabricBackend::kSocket, 4, 1), "socket");
    ASSERT_TRUE(thread_m && shm_m && socket_m);
    thread_beta = thread_m->beta_us;
    shm_beta = shm_m->beta_us;
    socket_beta = socket_m->beta_us;
    ordered = socket_beta > shm_beta && socket_beta > thread_beta;
  }
  EXPECT_TRUE(ordered) << "beta us: thread=" << thread_beta
                       << " shm=" << shm_beta << " socket=" << socket_beta;
  // shm vs thread is host-dependent (rings vs inboxes); report, don't
  // assert.
  std::printf("measured beta us: thread=%g shm=%g socket=%g\n", thread_beta,
              shm_beta, socket_beta);
}

// ---------------------------------------------------------------------------
// The persisted table: bitwise round-trips and strict whole-table rejection.

/// A table whose doubles have no short decimal form — the round-trip must
/// preserve the exact bit patterns, not a printf approximation.
tune::TuneTable adversarial_table() {
  tune::TuneTable table;
  model::LinearModel shm;
  shm.name = "shm";
  shm.beta_us = 0.1 + 0.2;          // 0.30000000000000004
  shm.tau_us_per_byte = 1.0 / 3.0;  // no finite decimal
  shm.gamma_us_per_byte = 5e-324;   // smallest denormal
  table.models["shm"] = shm;
  tune::LearnedEntry e;
  e.query = model::make_tuner_query(model::TunedFamily::kIndexRadix, 64, 2,
                                    4096, shm);
  e.config.radix = 8;
  e.config.segments = 4;
  e.observations = 12;
  e.mean_wall_us = 3.14159265358979312;
  table.learned.push_back(e);
  return table;
}

TEST(TuneTable, SerializeParseRoundTripsBitwise) {
  const tune::TuneTable table = adversarial_table();
  const std::string text = serialize_tune_table(table);
  const auto parsed = tune::parse_tune_table(text);
  ASSERT_TRUE(parsed.has_value());
  // Byte-identical re-serialization is the bitwise guarantee: every double
  // travels as the 16-hex-digit bit pattern.
  EXPECT_EQ(serialize_tune_table(*parsed), text);
  ASSERT_EQ(parsed->learned.size(), 1u);
  EXPECT_EQ(parsed->learned[0].query, table.learned[0].query);
  EXPECT_TRUE(parsed->learned[0].config == table.learned[0].config);
  EXPECT_EQ(model::model_bits(parsed->models.at("shm").gamma_us_per_byte),
            model::model_bits(5e-324));
}

TEST(TuneTable, SaveLoadFileRoundTripsBitwise) {
  const std::string path = "/tmp/bruck_tune_roundtrip_" +
                           std::to_string(::getpid()) + ".table";
  const tune::TuneTable table = adversarial_table();
  ASSERT_TRUE(tune::save_tune_table(table, path));
  const auto loaded = tune::load_tune_table(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(serialize_tune_table(*loaded), serialize_tune_table(table));
  std::remove(path.c_str());
}

TEST(TuneTable, MissingFileIsCleanNullopt) {
  EXPECT_FALSE(tune::load_tune_table("/tmp/bruck_tune_nonexistent_" +
                                     std::to_string(::getpid()))
                   .has_value());
}

TEST(TuneTable, CorruptOrMisversionedTableRejectsWhole) {
  const std::string good = serialize_tune_table(adversarial_table());
  // Version bump: the whole table is rejected, never partially applied.
  std::string bumped = good;
  bumped.replace(bumped.find("v1"), 2, "v2");
  EXPECT_FALSE(tune::parse_tune_table(bumped).has_value());
  // Unknown record kind.
  EXPECT_FALSE(tune::parse_tune_table(good + "mystery 1 2 3\n").has_value());
  // Truncated learned line.
  EXPECT_FALSE(
      tune::parse_tune_table("bruck-tune-table v1\nlearned index-radix 8\n")
          .has_value());
  // Garbage where a hex bit pattern belongs.
  EXPECT_FALSE(tune::parse_tune_table(
                   "bruck-tune-table v1\nmodel shm zz zz zz\n")
                   .has_value());
  // Empty text is not a table (the header line is required).
  EXPECT_FALSE(tune::parse_tune_table("").has_value());

  // A corrupt *file* is a clean nullopt too (plus a one-line warning).
  const std::string path = "/tmp/bruck_tune_corrupt_" +
                           std::to_string(::getpid()) + ".table";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_TRUE(f != nullptr);
    std::fputs("not a tune table at all\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(tune::load_tune_table(path).has_value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bruck
