// Section 3.3/3.5 — radix selection and model calibration:
//   * the tuner's pick vs the exhaustive best radix over a (machine, block
//     size) grid (they must agree — the tuner IS exhaustive over the model,
//     so this is a guard that the model orders radices sensibly),
//   * the extended model T = g1·C1·ts + g2·C2·tc + g3 (Section 3.5) fitted
//     against this machine's wall-clock measurements of the threaded
//     substrate, with R².
//
// With --calibrated the bench instead measures β/τ/γ on the live thread
// fabric (the tune:: micro-exchange ladder), re-runs the Fig 5/6 pick
// sweeps under the *measured* constants, validates the paper's crossover
// shape (small blocks → high radix, large blocks → radix 2; the reduce
// family flips from Bruck to direct), and publishes the series as CSV
// (default bench_tuner_calibrated.csv; override with --csv).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "bench_common.hpp"
#include "model/extended_model.hpp"
#include "model/linear_model.hpp"
#include "model/tuner.hpp"
#include "mps/bootstrap.hpp"
#include "tune/calibrate.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

/// Median-of-3 wall-clock of one executed index run (µs).
double wall_us(std::int64_t n, int k, std::int64_t b, std::int64_t r) {
  bruck::coll::AlltoallOptions index;
  index.algorithm = bruck::coll::IndexAlgorithm::kBruck;
  index.radix = r;
  index.hier = bruck::coll::HierMode::kOff;
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    bruck::mps::FabricOptions options;
    options.n = n;
    options.k = k;
    options.record_trace = false;  // timing run
    const bruck::mps::RunResult rr = bruck::mps::run_spmd(
        options, [&](bruck::mps::Communicator& comm) {
          std::vector<std::byte> send(static_cast<std::size_t>(n * b),
                                      std::byte{1});
          std::vector<std::byte> recv(send.size());
          comm.barrier();
          bruck::coll::alltoall(comm, send, recv, b, index);
        });
    const double us = rr.wall_seconds * 1e6;
    best = rep == 0 ? us : std::min(best, us);
  }
  return best;
}

/// Measure β/τ/γ on the live thread fabric: three tune:: ladders in one
/// launch, per-constant median (one noisy ladder — a τ slope fit collapsed
/// by scheduler jitter — must not derail the sweep below).
bruck::model::LinearModel calibrate_thread_fabric(std::int64_t n, int k) {
  bruck::mps::SpawnOptions so;
  so.n = n;
  so.k = k;
  so.backend = bruck::mps::FabricBackend::kThread;
  so.record_trace = false;
  constexpr int kLadders = 3;
  const bruck::mps::SpawnResult run = bruck::mps::spawn_local(
      so, [](bruck::mps::Communicator& comm) -> std::vector<std::byte> {
        std::vector<std::byte> payload(kLadders * 3 * sizeof(double));
        for (int rep = 0; rep < kLadders; ++rep) {
          const bruck::tune::Calibration cal =
              bruck::tune::calibrate(comm, "thread");
          const double vals[3] = {cal.machine.beta_us,
                                  cal.machine.tau_us_per_byte,
                                  cal.machine.gamma_us_per_byte};
          std::memcpy(payload.data() + rep * sizeof(vals), vals,
                      sizeof(vals));
        }
        return payload;
      });
  double vals[kLadders][3] = {};
  std::memcpy(vals, run.rank_payloads.at(0).data(), sizeof(vals));
  bruck::model::LinearModel m;
  m.name = "thread-measured";
  double* out[3] = {&m.beta_us, &m.tau_us_per_byte, &m.gamma_us_per_byte};
  for (int c = 0; c < 3; ++c) {
    double series[kLadders];
    for (int rep = 0; rep < kLadders; ++rep) series[rep] = vals[rep][c];
    std::sort(series, series + kLadders);
    *out[c] = series[kLadders / 2];
  }
  return m;
}

/// Fig 5/6 pick sweeps under measured constants: the paper's crossover
/// shape must reproduce from the live machine alone.
int run_calibrated(const bruck::bench::BenchArgs& args) {
  namespace model = bruck::model;
  const std::int64_t n = 64;
  const int k = 1;
  const model::LinearModel measured =
      calibrate_thread_fabric(/*ranks=*/8, /*ports=*/1);
  std::cout << "measured thread-fabric constants: beta = " << measured.beta_us
            << " us, tau = " << measured.tau_us_per_byte
            << " us/B, gamma = " << measured.gamma_us_per_byte << " us/B\n\n";

  std::ofstream csv_file;
  csv_file.open(args.csv_path.empty() ? "bench_tuner_calibrated.csv"
                                      : args.csv_path);
  if (!csv_file) {
    std::cerr << "cannot open csv output\n";
    return 2;
  }
  bruck::CsvWriter csv(csv_file, {"family", "block_bytes", "pick",
                                  "predicted_us"});

  // Fig 5: index-radix picks over the block-size sweep.  The shape the
  // paper predicts: startup-dominated small blocks take the minimum-round
  // radix 2, bandwidth-dominated large blocks climb toward the
  // volume-optimal radix ≈ n — with a crossover in between.
  std::cout << "index-radix picks under measured constants (n = " << n
            << ", k = " << k << "):\n";
  bruck::TextTable t({"block bytes", "radix", "modeled us"});
  std::int64_t first_radix = 0;
  std::int64_t last_radix = 0;
  std::int64_t index_crossover = 0;
  // The sweep is purely modeled (no wire traffic), so it can run far past
  // any plausible crossover: with a startup-heavy measured β/τ ratio the
  // flip can sit well beyond the 64 KiB of the compiled-in profiles.
  for (std::int64_t b = 1; b <= (std::int64_t{1} << 24); b *= 4) {
    const model::RadixChoice c = model::pick_index_radix(n, k, b, measured);
    t.add(b, c.radix, c.predicted_us);
    csv.row({"index", std::to_string(b), std::to_string(c.radix),
             std::to_string(c.predicted_us)});
    if (first_radix == 0) first_radix = c.radix;
    if (index_crossover == 0 && c.radix > first_radix) index_crossover = b;
    last_radix = c.radix;
  }
  t.print(std::cout);

  // Fig 6: the reduce family's direct-vs-Bruck flip under the γ-extended
  // measured model.
  std::cout << "\nreduce-scatter picks under measured constants:\n";
  bruck::TextTable rt({"block bytes", "pick", "modeled us"});
  bool saw_bruck = false;
  std::int64_t reduce_crossover = 0;
  for (std::int64_t b = 8; b <= (std::int64_t{1} << 24); b *= 4) {
    const model::ReduceScatterChoice c =
        model::pick_reduce_scatter_cached(n, k, b, measured);
    const std::string pick =
        c.direct ? "direct" : "bruck r=" + std::to_string(c.radix);
    rt.add(b, pick, c.predicted_us);
    csv.row({"reduce", std::to_string(b), pick,
             std::to_string(c.predicted_us)});
    if (!c.direct) saw_bruck = true;
    if (saw_bruck && c.direct && reduce_crossover == 0) reduce_crossover = b;
  }
  rt.print(std::cout);

  // The crossover validation CI greps for: measured constants alone must
  // reproduce the paper's qualitative shape.
  std::cout << "\ncrossover index " << index_crossover << "\n"
            << "crossover shape "
            << (last_radix > first_radix && index_crossover > 0 ? "ok"
                                                                : "DEGENERATE")
            << " (radix " << first_radix << " at b=1 -> " << last_radix
            << " at b=16Mi)\n";
  if (reduce_crossover > 0) {
    std::cout << "crossover reduce " << reduce_crossover << "\n";
  }
  if (!(last_radix > first_radix && index_crossover > 0)) {
    std::cerr << "error: measured constants did not reproduce the Fig 5 "
                 "radix crossover\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // --calibrated switches to the measured-constants sweep; the remaining
  // flags are the standard bench set.
  bool calibrated = false;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--calibrated") {
      calibrated = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  const bruck::bench::BenchArgs args = bruck::bench::parse_bench_args(
      static_cast<int>(rest.size()), rest.data());
  if (calibrated) return run_calibrated(args);

  std::cout << "tuner choice vs exhaustive best radix (n = 64, k = 1)\n\n";
  bruck::TextTable t({"machine", "block bytes", "tuned r", "modeled us",
                      "worst r", "worst us", "speedup"});
  for (const bruck::model::LinearModel& machine :
       {bruck::model::ibm_sp1(), bruck::model::startup_dominated(),
        bruck::model::bandwidth_dominated()}) {
    for (const std::int64_t b : {1, 64, 1024}) {
      const auto curve = bruck::model::index_radix_curve(64, 1, b, machine);
      const bruck::model::RadixChoice best =
          bruck::model::pick_index_radix(64, 1, b, machine);
      double worst_us = best.predicted_us;
      std::int64_t worst_r = best.radix;
      for (const auto& c : curve) {
        if (c.predicted_us > worst_us) {
          worst_us = c.predicted_us;
          worst_r = c.radix;
        }
      }
      t.add(machine.name, b, best.radix, best.predicted_us, worst_r, worst_us,
            worst_us / best.predicted_us);
    }
  }
  t.print(std::cout);
  std::cout << "\nthe tuned radix is several times faster than the worst "
               "choice on every profile — the trade-off is worth exposing, "
               "which is the paper's practical thesis.\n\n";

  // -------------------------------------------------------------------
  std::cout << "Section 3.5 extended model fitted to THIS machine's "
               "threaded substrate (n = 8 ranks as OS threads)\n\n";
  // Calibrate ts/tc crudely from two runs, then fit (g1, g2, g3) over a
  // (radix, block) grid.
  const std::int64_t n = 8;
  bruck::model::LinearModel base{"thread-substrate", 0.0, 0.0};
  {
    // ts from a tiny exchange, tc from a large one.
    const double tiny = wall_us(n, 1, 1, 2);
    const double huge = wall_us(n, 1, 1 << 15, 2);
    const auto tiny_m = bruck::model::index_bruck_cost(n, 2, 1, 1);
    const auto huge_m = bruck::model::index_bruck_cost(n, 2, 1, 1 << 15);
    base.beta_us = tiny / static_cast<double>(tiny_m.c1);
    base.tau_us_per_byte =
        (huge - tiny) / static_cast<double>(huge_m.c2 - tiny_m.c2);
  }
  std::cout << "calibrated ts = " << base.beta_us << " us/round, tc = "
            << base.tau_us_per_byte << " us/byte\n\n";

  std::vector<bruck::model::Observation> obs;
  for (const std::int64_t r : {2, 4, 8}) {
    for (const std::int64_t b : {64, 1024, 8192, 32768}) {
      bruck::model::Observation o;
      o.metrics = bruck::model::index_bruck_cost(n, r, 1, b);
      o.measured_us = wall_us(n, 1, b, r);
      obs.push_back(o);
    }
  }
  const bruck::model::ExtendedModel fit =
      bruck::model::fit_extended_model(base, obs);
  std::cout << "fit: g1 = " << fit.g1 << ", g2 = " << fit.g2 << ", g3 = "
            << fit.g3 << " us; R^2 = " << bruck::model::r_squared(fit, obs)
            << "\n\n";

  bruck::TextTable fit_table({"radix", "block bytes", "measured us",
                              "extended-model us", "linear-model us"});
  for (const auto& o : obs) {
    // Recover (r, b) from the metrics for display: b = C2 share; simpler to
    // recompute alongside, so re-walk the same grid in order.
    static std::size_t idx = 0;
    static const std::int64_t rs[] = {2, 4, 8};
    static const std::int64_t bs[] = {64, 1024, 8192, 32768};
    const std::int64_t r = rs[idx / 4];
    const std::int64_t b = bs[idx % 4];
    ++idx;
    fit_table.add(r, b, o.measured_us, fit.predict_us(o.metrics),
                  base.predict_us(o.metrics));
  }
  fit_table.print(std::cout);
  std::cout << "\nas in the paper's Section 3.5, the linear model is "
               "quantitatively off but the (g1, g2, g3) refinement absorbs "
               "the machine's constant factors; the qualitative radix "
               "ordering is what transfers.\n";
  return 0;
}
