// Fabric selection, fabric-sizing environment knobs, and the multi-process
// SPMD launcher.
//
// Environment variables follow the repo's strict-parse discipline
// (mps::parse_* seams, pure functions over the raw text): the whole string
// must be a valid value — junk, trailing characters, overflow, or
// out-of-range input is *rejected*, and the default_* wrapper warns once
// per process and falls back to the default rather than silently
// misconfiguring the fabric.
//
//   BRUCK_FABRIC                 thread | shm | socket   (backend selection)
//   BRUCK_SHM_RING_BYTES         per-rank inbound ring capacity (shm fabric)
//   BRUCK_SOCKET_MAX_WRITE_BYTES per-::send byte cap (socket fabric; a test
//                                knob forcing the partial-write paths)
//   BRUCK_TUNE_MODE              off | calibrate | adaptive (tune::, applied
//                                when SpawnOptions::tune is kDefault)
//   BRUCK_TUNE_TABLE             path of the persisted tune table (tune::)
//
// spawn_local() is the process-spanning counterpart of run_spmd(): fork n
// rank processes over the chosen backend, run the same body in each, ship
// every rank's result payload and trace events back over pipes, and
// reassemble a Trace the existing test machinery can compare bitwise
// against the thread fabric's.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mps/communicator.hpp"
#include "mps/trace.hpp"
#include "tune/env.hpp"

namespace bruck::mps {

enum class FabricBackend {
  kThread,  ///< in-process rank threads over lock-free MPSC inboxes
  kShm,     ///< forked rank processes over shared-memory MPSC rings
  kSocket,  ///< forked rank processes over loopback TCP + epoll
};

[[nodiscard]] const char* to_string(FabricBackend backend);

/// Strict parse of a BRUCK_FABRIC value ("thread" | "shm" | "socket",
/// exact); anything else ⇒ nullopt.
[[nodiscard]] std::optional<FabricBackend> parse_fabric_backend(
    const char* text);

/// BRUCK_FABRIC with warn-once fallback to kThread.
[[nodiscard]] FabricBackend default_fabric_backend();

/// Strict parse of a byte-count knob: whole-string positive decimal within
/// [min_bytes, max_bytes]; junk/overflow/out-of-range ⇒ nullopt.
[[nodiscard]] std::optional<std::size_t> parse_byte_count(
    const char* text, std::size_t min_bytes, std::size_t max_bytes);

/// BRUCK_SHM_RING_BYTES with warn-once fallback (default 1 MiB; accepted
/// range 4 KiB .. 1 GiB — a ring must hold at least one max-size segment).
[[nodiscard]] std::size_t default_shm_ring_bytes();

/// BRUCK_SOCKET_MAX_WRITE_BYTES with warn-once fallback (default 64 KiB;
/// accepted range 1 .. 16 MiB — 1 is valid and maximally adversarial).
[[nodiscard]] std::size_t default_socket_max_write_bytes();

/// One spawn_local configuration.  Zero-initialized ring/timeout fields
/// mean "use the environment-derived default".
struct SpawnOptions {
  std::int64_t n = 1;
  int k = 1;
  FabricBackend backend = FabricBackend::kThread;
  bool record_trace = true;
  /// Per-rank inbound ring capacity (shm backend); 0 ⇒ default_shm_ring_bytes().
  std::size_t shm_ring_bytes = 0;
  /// Receive/deadlock timeout; 0 ⇒ default_recv_timeout().
  std::chrono::milliseconds recv_timeout{0};
  /// Tuning bootstrap run on every rank before the body (kDefault defers
  /// to BRUCK_TUNE_MODE): calibrate measures β/τ/γ on this fabric and
  /// publishes the model; adaptive additionally installs the learning
  /// hooks (live exploration on the thread fabric only — forked ranks
  /// cannot share a sample pool; they still consume table overrides).
  tune::TuneMode tune = tune::TuneMode::kDefault;
};

/// What came back from one multi-process run: the reassembled trace, the
/// wall time of the parallel section, and each rank's result payload (the
/// body's return value, shipped over the result pipe) — the differential
/// harness compares those bitwise across backends.
struct SpawnResult {
  std::shared_ptr<Trace> trace;
  double wall_seconds = 0.0;
  std::vector<std::vector<std::byte>> rank_payloads;
};

/// Run `body` on every rank of a fabric of the chosen backend.
///
/// Thread backend: delegates to run_spmd (same process, same substrate the
/// oracle tests use).  Shm/socket backends: fork one process per rank; each
/// child attaches its communicator, runs the body, and ships {payload,
/// trace events} (or a clean error string) back over a pipe before
/// _exit(0).  The parent supervises: a child that dies abnormally raises
/// the fabric abort flag (shm) — its peers throw promptly instead of
/// hanging — and the first failing rank's error is rethrown after all
/// children are reaped.
SpawnResult spawn_local(
    const SpawnOptions& options,
    const std::function<std::vector<std::byte>(Communicator&)>& body);

}  // namespace bruck::mps
