// The in-process substrate: a Fabric owns the shared state (inboxes,
// trace, barrier) of one simulated machine; each rank thread drives a
// ThreadComm facade bound to its rank.
//
// ThreadComm is the WirePortEngine instantiated over lock-free MPSC inboxes
// (inbox.hpp): wire_push moves (optionally segmented) wire messages into
// the destination rank's inbox immediately and never blocks; wire_pull takes
// the oldest message from any source out of this rank's own inbox, waiting
// on its doorbell (spin → yield → futex park), and hands it to the engine.  All the matching/ordering
// machinery (arrival-order completion, tag namespaces, early-arrival stash,
// seq checks) lives in the shared engine — ThreadComm stays the bitwise
// *oracle* substrate the process-spanning backends (shm_comm.hpp,
// socket_comm.hpp) are differentially tested against.
#pragma once

#include <barrier>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "mps/inbox.hpp"
#include "mps/port_engine.hpp"
#include "mps/trace.hpp"

namespace bruck::mps {

/// Upper bound accepted for a BRUCK_RECV_TIMEOUT_MS override (24 h): a
/// larger value is far more likely a typo or an overflowed number than a
/// deliberate deadlock timeout, and silently accepting it would disable the
/// hang protection entirely.
inline constexpr long long kMaxRecvTimeoutMs = 24ll * 60 * 60 * 1000;

/// Strictly parse a BRUCK_RECV_TIMEOUT_MS override: the whole string must
/// be one decimal integer in (0, kMaxRecvTimeoutMs] — no trailing junk, no
/// overflow (strtol-style silent saturation is rejected).  Returns
/// std::nullopt for null/empty/invalid input.
[[nodiscard]] std::optional<std::chrono::milliseconds> parse_recv_timeout_ms(
    const char* text);

/// The fabric-wide receive timeout default: the BRUCK_RECV_TIMEOUT_MS
/// environment variable when it parses strictly (parse_recv_timeout_ms),
/// else 30000 ms.  A set-but-invalid value warns once on stderr and falls
/// back to the default instead of silently misconfiguring the timeout.
/// Read per call, so tests and sanitizer CI jobs (where every operation is
/// 10-20x slower) can adjust it without touching code.
[[nodiscard]] std::chrono::milliseconds default_recv_timeout();

struct FabricOptions {
  std::int64_t n = 1;
  int k = 1;
  bool record_trace = true;
  /// Receive timeout: a deadlocked or mismatched algorithm throws instead of
  /// hanging the process.  Defaults to default_recv_timeout() (env-tunable).
  std::chrono::milliseconds recv_timeout = default_recv_timeout();
};

class Fabric {
 public:
  explicit Fabric(const FabricOptions& options);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] std::int64_t n() const { return options_.n; }
  [[nodiscard]] int k() const { return options_.k; }
  [[nodiscard]] const FabricOptions& options() const { return options_; }

  [[nodiscard]] Inbox& inbox(std::int64_t rank);
  [[nodiscard]] Trace& trace() { return trace_; }
  void arrive_at_barrier();

  /// Called by a rank that is abandoning the computation (exception unwind):
  /// removes it from all future barrier phases so surviving ranks cannot
  /// hang waiting for it.
  void drop_from_barrier();

 private:
  FabricOptions options_;
  std::vector<std::unique_ptr<Inbox>> inboxes_;
  Trace trace_;
  std::barrier<> barrier_;
};

/// Blocking/thread-safety/trace contract: a ThreadComm belongs to exactly
/// one rank thread — only that thread may call it.  post_send/post_recv
/// never block; test_recv is truly nonblocking here; each wait_* call as a
/// whole is bounded by ONE fabric recv_timeout budget (a DrainDeadline —
/// the timeout does not reset per arriving message) and throws
/// ContractViolation naming the still-awaited sources on expiry.  The
/// trace records each logical send once at post time (one event regardless
/// of wire segmentation) into this rank's private sink.
///
/// Tag namespaces are implemented natively by the shared engine: round
/// monotonicity, per-round port budgets, and wire sequence numbers are all
/// kept per tag, and a message matches only receives posted with its tag.
/// The inbox surfaces messages from every source and tag in arrival
/// order, so a message for a tag (or a source) whose receive has not been
/// posted yet is stashed by the engine and delivered when its receive is
/// posted.
class ThreadComm final : public WirePortEngine {
 public:
  ThreadComm(Fabric& fabric, std::int64_t rank);

  [[nodiscard]] std::int64_t rank() const override { return rank_; }
  [[nodiscard]] std::int64_t size() const override { return fabric_->n(); }
  [[nodiscard]] int ports() const override { return fabric_->k(); }
  [[nodiscard]] std::chrono::milliseconds recv_timeout() const override {
    return fabric_->options().recv_timeout;
  }

  void barrier() override;
  void record_plan_event(const PlanEvent& event) override;

 protected:
  void wire_push(Message&& m) override;
  bool wire_pull(std::span<const std::int64_t> waiting_srcs,
                 std::chrono::milliseconds timeout) override;
  void record_send_event(int round, std::int64_t dst, std::int64_t bytes,
                         int tag) override;

 private:
  Fabric* fabric_;
  std::int64_t rank_;
};

}  // namespace bruck::mps
