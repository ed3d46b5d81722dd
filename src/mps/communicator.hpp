// The abstract k-port communicator the collective algorithms are written
// against (the substrate interface of Section 1.2's model).
//
// A *round* is one synchronous communication step of the paper's model: each
// processor may send up to k messages and receive up to k messages.  The
// algorithm supplies the global round index explicitly; this is what lets
// the trace compute C1 and C2 exactly as the paper defines them even when
// some ranks are idle in some rounds (tree-based baselines).
//
// Since the port-engine refactor the *primitive* operations are
// nonblocking: post_send/post_recv enqueue work and return immediately
// (sends are buffered and complete at post; receives return a PortHandle),
// test_recv/wait_recv/wait_any_recv/wait_all_recvs complete receives in
// *arrival* order.  `exchange` — the substrate of the reference algorithms
// and the blocking plan executor — is a thin shim over those primitives:
// post everything, then wait for the receives in spec order.
//
// A subclass must override either the engine primitives (a native
// substrate: ThreadComm) or `exchange` (a wrapping/intercepting
// communicator: fault injectors, filters).  Whichever side is not
// overridden falls back to the other: the default `exchange` drives the
// engine, and the default engine defers posted operations and flushes them
// round-by-round through `exchange` on the first wait — degraded to
// blocking-round semantics, but correct, so wrappers written against the
// old interface keep working under the pipelined executor.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

namespace bruck::mps {

/// One total deadline for a multi-step drain loop.
///
/// Every blocking wait in the port engine must finish (or throw) within a
/// single BRUCK_RECV_TIMEOUT_MS-style budget.  Before this helper the drain
/// loops applied their timeout *per step* — each arriving message or each
/// flushed round reset the clock — so a slow trickle of traffic (or a
/// wrapper whose `exchange` makes no progress) could extend one wait call
/// far past the configured deadline, or indefinitely.  Constructing one
/// DrainDeadline at the top of a wait and consulting it on every iteration
/// restores the intended contract: one call, one budget.
class DrainDeadline {
 public:
  /// Starts the clock: the deadline is now + `budget`.
  explicit DrainDeadline(std::chrono::milliseconds budget);

  /// The full budget this deadline was created with.
  [[nodiscard]] std::chrono::milliseconds budget() const { return budget_; }

  /// Time left before the deadline, clamped to >= 0 (usable directly as a
  /// condition-variable wait bound).
  [[nodiscard]] std::chrono::milliseconds remaining() const;

  /// True once the budget is exhausted.
  [[nodiscard]] bool expired() const { return remaining().count() == 0; }

 private:
  std::chrono::steady_clock::time_point deadline_;
  std::chrono::milliseconds budget_;
};

struct SendSpec {
  std::int64_t dst = 0;
  std::span<const std::byte> data;
};

struct RecvSpec {
  std::int64_t src = 0;
  /// Exact-size landing buffer; the substrate asserts the incoming payload
  /// matches data.size() (the paper's algorithms always know the sizes).
  std::span<std::byte> data;
};

/// One compiled-plan execution on one rank, as reported to the trace:
/// whether the plan came out of the PlanCache hot, how many rounds it spans,
/// how many payload bytes this rank put on the wire, and how many received
/// bytes it combined into accumulators (reduction plans only; 0 elsewhere).
struct PlanEvent {
  bool cache_hit = false;
  int rounds = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t bytes_reduced = 0;
  /// Port-namespace tag the execution ran in (0 = blocking/default path;
  /// nonblocking collectives report the tag their progress engine assigned).
  int tag = 0;
  /// Wall-clock time of this execution on this rank in microseconds
  /// (0 where the path doesn't time itself); the adaptive tuner's feedback
  /// signal, compared against the cost model's predicted_us.
  double wall_us = 0.0;
};

/// Identifies one posted (nonblocking) receive on one communicator.
/// Handles are never reused within a communicator's lifetime.
using PortHandle = std::uint64_t;

namespace detail {
class DeferredEngine;
}

class Communicator {
 public:
  Communicator();
  virtual ~Communicator();

  [[nodiscard]] virtual std::int64_t rank() const = 0;
  [[nodiscard]] virtual std::int64_t size() const = 0;
  [[nodiscard]] virtual int ports() const = 0;

  // -- Nonblocking port engine ---------------------------------------------
  //
  // Posts must use non-decreasing round indices, at most ports() sends and
  // ports() receives per round, no self-sends, no empty messages.  One
  // post_send/post_recv pair is one *logical* message: the trace records it
  // once, with the declared round and the full byte count, regardless of
  // `segments`.
  //
  // `segments` splits the payload into that many wire segments (the last
  // pipeline-lowering knob of the plan executor): the receiver can consume
  // segment i while segment i+1 is still being produced.  Sender and
  // receiver must agree on the segment count of each message; segment
  // sizes are derived from the total identically on both sides.  The
  // deferred fallback engine ignores segmentation (symmetrically, so a
  // fabric of wrapper communicators stays wire-consistent).
  //
  // `tag` names an independent *port namespace*: round monotonicity, the
  // per-round port budget, and wire sequencing are all scoped per tag, and
  // a message only ever matches a receive posted with its tag.  This is
  // what lets several collectives (each in its own tag) interleave on one
  // communicator without their rounds or segments aliasing.  Tag 0 is the
  // default/blocking namespace; nonzero tags come from
  // allocate_collective_tag() and are released with release_tag() once
  // drained.  The deferred fallback engine supports only tag 0 (a
  // wrapper's `exchange` has no tag concept); native engines support all.

  /// Post one logical send.  The payload is captured before returning (the
  /// caller's buffer may be reused immediately).  Never blocks.
  virtual void post_send(int round, std::int64_t dst,
                         std::span<const std::byte> data, int segments = 1,
                         int tag = 0);

  /// Move-in overload: a packed staging buffer becomes the wire payload
  /// without a copy.
  virtual void post_send(int round, std::int64_t dst,
                         std::vector<std::byte>&& data, int segments = 1,
                         int tag = 0);

  /// Post one logical receive landing into `data` (written by the time the
  /// handle completes).
  virtual PortHandle post_recv(int round, std::int64_t src,
                               std::span<std::byte> data, int segments = 1,
                               int tag = 0);

  /// Post one logical receive of `bytes` bytes into an engine-owned buffer;
  /// retrieve it with take_payload() once complete.  Lets a non-contiguous
  /// (scatter) receive consume the wire buffer directly instead of staging
  /// a copy.
  virtual PortHandle post_recv_buffer(int round, std::int64_t src,
                                      std::int64_t bytes, int segments = 1,
                                      int tag = 0);

  /// The completed payload of a post_recv_buffer receive (the handle is
  /// retired).  The view stays valid until the next take_payload() on this
  /// communicator, which lets the engine reuse its receive storage.
  /// Precondition: `h` is complete and buffer-mode.
  virtual std::span<const std::byte> take_payload(PortHandle h);

  /// Try to complete `h` without blocking; true once it is complete.
  /// Caveat: the deferred fallback engine (subclasses overriding only
  /// `exchange`) cannot make progress without flushing a round through the
  /// blocking `exchange`, so there this probe degrades to wait_recv — it
  /// can block up to the receive timeout.  Native engines are truly
  /// nonblocking.
  virtual bool test_recv(PortHandle h);

  /// Block until `h` completes (timeout ⇒ ContractViolation).
  virtual void wait_recv(PortHandle h);

  /// Block until *some* posted receive completes and return its handle;
  /// each completed handle is reported exactly once across
  /// wait_any_recv calls.  Precondition: at least one receive is
  /// outstanding or completed-but-unreported.
  virtual PortHandle wait_any_recv();

  /// wait_any_recv bounded by a *caller-owned* deadline: a multi-completion
  /// drain loop (the coll:: progress engine waiting out a whole collective)
  /// constructs ONE DrainDeadline and passes it to every completion wait,
  /// so the entire loop shares a single receive-timeout budget instead of
  /// resetting the clock per completed message.  Native engines honor the
  /// deadline exactly; the default forwards to wait_any_recv() (one budget
  /// per call — the pre-existing behavior, kept for wrappers).
  virtual PortHandle wait_any_recv_within(const DrainDeadline& deadline) {
    (void)deadline;
    return wait_any_recv();
  }

  /// The receive/deadlock timeout every blocking wait on this communicator
  /// is bounded by.  Fabrics override it with their configured budget; the
  /// default is the process-wide BRUCK_RECV_TIMEOUT_MS-derived value.
  [[nodiscard]] virtual std::chrono::milliseconds recv_timeout() const;

  /// Complete every outstanding receive (and, in the deferred fallback,
  /// flush any posted-but-unsent sends).
  virtual void wait_all_recvs();

  /// Truly nonblocking any-completion probe: complete and report one
  /// posted receive if its wire messages have already arrived, else return
  /// std::nullopt *without blocking*.  The deferred fallback engine cannot
  /// make progress without blocking in `exchange`, so its default reports
  /// only already-flushed completions; native engines drain arrived
  /// messages.  Each completed handle is reported exactly once across
  /// poll_any_recv/wait_any_recv calls.
  virtual std::optional<PortHandle> poll_any_recv();

  /// Allocate a fresh nonzero port-namespace tag.  Tags are handed out
  /// monotonically and never reused within a communicator's lifetime:
  /// SPMD ranks allocate in the same program order but may complete in
  /// different orders, so reuse could alias a new collective's wire
  /// sequence space with a peer's still-draining old one.
  [[nodiscard]] virtual int allocate_collective_tag() {
    return next_collective_tag_++;
  }

  /// Release the per-tag engine state (round counters, wire sequence
  /// numbers) of a fully drained nonzero tag.  Precondition: no receive
  /// posted under `tag` is still outstanding and no stashed message for it
  /// remains.  A no-op on engines without tag state (deferred fallback).
  virtual void release_tag(int tag) { (void)tag; }

  /// True when the engine primitives are implemented natively (posts are
  /// nonblocking, tags are supported, poll_any_recv makes real progress).
  /// False for the deferred exchange-backed fallback — callers that need
  /// concurrency (the coll:: progress engine) degrade to serial execution.
  [[nodiscard]] virtual bool native_port_engine() const { return false; }

  // ------------------------------------------------------------------------

  /// Execute one communication round.  Preconditions:
  ///  * sends.size() ≤ ports() and recvs.size() ≤ ports();
  ///  * no self-sends;
  ///  * `round` is strictly greater than any round this rank exchanged
  ///    before.
  /// Sends are posted first (buffered, non-blocking), then receives complete
  /// in spec order; the call returns when all receives have landed.  The
  /// default implementation is a shim over the nonblocking primitives.
  virtual void exchange(int round, std::span<const SendSpec> sends,
                        std::span<const RecvSpec> recvs);

  /// Appendix A's send_and_recv: one send and one receive as a single
  /// one-port round.
  void send_and_recv(int round, std::span<const std::byte> out,
                     std::int64_t dst, std::span<std::byte> in,
                     std::int64_t src) {
    const SendSpec s{dst, out};
    const RecvSpec r{src, in};
    exchange(round, {&s, 1}, {&r, 1});
  }

  /// Block until all ranks reached this barrier (used for timing fences, not
  /// required for correctness of exchanges).
  virtual void barrier() = 0;

  /// Plan-statistics sink: the compiled-schedule executor reports one event
  /// per collective call.  Substrates that keep a trace forward it there;
  /// the default is a no-op so algorithm code never has to care.
  virtual void record_plan_event(const PlanEvent& event) {
    (void)event;
  }

  /// Opaque per-communicator extension slot.  The coll:: layer parks its
  /// per-communicator state (call memo, progress engine) here so its lifetime
  /// tracks the communicator's exactly (a process-global registry keyed by
  /// address would outlive the communicator and could be resurrected by
  /// heap address reuse).  Same single-thread contract as the rest of the
  /// communicator.
  [[nodiscard]] std::shared_ptr<void>& extension_slot() { return extension_; }

 private:
  /// Lazily created state of the deferred (exchange-backed) fallback
  /// engine; null for subclasses that override the primitives natively.
  detail::DeferredEngine& deferred();
  std::unique_ptr<detail::DeferredEngine> deferred_;
  /// Round of the last default-shim exchange (strict monotonicity check).
  int last_exchange_round_ = -1;
  /// Next tag allocate_collective_tag hands out (0 is reserved for the
  /// default/blocking namespace).
  int next_collective_tag_ = 1;
  /// See extension_slot().
  std::shared_ptr<void> extension_;
};

}  // namespace bruck::mps
