// The thread fabric's per-destination inbox: an unbounded lock-free
// multi-producer / single-consumer queue of moved Message handles, with a
// Doorbell for the consumer to wait on.
//
// Sends never block (the paper's model has no flow control below the round
// structure): a push allocates one node holding the moved message, swings
// the shared `head` to it with one atomic exchange, and links the previous
// head to it (Vyukov's MPSC node queue).  Payload buffers — the `vector` or
// the segment's `shared_ptr` — move through unchanged, never copied.  The
// single consumer (the owning rank) pops the oldest linked message from any
// source; per-producer FIFO holds because each producer's exchanges are
// ordered.  The port engine's early-arrival stash does all matching.
//
// A producer that has swung `head` but not yet linked its node leaves the
// queue looking empty for a moment; the consumer then waits on the
// doorbell, which the producer rings right after linking.
#pragma once

#include <atomic>
#include <chrono>
#include <optional>

#include "mps/doorbell.hpp"
#include "mps/message.hpp"

namespace bruck::mps {

/// Thread safety: push may be called from any thread concurrently; try_pop
/// and pop only from the owning (consumer) thread.  Trace: the inbox
/// records nothing — trace events are the sender's post-time
/// responsibility.
class Inbox {
 public:
  Inbox();
  ~Inbox();
  Inbox(const Inbox&) = delete;
  Inbox& operator=(const Inbox&) = delete;

  /// Deposit a message (any thread; never blocks).  Returns true when the
  /// push woke a parked consumer.
  bool push(Message m);

  /// Pop the oldest linked message without blocking.
  [[nodiscard]] std::optional<Message> try_pop();

  /// Pop the oldest message, waiting up to `timeout` (spin → yield → park;
  /// 0 = poll).  Empty on timeout: the caller owns the diagnostic, since it
  /// knows which sources it is waiting on.
  [[nodiscard]] std::optional<Message> pop(std::chrono::milliseconds timeout);

 private:
  struct Node {
    std::atomic<Node*> next{nullptr};
    Message message;
  };

  /// The doorbell's readiness predicate (seq_cst, per its contract).
  [[nodiscard]] bool ready() const {
    return tail_->next.load(std::memory_order_seq_cst) != nullptr;
  }

  /// Producers' end: the most recently pushed node.
  alignas(64) std::atomic<Node*> head_;
  /// Consumer's end: an already-consumed node whose successor is the oldest
  /// message.
  alignas(64) Node* tail_;
  alignas(64) Doorbell bell_;
};

}  // namespace bruck::mps
