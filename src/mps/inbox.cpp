#include "mps/inbox.hpp"

#include <utility>

namespace bruck::mps {

Inbox::Inbox() : head_(new Node), tail_(head_.load()) {}

Inbox::~Inbox() {
  while (tail_ != nullptr) delete std::exchange(tail_, tail_->next.load());
}

bool Inbox::push(Message m) {
  Node* node = new Node;
  node->message = std::move(m);
  Node* prev = head_.exchange(node, std::memory_order_acq_rel);
  // seq_cst: the doorbell's ordering contract (publish, then ring).
  prev->next.store(node, std::memory_order_seq_cst);
  return bell_.ring();
}

std::optional<Message> Inbox::try_pop() {
  Node* next = tail_->next.load(std::memory_order_acquire);
  if (next == nullptr) return std::nullopt;
  // `next` becomes the new consumed sentinel; the old one has no producer
  // left touching it (its `next` link was the last write to it).
  Message m = std::move(next->message);
  delete std::exchange(tail_, next);
  return m;
}

std::optional<Message> Inbox::pop(std::chrono::milliseconds timeout) {
  if (auto m = try_pop()) return m;
  if (timeout.count() <= 0) return std::nullopt;
  (void)bell_.wait_until([this] { return ready(); },
                         Doorbell::Clock::now() + timeout);
  return try_pop();
}

}  // namespace bruck::mps
