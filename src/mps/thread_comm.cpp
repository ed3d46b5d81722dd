#include "mps/thread_comm.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "util/assert.hpp"

namespace bruck::mps {

std::optional<std::chrono::milliseconds> parse_recv_timeout_ms(
    const char* text) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0') return std::nullopt;  // junk / trailing junk
  if (errno == ERANGE) return std::nullopt;  // overflowed, silently saturated
  if (v <= 0 || v > kMaxRecvTimeoutMs) return std::nullopt;
  return std::chrono::milliseconds(v);
}

std::chrono::milliseconds default_recv_timeout() {
  constexpr std::chrono::milliseconds kDefault{30000};
  const char* env = std::getenv("BRUCK_RECV_TIMEOUT_MS");
  if (env == nullptr) return kDefault;
  if (const auto parsed = parse_recv_timeout_ms(env)) return *parsed;
  // Warn once per process: a misconfigured timeout silently changes hang
  // behavior, but repeating the warning per fabric would drown test output.
  static std::once_flag warned;
  const long long default_ms = kDefault.count();
  std::call_once(warned, [env, default_ms] {
    std::fprintf(stderr,
                 "bruck: ignoring invalid BRUCK_RECV_TIMEOUT_MS=\"%s\" "
                 "(want a positive integer <= %lld ms); using %lld ms\n",
                 env, kMaxRecvTimeoutMs, default_ms);
  });
  return kDefault;
}

Fabric::Fabric(const FabricOptions& options)
    : options_(options),
      trace_(options.n, options.k),
      barrier_(static_cast<std::ptrdiff_t>(options.n)) {
  BRUCK_REQUIRE(options_.n >= 1);
  BRUCK_REQUIRE(options_.k >= 1);
  inboxes_.reserve(static_cast<std::size_t>(options_.n));
  for (std::int64_t i = 0; i < options_.n; ++i) {
    inboxes_.push_back(std::make_unique<Inbox>());
  }
}

Inbox& Fabric::inbox(std::int64_t rank) {
  BRUCK_REQUIRE(rank >= 0 && rank < options_.n);
  return *inboxes_[static_cast<std::size_t>(rank)];
}

void Fabric::arrive_at_barrier() { barrier_.arrive_and_wait(); }

void Fabric::drop_from_barrier() { barrier_.arrive_and_drop(); }

ThreadComm::ThreadComm(Fabric& fabric, std::int64_t rank)
    : WirePortEngine(fabric.n(), WirePush::kMove),
      fabric_(&fabric),
      rank_(rank) {
  BRUCK_REQUIRE(rank >= 0 && rank < fabric.n());
}

void ThreadComm::wire_push(Message&& m) {
  (void)fabric_->inbox(m.dst).push(std::move(m));
}

bool ThreadComm::wire_pull(std::span<const std::int64_t> waiting_srcs,
                           std::chrono::milliseconds timeout) {
  // One inbound queue for all sources: the engine stashes messages from
  // sources (and tags) it is not yet waiting for.
  (void)waiting_srcs;
  std::optional<Message> m = fabric_->inbox(rank_).pop(timeout);
  if (!m.has_value()) return false;
  accept(std::move(*m));
  return true;
}

void ThreadComm::record_send_event(int round, std::int64_t dst,
                                   std::int64_t bytes, int tag) {
  if (fabric_->options().record_trace) {
    fabric_->trace().sink(rank_).record_send(round, dst, bytes, tag);
  }
}

void ThreadComm::barrier() { fabric_->arrive_at_barrier(); }

void ThreadComm::record_plan_event(const PlanEvent& event) {
  if (fabric_->options().record_trace) {
    fabric_->trace().sink(rank_).record_plan(event);
  }
}

}  // namespace bruck::mps
