#include "mps/group.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace bruck::mps {

GroupComm::GroupComm(Communicator& parent, std::vector<std::int64_t> members)
    : parent_(&parent), members_(std::move(members)) {
  BRUCK_REQUIRE_MSG(!members_.empty(), "a group needs at least one member");
  std::vector<std::int64_t> sorted = members_;
  std::sort(sorted.begin(), sorted.end());
  BRUCK_REQUIRE_MSG(
      std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
      "group members must be distinct");
  for (std::int64_t m : members_) {
    BRUCK_REQUIRE_MSG(m >= 0 && m < parent.size(),
                      "group member outside the parent communicator");
  }
  group_rank_ = getrank(parent.rank());
  BRUCK_REQUIRE_MSG(group_rank_ >= 0,
                    "the calling rank must be a member of the group");
}

std::int64_t GroupComm::getrank(std::int64_t parent_rank) const {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i] == parent_rank) return static_cast<std::int64_t>(i);
  }
  return -1;
}

std::int64_t GroupComm::member(std::int64_t group_rank) const {
  BRUCK_REQUIRE(group_rank >= 0 &&
                group_rank < static_cast<std::int64_t>(members_.size()));
  return members_[static_cast<std::size_t>(group_rank)];
}

void GroupComm::exchange(int round, std::span<const SendSpec> sends,
                         std::span<const RecvSpec> recvs) {
  // Translate group ranks to parent ranks and delegate; all validation
  // (port counts, round monotonicity, sequencing) happens in the parent.
  std::vector<SendSpec> psends(sends.begin(), sends.end());
  std::vector<RecvSpec> precvs(recvs.begin(), recvs.end());
  for (SendSpec& s : psends) s.dst = member(s.dst);
  for (RecvSpec& r : precvs) r.src = member(r.src);
  parent_->exchange(round, psends, precvs);
}

void GroupComm::post_send(int round, std::int64_t dst,
                          std::span<const std::byte> data, int segments,
                          int tag) {
  parent_->post_send(round, member(dst), data, segments, tag);
}

void GroupComm::post_send(int round, std::int64_t dst,
                          std::vector<std::byte>&& data, int segments,
                          int tag) {
  parent_->post_send(round, member(dst), std::move(data), segments, tag);
}

PortHandle GroupComm::post_recv(int round, std::int64_t src,
                                std::span<std::byte> data, int segments,
                                int tag) {
  return parent_->post_recv(round, member(src), data, segments, tag);
}

PortHandle GroupComm::post_recv_buffer(int round, std::int64_t src,
                                       std::int64_t bytes, int segments,
                                       int tag) {
  return parent_->post_recv_buffer(round, member(src), bytes, segments, tag);
}

std::span<const std::byte> GroupComm::take_payload(PortHandle h) {
  return parent_->take_payload(h);
}

bool GroupComm::test_recv(PortHandle h) { return parent_->test_recv(h); }

void GroupComm::wait_recv(PortHandle h) { parent_->wait_recv(h); }

PortHandle GroupComm::wait_any_recv() { return parent_->wait_any_recv(); }

void GroupComm::wait_all_recvs() { parent_->wait_all_recvs(); }

std::optional<PortHandle> GroupComm::poll_any_recv() {
  return parent_->poll_any_recv();
}

void GroupComm::barrier() {
  BRUCK_REQUIRE_MSG(false,
                    "group barriers are unsupported; the parent barrier "
                    "spans the whole fabric (see GroupComm docs)");
  // BRUCK_REQUIRE_MSG always throws on a false condition; this is
  // unreachable but keeps the [[noreturn]] contract explicit.
  throw ContractViolation("unreachable");
}

}  // namespace bruck::mps
