// Process groups — Appendix A's collectives take "A, the array of the n
// different processor ids, such that A[i] = p_i": the operations run inside
// an ordered subset of the machine, with group ranks translated through A.
// GroupComm realizes exactly that: a Communicator view over an ordered
// member list of a parent communicator.  Collectives run unmodified inside
// the group; disjoint groups run concurrently on one fabric (the paper's
// "operate within arbitrary and dynamic subsets of processors",
// Section 1.2).
#pragma once

#include <cstdint>
#include <vector>

#include "mps/communicator.hpp"

namespace bruck::mps {

class GroupComm final : public Communicator {
 public:
  /// `members[i]` is the parent rank acting as group rank i (the paper's
  /// A[i] = p_i).  Members must be distinct, valid parent ranks, and
  /// include the calling parent rank.
  GroupComm(Communicator& parent, std::vector<std::int64_t> members);

  [[nodiscard]] std::int64_t rank() const override { return group_rank_; }
  [[nodiscard]] std::int64_t size() const override {
    return static_cast<std::int64_t>(members_.size());
  }
  [[nodiscard]] int ports() const override { return parent_->ports(); }

  /// Appendix A's getrank: the group rank of a parent rank, or −1.
  [[nodiscard]] std::int64_t getrank(std::int64_t parent_rank) const;

  /// The parent rank of a group rank (A[i]).
  [[nodiscard]] std::int64_t member(std::int64_t group_rank) const;

  void exchange(int round, std::span<const SendSpec> sends,
                std::span<const RecvSpec> recvs) override;

  // The nonblocking port engine forwards to the parent with group ranks
  // translated to parent ranks, so compiled/pipelined plans run inside a
  // group exactly as they do on the full machine (handles are the
  // parent's).  A rank thread owns ONE completion stream: wait_any_recv
  // reports any outstanding receive of the parent engine, so do not
  // interleave a group collective with receives posted directly on the
  // parent (or a sibling group) without draining them first — the plan
  // executors always drain before returning, so sequential collectives
  // compose fine; a foreign handle in flight fails loudly.
  void post_send(int round, std::int64_t dst, std::span<const std::byte> data,
                 int segments = 1, int tag = 0) override;
  void post_send(int round, std::int64_t dst, std::vector<std::byte>&& data,
                 int segments = 1, int tag = 0) override;
  PortHandle post_recv(int round, std::int64_t src, std::span<std::byte> data,
                       int segments = 1, int tag = 0) override;
  PortHandle post_recv_buffer(int round, std::int64_t src, std::int64_t bytes,
                              int segments = 1, int tag = 0) override;
  std::span<const std::byte> take_payload(PortHandle h) override;
  bool test_recv(PortHandle h) override;
  void wait_recv(PortHandle h) override;
  PortHandle wait_any_recv() override;
  void wait_all_recvs() override;
  std::optional<PortHandle> poll_any_recv() override;

  // Tag namespaces are the parent's: tags allocated through any group view
  // draw from the parent's monotone counter, so sibling groups on one
  // parent can never collide in a tag.
  [[nodiscard]] int allocate_collective_tag() override {
    return parent_->allocate_collective_tag();
  }
  void release_tag(int tag) override { parent_->release_tag(tag); }
  [[nodiscard]] bool native_port_engine() const override {
    return parent_->native_port_engine();
  }

  /// Plan statistics flow to the parent's sink (the group has no trace of
  /// its own).
  void record_plan_event(const PlanEvent& event) override {
    parent_->record_plan_event(event);
  }

  /// Group barriers are intentionally unsupported: the parent barrier spans
  /// the whole fabric, and the group's collectives synchronize through
  /// their own receives.  Throws ContractViolation.
  [[noreturn]] void barrier() override;

 private:
  Communicator* parent_;
  std::vector<std::int64_t> members_;
  std::int64_t group_rank_ = -1;
};

}  // namespace bruck::mps
