// A data-free intermediate representation of a collective communication
// pattern: the sequence of rounds, each a set of point-to-point transfers.
//
// Every algorithm lowered in coll/plan.cpp has a corresponding *builder* in
// this library that derives its pattern independently of the data-moving
// lowering.
// Tests assert that the executed trace (mps/trace.hpp) and the built
// schedule agree transfer-for-transfer; benches evaluate schedules under
// cost models without moving any bytes.
//
// Port semantics follow the paper's k-port model: in one round a processor
// may send at most k messages and receive at most k messages.  Two messages
// between the same pair in one round are legal (they ride distinct ports);
// self-sends are not (local data needs no port).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/metrics.hpp"

namespace bruck::sched {

struct Transfer {
  std::int64_t src = 0;
  std::int64_t dst = 0;
  std::int64_t bytes = 0;

  friend auto operator<=>(const Transfer&, const Transfer&) = default;
};

struct Round {
  std::vector<Transfer> transfers;

  friend bool operator==(const Round&, const Round&) = default;
};

class Schedule {
 public:
  Schedule(std::int64_t n, int k);

  [[nodiscard]] std::int64_t n() const { return n_; }
  [[nodiscard]] int k() const { return k_; }
  [[nodiscard]] std::size_t round_count() const { return rounds_.size(); }
  [[nodiscard]] const std::vector<Round>& rounds() const { return rounds_; }

  /// Append a round (may be appended empty and filled via add_transfer).
  std::size_t add_round();
  void add_transfer(std::size_t round, Transfer t);

  /// Check the k-port model constraints; returns an empty string when valid,
  /// else a human-readable description of the first violation found.
  [[nodiscard]] std::string validate() const;

  /// The paper's measures of this pattern.  Requires a valid schedule.
  [[nodiscard]] model::CostMetrics metrics() const;

  /// Canonical form: transfers of each round sorted by (src, dst, bytes).
  /// Two schedules of the same algorithm must compare equal after
  /// normalization regardless of emission order.
  void normalize();

  friend bool operator==(const Schedule&, const Schedule&) = default;

 private:
  std::int64_t n_;
  int k_;
  std::vector<Round> rounds_;
};

}  // namespace bruck::sched
