// Data-free derivations of the index algorithms' communication patterns.
//
// These builders intentionally do NOT share code with the executable plan
// lowerings in coll/plan.cpp beyond the radix helpers: they re-derive each
// pattern from the paper's description so that "executed trace == built
// schedule" is a meaningful cross-check and not a tautology.
#pragma once

#include <cstdint>

#include "sched/schedule.hpp"

namespace bruck::sched {

/// Section 3 index algorithm with radix r on n ranks, k ports, b-byte
/// blocks.  Returns the empty schedule when n == 1 or b == 0 (no bytes ever
/// enter the fabric), matching the executed trace.
[[nodiscard]] Schedule build_index_bruck(std::int64_t n, std::int64_t r, int k,
                                         std::int64_t block_bytes);

/// Direct exchange: step j pairs i → (i+j) mod n, k steps per round.
[[nodiscard]] Schedule build_index_direct(std::int64_t n, int k,
                                          std::int64_t block_bytes);

/// XOR pairwise exchange (n a power of two): step j pairs i ↔ i xor j.
[[nodiscard]] Schedule build_index_pairwise(std::int64_t n, int k,
                                            std::int64_t block_bytes);

}  // namespace bruck::sched
