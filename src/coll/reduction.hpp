// Reduction machinery.
//
// Two things live here:
//
//  1. `ReduceOp` — the combine-operator table of the reduction collectives
//     (reduce_scatter / allreduce): sum, min, max, prod over i32/i64/f32/f64
//     plus a user-function escape hatch.  Operators must be commutative and
//     associative: both the Bruck-skeleton combining tree and the pipelined
//     executor's arrival-order completion combine contributions in an
//     unspecified order (all built-ins qualify; floating-point sum/prod are
//     order-exact only for data that is, e.g. small integers).
//
//  2. The per-pair reduction reference oracles (`reduce_scatter_reference`,
//     `allreduce_reference`) — direct exchanges that share no code with the
//     plan engine, the `ExecutionPath::kReference` substrate every compiled
//     reduction path is tested against.
//
//  3. The Proposition 2.3 reduction (`concat_via_index`), kept from the
//     seed: any concatenation reduces to an index operation.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "mps/communicator.hpp"

namespace bruck::coll {

/// The combining operator kind.
enum class ReduceKind : std::uint8_t {
  kSum = 0,
  kMin,
  kMax,
  kProd,
  kUser,  ///< caller-supplied elementwise function (ReduceOp::user)
};

/// Element type the built-in operators combine over.
enum class ReduceElem : std::uint8_t { kI32 = 0, kI64, kF32, kF64 };

[[nodiscard]] std::string to_string(ReduceKind kind);
[[nodiscard]] std::string to_string(ReduceElem elem);

/// One combining operator: a (kind, element-type) pair from the built-in
/// table, or a user function over opaque fixed-width elements.
///
/// The operator must be commutative and associative (see the file comment);
/// `combine` is called on the receiving rank's thread only, so the user
/// function needs no internal synchronization.  Buffers handed to `combine`
/// are byte buffers with no alignment guarantee — the built-ins memcpy each
/// element; user functions must do the same.
struct ReduceOp {
  ReduceKind kind = ReduceKind::kSum;
  ReduceElem elem = ReduceElem::kI32;

  /// User escape hatch: acc[i] ⊕= in[i] for `count` elements of
  /// `user_elem_bytes` bytes each.
  using UserFn = void (*)(std::byte* acc, const std::byte* in,
                          std::int64_t count, void* ctx);
  UserFn user_fn = nullptr;
  std::int64_t user_elem_bytes = 0;
  void* user_ctx = nullptr;

  [[nodiscard]] static ReduceOp sum(ReduceElem e);
  [[nodiscard]] static ReduceOp min(ReduceElem e);
  [[nodiscard]] static ReduceOp max(ReduceElem e);
  [[nodiscard]] static ReduceOp prod(ReduceElem e);
  [[nodiscard]] static ReduceOp user(UserFn fn, std::int64_t elem_bytes,
                                     void* ctx = nullptr);

  /// Width of one element in bytes (4/8 for the built-ins).
  [[nodiscard]] std::int64_t elem_bytes() const;

  /// acc[0..bytes) ⊕= in[0..bytes), elementwise.  `bytes` must be a
  /// multiple of elem_bytes().
  void combine(std::byte* acc, const std::byte* in, std::int64_t bytes) const;

  /// Cache-key tag: (kind << 16) | element width.  Reduction plans are
  /// structurally op-independent, but the tag keeps "one PlanCache key =
  /// one complete execution recipe"; distinct user functions of equal
  /// element width deliberately share a key (the lowered plan is
  /// identical — the function itself is supplied at run time).
  [[nodiscard]] std::uint32_t cache_tag() const;

  [[nodiscard]] std::string name() const;
};

/// Which kernel ReduceOp::combine dispatches to for a given buffer pair.
/// Built-in ops run a typed loop the compiler vectorizes: directly over the
/// buffers when both are element-aligned (`kAlignedVector` — the common
/// case: accumulator blocks and wire payloads are allocation-aligned), or
/// chunked through small aligned stack arrays otherwise
/// (`kChunkedVector` — unaligned-safe, still vectorized per chunk).  User
/// ops always take the escape hatch (`kUser`).
enum class CombinePath : std::uint8_t {
  kAlignedVector = 0,
  kChunkedVector,
  kUser,
};

/// The kernel `op.combine(acc, in, …)` would run for these pointers.
/// Exposed so tests can pin the dispatch and benches can label rows.
[[nodiscard]] CombinePath combine_path(const ReduceOp& op, const void* acc,
                                       const void* in);

/// The pre-SIMD per-element memcpy combine loop, kept verbatim as the
/// bitwise oracle the vectorized kernels are tested and benchmarked
/// against.  Same contract as ReduceOp::combine.
void combine_elementwise_reference(const ReduceOp& op, std::byte* acc,
                                   const std::byte* in, std::int64_t bytes);

struct ReduceReferenceOptions {
  int start_round = 0;
};

/// Per-pair reduce-scatter oracle: `send` holds n blocks (block j is this
/// rank's contribution to rank j), `recv` one block — the ⊕-combination of
/// every rank's contribution to this rank.  Direct ring-distance exchange,
/// k distances per round, combining in ascending distance order; returns
/// the next free round index (start_round + ⌈(n−1)/k⌉ for n > 1).
/// Blocking and trace behavior as index_direct.
int reduce_scatter_reference(mps::Communicator& comm,
                             std::span<const std::byte> send,
                             std::span<std::byte> recv,
                             std::int64_t block_bytes, const ReduceOp& op,
                             const ReduceReferenceOptions& options = {});

/// Allreduce oracle: `recv` = ⊕ over all ranks of their `send` (same byte
/// length everywhere, a multiple of op.elem_bytes()).  Ring-circulates the
/// full vectors (n−1 one-port rounds) and combines locally in rank order,
/// so every rank applies the identical association order.
int allreduce_reference(mps::Communicator& comm,
                        std::span<const std::byte> send,
                        std::span<std::byte> recv, const ReduceOp& op,
                        const ReduceReferenceOptions& options = {});

struct ConcatViaIndexOptions {
  /// Radix handed to the underlying index algorithm.
  std::int64_t radix = 2;
  int start_round = 0;
};

/// Concatenation implemented by the Proposition 2.3 reduction: replicate
/// this rank's block n times, run the index operation, and the receive
/// buffer is the concatenation.  Same buffer contract as allgather.  The
/// index step is coll::alltoall forced to flat Bruck at `radix`, so
/// blocking, thread-safety and trace behavior are alltoall's.
int concat_via_index(mps::Communicator& comm, std::span<const std::byte> send,
                     std::span<std::byte> recv, std::int64_t block_bytes,
                     const ConcatViaIndexOptions& options = {});

}  // namespace bruck::coll
