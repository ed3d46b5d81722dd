#include "coll/reduction.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "coll/api.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace bruck::coll {

std::string to_string(ReduceKind kind) {
  switch (kind) {
    case ReduceKind::kSum: return "sum";
    case ReduceKind::kMin: return "min";
    case ReduceKind::kMax: return "max";
    case ReduceKind::kProd: return "prod";
    case ReduceKind::kUser: return "user";
  }
  return "?";
}

std::string to_string(ReduceElem elem) {
  switch (elem) {
    case ReduceElem::kI32: return "i32";
    case ReduceElem::kI64: return "i64";
    case ReduceElem::kF32: return "f32";
    case ReduceElem::kF64: return "f64";
  }
  return "?";
}

ReduceOp ReduceOp::sum(ReduceElem e) { return {ReduceKind::kSum, e}; }
ReduceOp ReduceOp::min(ReduceElem e) { return {ReduceKind::kMin, e}; }
ReduceOp ReduceOp::max(ReduceElem e) { return {ReduceKind::kMax, e}; }
ReduceOp ReduceOp::prod(ReduceElem e) { return {ReduceKind::kProd, e}; }

ReduceOp ReduceOp::user(UserFn fn, std::int64_t elem_bytes, void* ctx) {
  BRUCK_REQUIRE_MSG(fn != nullptr, "user reduce op needs a function");
  BRUCK_REQUIRE_MSG(elem_bytes >= 1, "user reduce op needs an element width");
  ReduceOp op;
  op.kind = ReduceKind::kUser;
  op.user_fn = fn;
  op.user_elem_bytes = elem_bytes;
  op.user_ctx = ctx;
  return op;
}

std::int64_t ReduceOp::elem_bytes() const {
  if (kind == ReduceKind::kUser) return user_elem_bytes;
  switch (elem) {
    case ReduceElem::kI32:
    case ReduceElem::kF32:
      return 4;
    case ReduceElem::kI64:
    case ReduceElem::kF64:
      return 8;
  }
  return 0;
}

namespace {

/// True when `p` is aligned for T loads/stores.
template <typename T>
bool aligned_for(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % alignof(T) == 0;
}

/// Elements combined per chunk on the unaligned path: big enough for the
/// vectorized core to amortize the staging memcpys, small enough to live
/// in L1 and on the stack.
constexpr std::int64_t kCombineChunk = 128;

/// Elementwise acc ⊕= in.  Both buffers verified element-aligned: the body
/// is a plain typed loop over restrict-qualified pointers, which the
/// compiler turns into packed SIMD at -O2/-O3 — this is the memory-bandwidth
/// combine of the fused reduce-on-receive path.
template <typename T, typename F>
void combine_typed_aligned(std::byte* acc, const std::byte* in,
                           std::int64_t count, F f) {
  T* __restrict a = reinterpret_cast<T*>(acc);
  const T* __restrict b = reinterpret_cast<const T*>(in);
  for (std::int64_t i = 0; i < count; ++i) {
    a[i] = f(a[i], b[i]);
  }
}

/// Unaligned-safe fallback: stage fixed-size chunks into aligned stack
/// arrays by memcpy, run the same vectorizable core, memcpy back.  Handles
/// any byte offset (wire payloads carry no alignment guarantee) without
/// dropping to per-element loads.
template <typename T, typename F>
void combine_typed_chunked(std::byte* acc, const std::byte* in,
                           std::int64_t count, F f) {
  T a[kCombineChunk];
  T b[kCombineChunk];
  for (std::int64_t done = 0; done < count; done += kCombineChunk) {
    const std::int64_t m = std::min(kCombineChunk, count - done);
    std::memcpy(a, acc + done * static_cast<std::int64_t>(sizeof(T)),
                static_cast<std::size_t>(m) * sizeof(T));
    std::memcpy(b, in + done * static_cast<std::int64_t>(sizeof(T)),
                static_cast<std::size_t>(m) * sizeof(T));
    for (std::int64_t i = 0; i < m; ++i) {
      a[i] = f(a[i], b[i]);
    }
    std::memcpy(acc + done * static_cast<std::int64_t>(sizeof(T)), a,
                static_cast<std::size_t>(m) * sizeof(T));
  }
}

#if defined(__x86_64__) && defined(__GNUC__)
#define BRUCK_COMBINE_AVX2 1
/// Wide-vector clone of the aligned kernel: identical source loop compiled
/// for AVX2 (256-bit lanes — 4 f64 / 8 f32 per op instead of the baseline
/// SSE2 two/four).  Elementwise ⊕ is bitwise independent of vector width,
/// so this is pure throughput; selected at runtime via cpuid.
template <typename T, typename F>
__attribute__((target("avx2"))) void combine_typed_aligned_avx2(
    std::byte* acc, const std::byte* in, std::int64_t count, F f) {
  T* __restrict a = reinterpret_cast<T*>(acc);
  const T* __restrict b = reinterpret_cast<const T*>(in);
  for (std::int64_t i = 0; i < count; ++i) {
    a[i] = f(a[i], b[i]);
  }
}
#endif

template <typename T, typename F>
void combine_typed(std::byte* acc, const std::byte* in, std::int64_t bytes,
                   F f) {
  const std::int64_t count = bytes / static_cast<std::int64_t>(sizeof(T));
  if (aligned_for<T>(acc) && aligned_for<T>(in)) {
#ifdef BRUCK_COMBINE_AVX2
    static const bool has_avx2 = __builtin_cpu_supports("avx2") != 0;
    if (has_avx2) {
      combine_typed_aligned_avx2<T>(acc, in, count, f);
      return;
    }
#endif
    combine_typed_aligned<T>(acc, in, count, f);
  } else {
    combine_typed_chunked<T>(acc, in, count, f);
  }
}

template <typename T>
void combine_kind(ReduceKind kind, std::byte* acc, const std::byte* in,
                  std::int64_t bytes) {
  switch (kind) {
    case ReduceKind::kSum:
      combine_typed<T>(acc, in, bytes, [](T a, T b) { return a + b; });
      break;
    case ReduceKind::kMin:
      combine_typed<T>(acc, in, bytes,
                       [](T a, T b) { return std::min(a, b); });
      break;
    case ReduceKind::kMax:
      combine_typed<T>(acc, in, bytes,
                       [](T a, T b) { return std::max(a, b); });
      break;
    case ReduceKind::kProd:
      combine_typed<T>(acc, in, bytes, [](T a, T b) { return a * b; });
      break;
    case ReduceKind::kUser:
      BRUCK_ENSURE_MSG(false, "unreachable: user ops dispatch separately");
  }
}

/// The pre-SIMD loop, verbatim: per-element memcpy in and out, no
/// alignment assumptions.  Pinned scalar (vectorization disabled) so it
/// measures — and the bench baseline reports — the one-element-at-a-time
/// path the typed kernels replace, rather than whatever the optimizer
/// makes of it; the bitwise semantics are unaffected.
template <typename T, typename F>
#if defined(__clang__)
void combine_typed_reference(std::byte* acc, const std::byte* in,
                             std::int64_t bytes, F f) {
  const std::int64_t count = bytes / static_cast<std::int64_t>(sizeof(T));
#pragma clang loop vectorize(disable) interleave(disable)
  for (std::int64_t i = 0; i < count; ++i) {
#else
__attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
void combine_typed_reference(std::byte* acc, const std::byte* in,
                             std::int64_t bytes, F f) {
  const std::int64_t count = bytes / static_cast<std::int64_t>(sizeof(T));
  for (std::int64_t i = 0; i < count; ++i) {
#endif
    T a;
    T b;
    std::memcpy(&a, acc + i * sizeof(T), sizeof(T));
    std::memcpy(&b, in + i * sizeof(T), sizeof(T));
    a = f(a, b);
    std::memcpy(acc + i * sizeof(T), &a, sizeof(T));
  }
}

template <typename T>
void combine_kind_reference(ReduceKind kind, std::byte* acc,
                            const std::byte* in, std::int64_t bytes) {
  switch (kind) {
    case ReduceKind::kSum:
      combine_typed_reference<T>(acc, in, bytes,
                                 [](T a, T b) { return a + b; });
      break;
    case ReduceKind::kMin:
      combine_typed_reference<T>(acc, in, bytes,
                                 [](T a, T b) { return std::min(a, b); });
      break;
    case ReduceKind::kMax:
      combine_typed_reference<T>(acc, in, bytes,
                                 [](T a, T b) { return std::max(a, b); });
      break;
    case ReduceKind::kProd:
      combine_typed_reference<T>(acc, in, bytes,
                                 [](T a, T b) { return a * b; });
      break;
    case ReduceKind::kUser:
      BRUCK_ENSURE_MSG(false, "unreachable: user ops dispatch separately");
  }
}

bool elem_aligned_pair(ReduceElem elem, const void* acc, const void* in) {
  switch (elem) {
    case ReduceElem::kI32:
      return aligned_for<std::int32_t>(acc) && aligned_for<std::int32_t>(in);
    case ReduceElem::kI64:
      return aligned_for<std::int64_t>(acc) && aligned_for<std::int64_t>(in);
    case ReduceElem::kF32:
      return aligned_for<float>(acc) && aligned_for<float>(in);
    case ReduceElem::kF64:
      return aligned_for<double>(acc) && aligned_for<double>(in);
  }
  return false;
}

}  // namespace

CombinePath combine_path(const ReduceOp& op, const void* acc,
                         const void* in) {
  if (op.kind == ReduceKind::kUser) return CombinePath::kUser;
  return elem_aligned_pair(op.elem, acc, in) ? CombinePath::kAlignedVector
                                             : CombinePath::kChunkedVector;
}

void combine_elementwise_reference(const ReduceOp& op, std::byte* acc,
                                   const std::byte* in, std::int64_t bytes) {
  const std::int64_t ew = op.elem_bytes();
  BRUCK_REQUIRE_MSG(ew >= 1 && bytes % ew == 0,
                    "combine length must be a whole number of elements");
  if (bytes == 0) return;
  if (op.kind == ReduceKind::kUser) {
    op.user_fn(acc, in, bytes / ew, op.user_ctx);
    return;
  }
  switch (op.elem) {
    case ReduceElem::kI32:
      combine_kind_reference<std::int32_t>(op.kind, acc, in, bytes);
      break;
    case ReduceElem::kI64:
      combine_kind_reference<std::int64_t>(op.kind, acc, in, bytes);
      break;
    case ReduceElem::kF32:
      combine_kind_reference<float>(op.kind, acc, in, bytes);
      break;
    case ReduceElem::kF64:
      combine_kind_reference<double>(op.kind, acc, in, bytes);
      break;
  }
}

void ReduceOp::combine(std::byte* acc, const std::byte* in,
                       std::int64_t bytes) const {
  const std::int64_t ew = elem_bytes();
  BRUCK_REQUIRE_MSG(ew >= 1 && bytes % ew == 0,
                    "combine length must be a whole number of elements");
  if (bytes == 0) return;
  if (kind == ReduceKind::kUser) {
    user_fn(acc, in, bytes / ew, user_ctx);
    return;
  }
  switch (elem) {
    case ReduceElem::kI32: combine_kind<std::int32_t>(kind, acc, in, bytes); break;
    case ReduceElem::kI64: combine_kind<std::int64_t>(kind, acc, in, bytes); break;
    case ReduceElem::kF32: combine_kind<float>(kind, acc, in, bytes); break;
    case ReduceElem::kF64: combine_kind<double>(kind, acc, in, bytes); break;
  }
}

std::uint32_t ReduceOp::cache_tag() const {
  return (static_cast<std::uint32_t>(kind) << 16) |
         static_cast<std::uint32_t>(elem_bytes() & 0xFFFF);
}

std::string ReduceOp::name() const {
  if (kind == ReduceKind::kUser) {
    return "user/" + std::to_string(user_elem_bytes) + "B";
  }
  return to_string(kind) + "/" + to_string(elem);
}

// ---------------------------------------------------------------------------
// Per-pair reference oracles.

int reduce_scatter_reference(mps::Communicator& comm,
                             std::span<const std::byte> send,
                             std::span<std::byte> recv,
                             std::int64_t block_bytes, const ReduceOp& op,
                             const ReduceReferenceOptions& options) {
  const std::int64_t n = comm.size();
  const std::int64_t rank = comm.rank();
  const int k = comm.ports();
  const std::int64_t b = block_bytes;
  BRUCK_REQUIRE(b >= 0);
  BRUCK_REQUIRE(b % std::max<std::int64_t>(1, op.elem_bytes()) == 0);
  BRUCK_REQUIRE(static_cast<std::int64_t>(send.size()) == n * b);
  BRUCK_REQUIRE(static_cast<std::int64_t>(recv.size()) == b);

  // Own contribution seeds the accumulator.
  if (b > 0) {
    std::memcpy(recv.data(), send.data() + rank * b,
                static_cast<std::size_t>(b));
  }
  int round = options.start_round;
  if (n == 1) return round;

  // Ring-distance exchange like index_direct: step j sends this rank's
  // contribution for rank+j and receives (then combines, in ascending j
  // order) the contribution from rank−j; k steps per round.
  std::vector<std::vector<std::byte>> stage(static_cast<std::size_t>(k));
  for (std::int64_t j0 = 1; j0 < n; j0 += k) {
    const std::int64_t j1 = std::min<std::int64_t>(n, j0 + k);
    std::vector<mps::SendSpec> sends;
    std::vector<mps::RecvSpec> recvs;
    for (std::int64_t j = j0; j < j1; ++j) {
      if (b == 0) continue;
      const std::int64_t dst = pos_mod(rank + j, n);
      std::vector<std::byte>& in = stage[static_cast<std::size_t>(j - j0)];
      in.resize(static_cast<std::size_t>(b));
      sends.push_back(mps::SendSpec{
          dst, send.subspan(static_cast<std::size_t>(dst * b),
                            static_cast<std::size_t>(b))});
      recvs.push_back(mps::RecvSpec{pos_mod(rank - j, n), in});
    }
    if (!sends.empty()) comm.exchange(round, sends, recvs);
    for (const mps::RecvSpec& r : recvs) {
      op.combine(recv.data(), r.data.data(), b);
    }
    ++round;
  }
  return round;
}

int allreduce_reference(mps::Communicator& comm,
                        std::span<const std::byte> send,
                        std::span<std::byte> recv, const ReduceOp& op,
                        const ReduceReferenceOptions& options) {
  const std::int64_t n = comm.size();
  const std::int64_t rank = comm.rank();
  const std::int64_t bytes = static_cast<std::int64_t>(send.size());
  BRUCK_REQUIRE(static_cast<std::int64_t>(recv.size()) == bytes);
  BRUCK_REQUIRE(bytes % std::max<std::int64_t>(1, op.elem_bytes()) == 0);

  // Ring-circulate all n full vectors, then combine locally in rank order —
  // every rank applies the identical association ((B0 ⊕ B1) ⊕ B2) ⊕ …
  std::vector<std::byte> all(static_cast<std::size_t>(n * bytes));
  if (bytes > 0) {
    std::memcpy(all.data() + rank * bytes, send.data(),
                static_cast<std::size_t>(bytes));
  }
  int round = options.start_round;
  for (std::int64_t t = 0; t + 1 < n; ++t) {
    if (bytes > 0) {
      const std::int64_t fwd = pos_mod(rank - t, n);
      const std::int64_t got = pos_mod(rank - t - 1, n);
      comm.send_and_recv(
          round,
          std::span<const std::byte>(all.data() + fwd * bytes,
                                     static_cast<std::size_t>(bytes)),
          pos_mod(rank + 1, n),
          std::span<std::byte>(all.data() + got * bytes,
                               static_cast<std::size_t>(bytes)),
          pos_mod(rank - 1, n));
    }
    ++round;
  }
  if (bytes > 0) {
    std::memcpy(recv.data(), all.data(), static_cast<std::size_t>(bytes));
    for (std::int64_t i = 1; i < n; ++i) {
      op.combine(recv.data(), all.data() + i * bytes, bytes);
    }
  }
  return round;
}

int concat_via_index(mps::Communicator& comm, std::span<const std::byte> send,
                     std::span<std::byte> recv, std::int64_t block_bytes,
                     const ConcatViaIndexOptions& options) {
  const std::int64_t n = comm.size();
  BRUCK_REQUIRE(block_bytes >= 0);
  BRUCK_REQUIRE(static_cast<std::int64_t>(send.size()) == block_bytes);
  BRUCK_REQUIRE(static_cast<std::int64_t>(recv.size()) == n * block_bytes);

  // B[i, j] := B[i] for all j: replicate the local block n times.
  std::vector<std::byte> replicated(static_cast<std::size_t>(n * block_bytes));
  for (std::int64_t j = 0; j < n; ++j) {
    if (block_bytes > 0) {
      std::memcpy(replicated.data() + j * block_bytes, send.data(),
                  static_cast<std::size_t>(block_bytes));
    }
  }
  // After the index, receive block i = B[i, rank] = B[i]: the concatenation.
  AlltoallOptions index;
  index.algorithm = IndexAlgorithm::kBruck;
  index.radix = options.radix;
  index.start_round = options.start_round;
  index.hier = HierMode::kOff;
  return alltoall(comm, replicated, recv, block_bytes, index);
}

}  // namespace bruck::coll
