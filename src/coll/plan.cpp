#include "coll/plan.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "coll/blocks.hpp"
#include "coll/pack.hpp"
#include "model/tuner.hpp"
#include "topo/binomial.hpp"
#include "topo/partition.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"
#include "util/radix.hpp"

namespace bruck::coll {

namespace {

/// Cells covering whole consecutive blocks [first, first + count).
std::vector<PlanCell> whole_blocks(std::int64_t first, std::int64_t count) {
  std::vector<PlanCell> cells;
  cells.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    cells.push_back(PlanCell{first + i, 0, PlanCell::kWholeBlock});
  }
  return cells;
}

std::vector<PlanCell> one_block(std::int64_t slot) {
  return {PlanCell{slot, 0, PlanCell::kWholeBlock}};
}

}  // namespace

Plan::Plan(PlanCollective collective, std::string algorithm, std::int64_t n,
           int k, std::int64_t block_bytes)
    : collective_(collective),
      algorithm_(std::move(algorithm)),
      n_(n),
      k_(k),
      block_bytes_(block_bytes) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  programs_.resize(static_cast<std::size_t>(n));
}

void Plan::begin_round() {
  for (RankProgram& p : programs_) {
    PlanRound r;
    r.sends_begin = static_cast<std::uint32_t>(p.sends.size());
    r.recvs_begin = static_cast<std::uint32_t>(p.recvs.size());
    p.rounds.push_back(r);
  }
}

void Plan::end_round() {
  for (RankProgram& p : programs_) {
    PlanRound& r = p.rounds.back();
    r.sends_end = static_cast<std::uint32_t>(p.sends.size());
    r.recvs_end = static_cast<std::uint32_t>(p.recvs.size());
  }
  ++round_count_;
}

void Plan::add_message(std::int64_t rank, bool is_send, std::int64_t peer,
                       PlanBuffer buffer, const std::vector<PlanCell>& cells,
                       const std::vector<std::int64_t>& blocks, bool combine) {
  BRUCK_REQUIRE(!cells.empty());
  BRUCK_REQUIRE(peer >= 0 && peer < n_ && peer != rank);
  BRUCK_REQUIRE_MSG(irregular_ == !blocks.empty(),
                    "irregular plans record one occupant-block id per cell; "
                    "uniform plans record none");
  BRUCK_REQUIRE(blocks.empty() || blocks.size() == cells.size());
  BRUCK_REQUIRE_MSG(!combine || !is_send, "only receives may combine");
  BRUCK_REQUIRE_MSG(!combine || collective_ == PlanCollective::kReduce,
                    "combine cells belong to reduction plans");
  PlanMessage m;
  m.peer = peer;
  m.buffer = buffer;
  m.combine = combine;
  m.cells_begin = static_cast<std::uint32_t>(cells_.size());
  cells_.insert(cells_.end(), cells.begin(), cells.end());
  cell_block_.insert(cell_block_.end(), blocks.begin(), blocks.end());
  m.cells_end = static_cast<std::uint32_t>(cells_.size());
  m.contiguous = cells_contiguous(m.cells_begin, m.cells_end);
  RankProgram& p = programs_[static_cast<std::size_t>(rank)];
  (is_send ? p.sends : p.recvs).push_back(m);
}

bool Plan::cells_contiguous(std::uint32_t begin, std::uint32_t end) const {
  if (irregular_) {
    // Sizes and user-buffer displacements resolve at run time; only a
    // single cell is provably one byte run under every shape.
    return end - begin == 1;
  }
  if (block_bytes_ == PlanCell::kWholeBlock) {
    // Block-size-independent plan: a run of whole consecutive blocks is
    // contiguous under every block size.
    for (std::uint32_t i = begin; i < end; ++i) {
      const PlanCell& c = cells_[i];
      if (c.lo != 0 || c.hi != PlanCell::kWholeBlock) return false;
      if (i > begin && c.slot != cells_[i - 1].slot + 1) return false;
    }
    return true;
  }
  const std::int64_t b = block_bytes_;
  for (std::uint32_t i = begin + 1; i < end; ++i) {
    const PlanCell& prev = cells_[i - 1];
    const PlanCell& cur = cells_[i];
    const std::int64_t prev_end =
        prev.slot * b + (prev.hi == PlanCell::kWholeBlock ? b : prev.hi);
    const std::int64_t cur_begin = cur.slot * b + cur.lo;
    if (prev_end != cur_begin) return false;
  }
  return true;
}

std::int64_t Plan::message_bytes(const PlanMessage& m, std::int64_t b) const {
  std::int64_t total = 0;
  for (std::uint32_t i = m.cells_begin; i < m.cells_end; ++i) {
    const PlanCell& c = cells_[i];
    total += c.hi == PlanCell::kWholeBlock ? b : c.hi - c.lo;
  }
  return total;
}

std::int64_t Plan::cell_len(std::uint32_t ci, const Extents& ex) const {
  const PlanCell& c = cells_[ci];
  if (ex.view == nullptr) {
    return c.hi == PlanCell::kWholeBlock ? ex.b : c.hi - c.lo;
  }
  // On-the-wire trimming: the cell's byte range, intersected with the
  // occupant block's true size.
  const std::int64_t size = ex.view->counts[static_cast<std::size_t>(
      cell_block_[ci])];
  const std::int64_t hi =
      c.hi == PlanCell::kWholeBlock ? size : std::min(c.hi, size);
  return std::max<std::int64_t>(0, hi - c.lo);
}

std::int64_t Plan::cell_offset(std::uint32_t ci, PlanBuffer buffer,
                               const Extents& ex) const {
  const PlanCell& c = cells_[ci];
  if (ex.view == nullptr || buffer == PlanBuffer::kScratch) {
    // Uniform stride: the block size, or the padded slot stride.
    return c.slot * ex.b + c.lo;
  }
  const std::span<const std::int64_t> displs =
      buffer == PlanBuffer::kUserSend ? ex.view->send_displs
                                      : ex.view->recv_displs;
  if (displs.empty()) {
    // Concat plans: the user send buffer is this rank's single block.
    return c.slot * ex.b + c.lo;
  }
  return displs[static_cast<std::size_t>(c.slot)] + c.lo;
}

std::int64_t Plan::resolved_message_bytes(const PlanMessage& m,
                                          const Extents& ex) const {
  std::int64_t total = 0;
  for (std::uint32_t i = m.cells_begin; i < m.cells_end; ++i) {
    total += cell_len(i, ex);
  }
  return total;
}

const Layout* Plan::active_layout(PlanBuffer buffer, const Extents& ex) {
  const Layout* lay = nullptr;
  switch (buffer) {
    case PlanBuffer::kUserSend: lay = ex.send_layout; break;
    case PlanBuffer::kUserRecv: lay = ex.recv_layout; break;
    case PlanBuffer::kScratch: return nullptr;
  }
  // A dense layout degenerates to null: the executor then takes exactly the
  // pre-layout code paths (zero-copy subspans, bulk memcpy walks).
  return lay != nullptr && !lay->is_contiguous() ? lay : nullptr;
}

void Plan::append_cell_extents(std::uint32_t ci, PlanBuffer buffer,
                               const Extents& ex,
                               std::vector<ByteExtent>& out) const {
  const std::int64_t len = cell_len(ci, ex);
  const Layout* lay = active_layout(buffer, ex);
  if (lay == nullptr) {
    out.push_back(ByteExtent{cell_offset(ci, buffer, ex), len});
    return;
  }
  const PlanCell& c = cells_[ci];
  // The block's origin byte in the caller buffer: displacement-table for
  // irregular plans, layout-strided for uniform ones.  Cell [lo, hi) byte
  // ranges are *logical* and map through the layout's piece walk.
  std::int64_t origin = 0;
  if (ex.view != nullptr) {
    const std::span<const std::int64_t> displs =
        buffer == PlanBuffer::kUserSend ? ex.view->send_displs
                                        : ex.view->recv_displs;
    origin = displs.empty() ? c.slot * lay->block_stride()
                            : displs[static_cast<std::size_t>(c.slot)];
  } else {
    origin = c.slot * lay->block_stride();
  }
  lay->append_extents(origin, c.lo, c.lo + len, out);
}

void Plan::finalize() {
  BRUCK_REQUIRE_MSG(segments_ >= 1, "segment count must be at least 1");
  needs_scratch_ = prologue_ == PlanPrologue::kRotateSendToScratch ||
                   prologue_ == PlanPrologue::kCopySendToScratch0;
  for (const RankProgram& p : programs_) {
    BRUCK_ENSURE(static_cast<int>(p.rounds.size()) == round_count_);
    for (const PlanMessage& m : p.sends) {
      if (m.buffer == PlanBuffer::kScratch) needs_scratch_ = true;
    }
    for (const PlanMessage& m : p.recvs) {
      if (m.buffer == PlanBuffer::kScratch) needs_scratch_ = true;
      BRUCK_ENSURE_MSG(m.buffer != PlanBuffer::kUserSend,
                       "a receive cannot land in the caller's send buffer");
    }
  }
  compute_pipeline_safety();
  // Validate the pattern under the k-port model using a reference block
  // size (index plans are block-size independent; 1 byte/block suffices).
  const sched::Schedule view = to_schedule(1);
  const std::string err = view.validate();
  BRUCK_ENSURE_MSG(err.empty(), "lowered plan violates the k-port model: " + err);
}

namespace {

/// One cell as a byte interval for the round-dependence analysis.  A
/// kWholeBlock upper bound becomes "rest of the slot", which overlaps any
/// range of the same slot under every block size — exactly the conservative
/// reading a block-size-independent plan needs.  `combine` marks a
/// read-modify-write cell (a reducing receive): two combine-writes commute
/// under the (commutative, associative) operator contract, so they do not
/// conflict with each other — but they conflict with every plain read or
/// write, because a combine both reads and replaces the accumulated value.
struct CellInterval {
  std::uint8_t buf = 0;
  std::int64_t slot = 0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  bool combine = false;

  [[nodiscard]] auto key() const { return std::tie(buf, slot, lo); }
};

bool intervals_conflict(const std::vector<CellInterval>& a,
                        const std::vector<CellInterval>& b) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const auto ka = std::tie(a[i].buf, a[i].slot);
    const auto kb = std::tie(b[j].buf, b[j].slot);
    if (ka < kb) {
      ++i;
    } else if (kb < ka) {
      ++j;
    } else if (a[i].hi <= b[j].lo) {
      ++i;
    } else if (b[j].hi <= a[i].lo) {
      ++j;
    } else if (a[i].combine && b[j].combine) {
      // Overlapping combine-combine pair: commutes.  Advance whichever
      // interval ends first so each can still meet later ones.
      if (a[i].hi <= b[j].hi) {
        ++i;
      } else {
        ++j;
      }
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

void Plan::compute_pipeline_safety() {
  const auto collect = [&](const RankProgram& p, std::uint32_t begin,
                           std::uint32_t end, bool sends_side) {
    std::vector<CellInterval> out;
    for (std::uint32_t m = begin; m < end; ++m) {
      const PlanMessage& msg = sends_side ? p.sends[m] : p.recvs[m];
      for (std::uint32_t c = msg.cells_begin; c < msg.cells_end; ++c) {
        const PlanCell& cell = cells_[c];
        out.push_back(CellInterval{
            static_cast<std::uint8_t>(msg.buffer), cell.slot, cell.lo,
            cell.hi == PlanCell::kWholeBlock
                ? std::numeric_limits<std::int64_t>::max()
                : cell.hi,
            msg.combine});
      }
    }
    std::sort(out.begin(), out.end(),
              [](const CellInterval& x, const CellInterval& y) {
                return x.key() < y.key();
              });
    return out;
  };
  for (RankProgram& p : programs_) {
    p.pipeline_safe.assign(static_cast<std::size_t>(round_count_), 0);
    std::vector<CellInterval> prev_writes;
    for (int i = 0; i < round_count_; ++i) {
      const PlanRound& r = p.rounds[static_cast<std::size_t>(i)];
      const std::vector<CellInterval> reads =
          collect(p, r.sends_begin, r.sends_end, /*sends_side=*/true);
      std::vector<CellInterval> writes =
          collect(p, r.recvs_begin, r.recvs_end, /*sends_side=*/false);
      if (i > 0) {
        p.pipeline_safe[static_cast<std::size_t>(i)] =
            !intervals_conflict(prev_writes, reads) &&
            !intervals_conflict(prev_writes, writes);
      }
      prev_writes = std::move(writes);
    }
  }
}

sched::Schedule Plan::to_schedule(std::int64_t block_bytes) const {
  const std::int64_t b =
      block_bytes_ == PlanCell::kWholeBlock ? block_bytes : block_bytes_;
  sched::Schedule schedule(n_, k_);
  for (int i = 0; i < round_count_; ++i) schedule.add_round();
  for (std::int64_t rank = 0; rank < n_; ++rank) {
    const RankProgram& p = programs_[static_cast<std::size_t>(rank)];
    for (int i = 0; i < round_count_; ++i) {
      const PlanRound& r = p.rounds[static_cast<std::size_t>(i)];
      for (std::uint32_t s = r.sends_begin; s < r.sends_end; ++s) {
        const std::int64_t bytes = message_bytes(p.sends[s], b);
        if (bytes == 0) continue;
        schedule.add_transfer(
            static_cast<std::size_t>(i),
            sched::Transfer{rank, p.sends[s].peer, bytes});
      }
    }
  }
  schedule.normalize();
  return schedule;
}

// ---------------------------------------------------------------------------
// Execution.

namespace {

/// Layout-side buffer check: a buffer holding `nblocks` layout-mapped
/// blocks of logical size `b` must cover the layout's physical span (≥, not
/// ==: strided layouts legitimately live inside larger arrays), and the
/// layout's logical size must match the plan's block size exactly.
void check_layout_buffer(const Layout* lay, std::int64_t buffer_size,
                         std::int64_t nblocks, std::int64_t b) {
  if (lay == nullptr) return;
  BRUCK_REQUIRE_MSG(lay->block_bytes() == b,
                    "layout logical size must equal the block size");
  BRUCK_REQUIRE_MSG(buffer_size >= lay->span_bytes(nblocks),
                    "buffer too small for the layout's physical span");
}

}  // namespace

void Plan::check_run_contract(const mps::Communicator& comm,
                              std::span<const std::byte> send,
                              std::span<std::byte> recv, std::int64_t b,
                              const LayoutPair& layouts) const {
  BRUCK_REQUIRE_MSG(!irregular_,
                    "irregular plans execute through the VectorView overloads");
  BRUCK_REQUIRE_MSG(collective_ != PlanCollective::kReduce,
                    "reduction plans execute through the ReduceOp overloads");
  BRUCK_REQUIRE_MSG(comm.size() == n_, "plan lowered for a different n");
  BRUCK_REQUIRE_MSG(comm.ports() == k_, "plan lowered for a different k");
  BRUCK_REQUIRE(b >= 0);
  const std::int64_t send_blocks = collective_ == PlanCollective::kIndex ||
                                           collective_ == PlanCollective::kScatter
                                       ? n_
                                       : 1;
  const std::int64_t recv_blocks = collective_ == PlanCollective::kScatter ||
                                           collective_ == PlanCollective::kBcast
                                       ? 1
                                       : n_;
  BRUCK_REQUIRE_MSG(!layouts.active() ||
                        collective_ == PlanCollective::kIndex ||
                        collective_ == PlanCollective::kConcat,
                    "layouts are supported for index and concat plans only");
  if (layouts.send != nullptr) {
    check_layout_buffer(layouts.send, static_cast<std::int64_t>(send.size()),
                        send_blocks, b);
  } else {
    BRUCK_REQUIRE(static_cast<std::int64_t>(send.size()) == send_blocks * b);
  }
  if (collective_ == PlanCollective::kConcat) {
    BRUCK_REQUIRE_MSG(b == block_bytes_,
                      "concat plans are lowered per block size");
  }
  if (layouts.recv != nullptr) {
    check_layout_buffer(layouts.recv, static_cast<std::int64_t>(recv.size()),
                        recv_blocks, b);
  } else {
    BRUCK_REQUIRE(static_cast<std::int64_t>(recv.size()) == recv_blocks * b);
  }
}

void Plan::check_reduce_contract(const mps::Communicator& comm,
                                 std::span<const std::byte> send,
                                 std::span<std::byte> recv, std::int64_t b,
                                 const ReduceOp& op,
                                 const LayoutPair& layouts) const {
  BRUCK_REQUIRE_MSG(collective_ == PlanCollective::kReduce,
                    "only reduction plans take a ReduceOp");
  BRUCK_REQUIRE_MSG(comm.size() == n_, "plan lowered for a different n");
  BRUCK_REQUIRE_MSG(comm.ports() == k_, "plan lowered for a different k");
  BRUCK_REQUIRE(b >= 0);
  BRUCK_REQUIRE_MSG(op.elem_bytes() >= 1 && b % op.elem_bytes() == 0,
                    "block size must be a whole number of op elements");
  if (layouts.send != nullptr) {
    check_layout_buffer(layouts.send, static_cast<std::int64_t>(send.size()),
                        n_, b);
  } else {
    BRUCK_REQUIRE(static_cast<std::int64_t>(send.size()) == n_ * b);
  }
  if (layouts.recv != nullptr) {
    check_layout_buffer(layouts.recv, static_cast<std::int64_t>(recv.size()),
                        1, b);
    // Combines trim at layout piece edges; every piece must be a whole
    // number of op elements so the ⊕ never splits an element.
    BRUCK_REQUIRE_MSG(layouts.recv->elem_aligned(op.elem_bytes()),
                      "recv layout blocklen must be a multiple of the op's "
                      "element size");
  } else {
    BRUCK_REQUIRE(static_cast<std::int64_t>(recv.size()) == b);
  }
}

void Plan::check_vector_contract(const mps::Communicator& comm,
                                 std::span<const std::byte> send,
                                 std::span<std::byte> recv,
                                 const VectorView& view,
                                 const LayoutPair& layouts) const {
  BRUCK_REQUIRE_MSG(irregular_,
                    "uniform plans execute through the block_bytes overloads");
  BRUCK_REQUIRE_MSG(comm.size() == n_, "plan lowered for a different n");
  BRUCK_REQUIRE_MSG(comm.ports() == k_, "plan lowered for a different k");
  BRUCK_REQUIRE(view.pad_bytes >= 0);
  BRUCK_REQUIRE_MSG(
      !layouts.active() || collective_ == PlanCollective::kIndex,
      "layouts on irregular plans are supported for index (alltoallv) only");
  if (layouts.send != nullptr) {
    BRUCK_REQUIRE_MSG(layouts.send->block_bytes() >= view.pad_bytes,
                      "send layout must cover the largest block count");
  }
  if (layouts.recv != nullptr) {
    BRUCK_REQUIRE_MSG(layouts.recv->block_bytes() >= view.pad_bytes,
                      "recv layout must cover the largest block count");
  }
  const std::int64_t rank = comm.rank();
  // Under a (non-degenerate) layout a block's displacement is its *origin*
  // and its `len` logical bytes physically end at origin + span_of(len).
  const auto fits = [&](std::span<const std::byte> buf, std::int64_t off,
                        std::int64_t len, const Layout* lay) {
    if (lay != nullptr && !lay->is_contiguous()) {
      return off >= 0 && len >= 0 &&
             off + lay->span_of(len) <=
                 static_cast<std::int64_t>(buf.size());
    }
    return off >= 0 && len >= 0 &&
           off + len <= static_cast<std::int64_t>(buf.size());
  };
  if (collective_ == PlanCollective::kIndex) {
    BRUCK_REQUIRE_MSG(
        static_cast<std::int64_t>(view.counts.size()) == n_ * n_,
        "index plans need the full n*n count matrix");
    BRUCK_REQUIRE(static_cast<std::int64_t>(view.send_displs.size()) == n_);
    BRUCK_REQUIRE(static_cast<std::int64_t>(view.recv_displs.size()) == n_);
    for (std::int64_t j = 0; j < n_; ++j) {
      const std::int64_t out = view.counts[static_cast<std::size_t>(
          rank * n_ + j)];
      const std::int64_t in = view.counts[static_cast<std::size_t>(
          j * n_ + rank)];
      BRUCK_REQUIRE(out >= 0 && out <= view.pad_bytes);
      BRUCK_REQUIRE(in >= 0 && in <= view.pad_bytes);
      BRUCK_REQUIRE_MSG(fits(send, view.send_displs[
                                 static_cast<std::size_t>(j)], out,
                             layouts.send),
                        "send block exceeds the send buffer");
      BRUCK_REQUIRE_MSG(fits(recv, view.recv_displs[
                                 static_cast<std::size_t>(j)], in,
                             layouts.recv),
                        "recv block exceeds the recv buffer");
    }
  } else {
    BRUCK_REQUIRE_MSG(static_cast<std::int64_t>(view.counts.size()) == n_,
                      "concat plans need one count per rank");
    BRUCK_REQUIRE(static_cast<std::int64_t>(view.recv_displs.size()) == n_);
    BRUCK_REQUIRE(static_cast<std::int64_t>(send.size()) ==
                  view.counts[static_cast<std::size_t>(rank)]);
    for (std::int64_t i = 0; i < n_; ++i) {
      const std::int64_t len = view.counts[static_cast<std::size_t>(i)];
      BRUCK_REQUIRE(len >= 0 && len <= view.pad_bytes);
      BRUCK_REQUIRE_MSG(fits(recv, view.recv_displs[
                                 static_cast<std::size_t>(i)], len,
                             layouts.recv),
                        "recv block exceeds the recv buffer");
    }
  }
}

void Plan::apply_prologue(std::span<const std::byte> send,
                          std::span<std::byte> recv,
                          std::span<std::byte> scratch, std::int64_t rank,
                          const Extents& ex) const {
  const std::int64_t b = ex.b;
  const VectorView* v = ex.view;
  const Layout* sl = active_layout(PlanBuffer::kUserSend, ex);
  const Layout* rl = active_layout(PlanBuffer::kUserRecv, ex);
  // Block-granular copy through the layouts: gather `len` logical bytes of
  // send block at src_off and land them at recv block at dst_off, strided
  // on whichever sides carry a layout.  The null/null case is the plain
  // memcpy every pre-layout prologue compiled to.
  const auto copy_block = [&](std::int64_t src_off, std::int64_t dst_off,
                              std::int64_t len) {
    if (len <= 0) return;
    if (sl == nullptr && rl == nullptr) {
      std::memcpy(recv.data() + dst_off, send.data() + src_off,
                  static_cast<std::size_t>(len));
    } else if (sl != nullptr && rl == nullptr) {
      layout_gather(send, *sl, src_off, 0, len,
                    recv.subspan(static_cast<std::size_t>(dst_off),
                                 static_cast<std::size_t>(len)));
    } else if (sl == nullptr) {
      layout_scatter(recv, *rl, dst_off, 0, len,
                     send.subspan(static_cast<std::size_t>(src_off),
                                  static_cast<std::size_t>(len)));
    } else {
      std::vector<std::byte> tmp(static_cast<std::size_t>(len));
      layout_gather(send, *sl, src_off, 0, len, tmp);
      layout_scatter(recv, *rl, dst_off, 0, len, tmp);
    }
  };
  switch (prologue_) {
    case PlanPrologue::kNone:
      break;
    case PlanPrologue::kRotateSendToScratch:
      if (sl != nullptr) {
        // Phase 1 through the layout: gather each rotated send block
        // straight from its strided home into its packed scratch slot —
        // this is where transpose-style geometries shed the staging copy.
        for (std::int64_t s = 0; s < n_; ++s) {
          const std::int64_t j = pos_mod(s + rank, n_);
          const std::int64_t len =
              v != nullptr ? v->counts[static_cast<std::size_t>(rank * n_ + j)]
                           : b;
          const std::int64_t origin =
              v != nullptr ? v->send_displs[static_cast<std::size_t>(j)]
                           : j * sl->block_stride();
          if (len > 0) {
            layout_gather(send, *sl, origin, 0, len,
                          scratch.subspan(static_cast<std::size_t>(s * b),
                                          static_cast<std::size_t>(len)));
          }
        }
      } else if (v != nullptr) {
        // Irregular Phase 1: variable send blocks into max-padded slots.
        std::vector<std::int64_t> row(
            v->counts.begin() + static_cast<std::ptrdiff_t>(rank * n_),
            v->counts.begin() + static_cast<std::ptrdiff_t>((rank + 1) * n_));
        rotate_varblocks_to_padded(send, v->send_displs, row, scratch, b,
                                   rank);
      } else {
        rotate_blocks_up(ConstBlockSpan(send, n_, b),
                         BlockSpan(scratch, n_, b), rank);
      }
      break;
    case PlanPrologue::kCopyOwnBlock: {
      std::int64_t len = b;
      std::int64_t src_off = sl != nullptr ? rank * sl->block_stride()
                                           : rank * b;
      std::int64_t dst_off = rl != nullptr ? rank * rl->block_stride()
                                           : rank * b;
      if (v != nullptr) {
        len = v->counts[static_cast<std::size_t>(rank * n_ + rank)];
        src_off = v->send_displs[static_cast<std::size_t>(rank)];
        dst_off = v->recv_displs[static_cast<std::size_t>(rank)];
      }
      copy_block(src_off, dst_off, len);
      break;
    }
    case PlanPrologue::kCopySendToScratch0: {
      const std::int64_t len =
          v != nullptr ? v->counts[static_cast<std::size_t>(rank)] : b;
      if (len > 0) {
        if (sl != nullptr) {
          layout_gather(send, *sl, 0, 0, len,
                        scratch.subspan(0, static_cast<std::size_t>(len)));
        } else {
          std::memcpy(scratch.data(), send.data(),
                      static_cast<std::size_t>(len));
        }
      }
      break;
    }
    case PlanPrologue::kCopySendToRecvOwnSlot: {
      std::int64_t len = b;
      std::int64_t dst_off = rl != nullptr ? rank * rl->block_stride()
                                           : rank * b;
      if (v != nullptr) {
        len = v->counts[static_cast<std::size_t>(rank)];
        dst_off = v->recv_displs[static_cast<std::size_t>(rank)];
      }
      // The send buffer is this rank's single block at origin 0.
      copy_block(0, dst_off, len);
      break;
    }
    case PlanPrologue::kCopyOwnBlockToRecv0:
      // Reduce: this rank's own contribution seeds the accumulator block.
      copy_block(sl != nullptr ? rank * sl->block_stride() : rank * b,
                 /*dst_off=*/0, b);
      break;
    case PlanPrologue::kCopySendToRecv0AtRoot:
      // Bcast: the root's payload seeds its recv buffer; everyone else
      // receives theirs over the wire.
      if (rank == 0) copy_block(/*src_off=*/0, /*dst_off=*/0, b);
      break;
  }
}

void Plan::apply_epilogue(std::span<std::byte> recv,
                          std::span<const std::byte> scratch,
                          std::int64_t rank, const Extents& ex) const {
  const std::int64_t b = ex.b;
  const VectorView* v = ex.view;
  const Layout* rl = active_layout(PlanBuffer::kUserRecv, ex);
  // Scatter `len` bytes of packed scratch slot `slot` into the recv block
  // at `dst_off` through the recv layout (the layout-path counterpart of
  // the block copies below).
  const auto slot_to_recv = [&](std::int64_t slot, std::int64_t dst_off,
                                std::int64_t len) {
    if (len <= 0) return;
    layout_scatter(recv, *rl, dst_off, 0, len,
                   scratch.subspan(static_cast<std::size_t>(slot * b),
                                   static_cast<std::size_t>(len)));
  };
  switch (epilogue_) {
    case PlanEpilogue::kNone:
      break;
    case PlanEpilogue::kUnrotateByRank:
      if (rl != nullptr) {
        // Phase 3 through the layout: recv block i = scratch slot
        // (rank − i) mod n, landing strided — the inverse of the Phase 1
        // gather, again with no staging copy.
        for (std::int64_t i = 0; i < n_; ++i) {
          const std::int64_t len =
              v != nullptr ? v->counts[static_cast<std::size_t>(i * n_ + rank)]
                           : b;
          const std::int64_t dst_off =
              v != nullptr ? v->recv_displs[static_cast<std::size_t>(i)]
                           : i * rl->block_stride();
          slot_to_recv(pos_mod(rank - i, n_), dst_off, len);
        }
      } else if (v != nullptr) {
        // sizes[i] = bytes rank i sent to this rank (the matrix column).
        std::vector<std::int64_t> col(static_cast<std::size_t>(n_));
        for (std::int64_t i = 0; i < n_; ++i) {
          col[static_cast<std::size_t>(i)] =
              v->counts[static_cast<std::size_t>(i * n_ + rank)];
        }
        unrotate_padded_by_rank(scratch, b, recv, v->recv_displs, col, rank);
      } else {
        unrotate_by_rank(ConstBlockSpan(scratch, n_, b),
                         BlockSpan(recv, n_, b), rank);
      }
      break;
    case PlanEpilogue::kRotateWindowToOrigin:
      if (rl != nullptr) {
        for (std::int64_t t = 0; t < n_; ++t) {
          const std::int64_t i = pos_mod(rank + t, n_);
          slot_to_recv(t, i * rl->block_stride(), b);
        }
      } else if (v != nullptr) {
        rotate_padded_window_to_origin(scratch, b, recv, v->recv_displs,
                                       v->counts, rank);
      } else {
        rotate_window_to_origin(ConstBlockSpan(scratch, n_, b),
                                BlockSpan(recv, n_, b), rank);
      }
      break;
    case PlanEpilogue::kScratchToRecvAtRoot:
      if (rank != 0) break;
      if (rl != nullptr) {
        // Rank 0's gather window is the identity: slot t holds block t.
        for (std::int64_t t = 0; t < n_; ++t) {
          slot_to_recv(t, t * rl->block_stride(), b);
        }
      } else if (v != nullptr) {
        rotate_padded_window_to_origin(scratch, b, recv, v->recv_displs,
                                       v->counts, /*rank=*/0);
      } else if (b > 0) {
        std::memcpy(recv.data(), scratch.data(), recv.size());
      }
      break;
    case PlanEpilogue::kScratch0ToRecv:
      // Reduce Bruck: slot 0 holds the full ⊕-combination for this rank.
      if (rl != nullptr) {
        slot_to_recv(/*slot=*/0, /*dst_off=*/0, b);
      } else if (b > 0) {
        std::memcpy(recv.data(), scratch.data(),
                    static_cast<std::size_t>(b));
      }
      break;
  }
}

namespace {

/// The three run-time buffers of one plan execution, with the
/// PlanBuffer → span mapping the cursor reads through.
struct ExecBuffers {
  std::span<const std::byte> send;
  std::span<std::byte> recv;
  std::span<std::byte> scratch;

  [[nodiscard]] std::span<const std::byte> readable(PlanBuffer buf) const {
    switch (buf) {
      case PlanBuffer::kUserSend: return send;
      case PlanBuffer::kUserRecv: return recv;
      case PlanBuffer::kScratch: return scratch;
    }
    return {};
  }
  [[nodiscard]] std::span<std::byte> writable(PlanBuffer buf) const {
    return buf == PlanBuffer::kScratch ? scratch : recv;
  }
};

}  // namespace

std::vector<std::byte> Plan::pack_message(const PlanMessage& m,
                                          std::span<const std::byte> src,
                                          const Extents& ex) const {
  if (ex.view != nullptr || active_layout(m.buffer, ex) != nullptr) {
    // Irregular and/or layout-mapped: materialize the variable-extent cell
    // map and gather through pack.hpp — its bounds checks guard the
    // run-time-resolved offsets and trimmed lengths.  Layout cells expand
    // to the layout's piece walk, so the strided user buffer feeds the
    // wire directly with no staging copy.  Only these messages pay for the
    // extent list; the uniform-contiguous hot path is below.
    std::vector<ByteExtent> extents;
    extents.reserve(m.cells_end - m.cells_begin);
    std::int64_t total = 0;
    for (std::uint32_t c = m.cells_begin; c < m.cells_end; ++c) {
      total += cell_len(c, ex);
      append_cell_extents(c, m.buffer, ex, extents);
    }
    std::vector<std::byte> out(static_cast<std::size_t>(total));
    gather_extents(src, extents, out);
    return out;
  }
  // Uniform: a direct walk with no extent list (the hot path).
  const std::int64_t b = ex.b;
  std::vector<std::byte> out(static_cast<std::size_t>(message_bytes(m, b)));
  std::size_t pos = 0;
  for (std::uint32_t c = m.cells_begin; c < m.cells_end; ++c) {
    const PlanCell& cell = cells_[c];
    const std::int64_t len =
        cell.hi == PlanCell::kWholeBlock ? b : cell.hi - cell.lo;
    std::memcpy(out.data() + pos, src.data() + cell.slot * b + cell.lo,
                static_cast<std::size_t>(len));
    pos += static_cast<std::size_t>(len);
  }
  return out;
}

void Plan::scatter_message(const PlanMessage& m, std::span<std::byte> dst,
                           const std::byte* data, const Extents& ex) const {
  if (m.combine) {
    // Reduce-on-receive: ⊕-combine the payload into the cells instead of
    // overwriting.  Runs on the receiving rank's thread only, so the
    // read-modify-write needs no synchronization.
    BRUCK_ENSURE_MSG(ex.op != nullptr,
                     "reduction plans execute with a ReduceOp");
    if (active_layout(m.buffer, ex) != nullptr) {
      // Combine straight into the strided accumulator, one layout piece at
      // a time (each a whole number of op elements per the reduce
      // contract) — no contiguous shadow accumulator.
      std::vector<ByteExtent> extents;
      for (std::uint32_t c = m.cells_begin; c < m.cells_end; ++c) {
        append_cell_extents(c, m.buffer, ex, extents);
      }
      std::int64_t pos = 0;
      for (const ByteExtent& e : extents) {
        ex.op->combine(dst.data() + e.offset, data + pos, e.bytes);
        pos += e.bytes;
      }
      return;
    }
    const std::int64_t b = ex.b;
    std::size_t pos = 0;
    for (std::uint32_t c = m.cells_begin; c < m.cells_end; ++c) {
      const PlanCell& cell = cells_[c];
      const std::int64_t len =
          cell.hi == PlanCell::kWholeBlock ? b : cell.hi - cell.lo;
      ex.op->combine(dst.data() + cell.slot * b + cell.lo, data + pos, len);
      pos += static_cast<std::size_t>(len);
    }
    return;
  }
  if (ex.view != nullptr || active_layout(m.buffer, ex) != nullptr) {
    std::vector<ByteExtent> extents;
    extents.reserve(m.cells_end - m.cells_begin);
    std::int64_t total = 0;
    for (std::uint32_t c = m.cells_begin; c < m.cells_end; ++c) {
      total += cell_len(c, ex);
      append_cell_extents(c, m.buffer, ex, extents);
    }
    scatter_extents(dst, extents,
                    std::span<const std::byte>(
                        data, static_cast<std::size_t>(total)));
    return;
  }
  const std::int64_t b = ex.b;
  std::size_t pos = 0;
  for (std::uint32_t c = m.cells_begin; c < m.cells_end; ++c) {
    const PlanCell& cell = cells_[c];
    const std::int64_t len =
        cell.hi == PlanCell::kWholeBlock ? b : cell.hi - cell.lo;
    std::memcpy(dst.data() + cell.slot * b + cell.lo, data + pos,
                static_cast<std::size_t>(len));
    pos += static_cast<std::size_t>(len);
  }
}

PlanExecution Plan::run_pipelined(mps::Communicator& comm,
                                  std::span<const std::byte> send,
                                  std::span<std::byte> recv,
                                  std::int64_t block_bytes, int start_round,
                                  const LayoutPair& layouts) const {
  check_run_contract(comm, send, recv, block_bytes, layouts);
  return run_pipelined_impl(comm, send, recv,
                            Extents{block_bytes, nullptr, nullptr,
                                    layouts.send, layouts.recv},
                            start_round);
}

PlanExecution Plan::run_pipelined(mps::Communicator& comm,
                                  std::span<const std::byte> send,
                                  std::span<std::byte> recv,
                                  const VectorView& view, int start_round,
                                  const LayoutPair& layouts) const {
  check_vector_contract(comm, send, recv, view, layouts);
  return run_pipelined_impl(comm, send, recv,
                            Extents{view.pad_bytes, &view, nullptr,
                                    layouts.send, layouts.recv},
                            start_round);
}

PlanExecution Plan::run_pipelined(mps::Communicator& comm,
                                  std::span<const std::byte> send,
                                  std::span<std::byte> recv,
                                  std::int64_t block_bytes, const ReduceOp& op,
                                  int start_round,
                                  const LayoutPair& layouts) const {
  check_reduce_contract(comm, send, recv, block_bytes, op, layouts);
  return run_pipelined_impl(comm, send, recv,
                            Extents{block_bytes, nullptr, &op, layouts.send,
                                    layouts.recv},
                            start_round);
}

PlanExecution Plan::run_pipelined_impl(mps::Communicator& comm,
                                       std::span<const std::byte> send,
                                       std::span<std::byte> recv,
                                       const Extents& ex,
                                       int start_round) const {
  // The single-tenant driving loop of the resumable cursor: post what's
  // postable, block on the engine's completion stream, feed completions
  // back, repeat.
  PlanCursor cursor(shared_from_this(), comm, send, recv, ex, start_round,
                    /*tag=*/0);
  while (!cursor.done()) {
    (void)cursor.post_ready();
    if (cursor.done()) break;
    BRUCK_ENSURE_MSG(cursor.outstanding() > 0,
                     "pipelined cursor stalled with nothing in flight");
    // on_complete rejects a handle the cursor did not post.
    cursor.on_complete(comm.wait_any_recv());
  }
  // Native engines are fully drained here; the deferred fallback may still
  // hold posted sends of receive-less rounds — flush them.
  comm.wait_all_recvs();
  return cursor.result();
}

// ---------------------------------------------------------------------------
// PlanCursor: the pipelined executor's state machine, resumable.

PlanCursor::PlanCursor(std::shared_ptr<const Plan> plan,
                       mps::Communicator& comm,
                       std::span<const std::byte> send,
                       std::span<std::byte> recv, const Plan::Extents& ex,
                       int start_round, int tag)
    : plan_(std::move(plan)),
      comm_(&comm),
      send_(send),
      recv_(recv),
      ex_(ex),
      start_round_(start_round),
      tag_(tag),
      rounds_(plan_->round_count_) {
  BRUCK_REQUIRE(tag >= 0);
  scratch_.resize(plan_->needs_scratch_
                      ? static_cast<std::size_t>(plan_->n_ * ex_.b)
                      : 0);
  plan_->apply_prologue(send_, recv_, scratch_, comm_->rank(), ex_);
  open_.assign(static_cast<std::size_t>(rounds_), 0);
  out_.next_round = start_round_ + rounds_;
  advance_frontier();  // zero-round plans complete immediately
}

PlanCursor::PlanCursor(std::shared_ptr<const Plan> plan,
                       mps::Communicator& comm,
                       std::span<const std::byte> send,
                       std::span<std::byte> recv, std::int64_t block_bytes,
                       int start_round, int tag, const LayoutPair& layouts)
    : PlanCursor(
          (plan->check_run_contract(comm, send, recv, block_bytes, layouts),
           std::move(plan)),
          comm, send, recv,
          Plan::Extents{block_bytes, nullptr, nullptr, layouts.send,
                        layouts.recv},
          start_round, tag) {}

PlanCursor::PlanCursor(std::shared_ptr<const Plan> plan,
                       mps::Communicator& comm,
                       std::span<const std::byte> send,
                       std::span<std::byte> recv, std::int64_t block_bytes,
                       const ReduceOp& op, int start_round, int tag,
                       const LayoutPair& layouts)
    : PlanCursor((plan->check_reduce_contract(comm, send, recv, block_bytes,
                                              op, layouts),
                  std::move(plan)),
                 comm, send, recv,
                 Plan::Extents{block_bytes, nullptr, &op, layouts.send,
                               layouts.recv},
                 start_round, tag) {}

PlanCursor::PlanCursor(std::shared_ptr<const Plan> plan,
                       mps::Communicator& comm,
                       std::span<const std::byte> send,
                       std::span<std::byte> recv, const VectorView& view,
                       int start_round, int tag, const LayoutPair& layouts)
    : PlanCursor((plan->check_vector_contract(comm, send, recv, view,
                                              layouts),
                  std::move(plan)),
                 comm, send, recv,
                 Plan::Extents{view.pad_bytes, &view, nullptr, layouts.send,
                               layouts.recv},
                 start_round, tag) {}

bool PlanCursor::postable(int i) const {
  // The double-buffered posting discipline: round i may overlap round
  // i−1 only when the lowering proved them independent; otherwise the pipeline drains first (true data dependence
  // — e.g. concat Bruck re-sends what it just received).  At most two
  // rounds are ever in flight.
  if (i == 0) return true;
  const Plan::RankProgram& prog =
      plan_->programs_[static_cast<std::size_t>(comm_->rank())];
  return prog.pipeline_safe[static_cast<std::size_t>(i)] ? drained_ >= i - 1
                                                         : drained_ >= i;
}

void PlanCursor::post_round(int i) {
  const Plan& plan = *plan_;
  const ExecBuffers buffers{send_, recv_, scratch_};
  const Plan::RankProgram& prog =
      plan.programs_[static_cast<std::size_t>(comm_->rank())];
  const PlanRound& round = prog.rounds[static_cast<std::size_t>(i)];
  // Per-message wire segmentation: the plan-wide knob, floored so no
  // segment drops under model::kMinSegmentBytes (the small early-round
  // messages of a geometrically growing pattern ship whole).  Sender and
  // receiver derive the same count from the same plan and byte size.
  const auto segments_for = [&](std::int64_t bytes) {
    return static_cast<int>(std::min<std::int64_t>(
        plan.segments_,
        std::max<std::int64_t>(1, bytes / model::kMinSegmentBytes)));
  };
  // Pack and post sends first (reference semantics: a round's sends read
  // the state before its receives land).  Payloads are captured at post
  // time — packed messages move their staging buffer onto the wire — so
  // the source buffers are free for later writes immediately.
  for (std::uint32_t s = round.sends_begin; s < round.sends_end; ++s) {
    const PlanMessage& m = prog.sends[s];
    const std::int64_t bytes = plan.resolved_message_bytes(m, ex_);
    if (bytes == 0) continue;
    if (m.contiguous && Plan::active_layout(m.buffer, ex_) == nullptr) {
      comm_->post_send(start_round_ + i, m.peer,
                       buffers.readable(m.buffer)
                           .subspan(static_cast<std::size_t>(plan.cell_offset(
                                        m.cells_begin, m.buffer, ex_)),
                                    static_cast<std::size_t>(bytes)),
                       segments_for(bytes), tag_);
    } else {
      comm_->post_send(start_round_ + i, m.peer,
                       plan.pack_message(m, buffers.readable(m.buffer), ex_),
                       segments_for(bytes), tag_);
    }
    out_.bytes_sent += bytes;
  }
  for (std::uint32_t r = round.recvs_begin; r < round.recvs_end; ++r) {
    const PlanMessage& m = prog.recvs[r];
    const std::int64_t bytes = plan.resolved_message_bytes(m, ex_);
    if (bytes == 0) continue;
    mps::PortHandle h = 0;
    bool take_buffer = false;
    if (m.contiguous && !m.combine &&
        Plan::active_layout(m.buffer, ex_) == nullptr) {
      // Land in place: segments stream straight into the target buffer.
      h = comm_->post_recv(start_round_ + i, m.peer,
                           buffers.writable(m.buffer)
                               .subspan(static_cast<std::size_t>(
                                            plan.cell_offset(m.cells_begin,
                                                             m.buffer, ex_)),
                                        static_cast<std::size_t>(bytes)),
                           segments_for(bytes), tag_);
    } else {
      // Scatter (or combine) target: consume the wire buffer itself on
      // completion instead of staging a copy.  Combine receives must be
      // buffered — the ⊕ into the accumulator happens at completion, on
      // this rank's thread, fused into the eager out-of-order path.
      h = comm_->post_recv_buffer(start_round_ + i, m.peer, bytes,
                                  segments_for(bytes), tag_);
      take_buffer = true;
      if (m.combine) out_.bytes_reduced += bytes;
    }
    posted_.emplace(h, Posted{&m, i, take_buffer});
    ++open_[static_cast<std::size_t>(i)];
    new_handles_.push_back(h);
  }
}

void PlanCursor::advance_frontier() {
  while (drained_ < next_post_ &&
         open_[static_cast<std::size_t>(drained_)] == 0) {
    ++drained_;
  }
  if (!done_ && drained_ == rounds_ && next_post_ == rounds_) {
    plan_->apply_epilogue(recv_, scratch_, comm_->rank(), ex_);
    done_ = true;
  }
}

std::vector<mps::PortHandle> PlanCursor::post_ready() {
  new_handles_.clear();
  while (next_post_ < rounds_ && postable(next_post_)) {
    post_round(next_post_);
    ++next_post_;
    advance_frontier();  // receive-less rounds drain at post
  }
  return std::move(new_handles_);
}

void PlanCursor::on_complete(mps::PortHandle h) {
  const auto it = posted_.find(h);
  BRUCK_REQUIRE_MSG(it != posted_.end(),
                    "completion handed to a cursor that does not own it");
  const Posted rec = it->second;
  posted_.erase(it);
  if (rec.take_buffer) {
    const ExecBuffers buffers{send_, recv_, scratch_};
    const std::span<const std::byte> payload = comm_->take_payload(h);
    plan_->scatter_message(*rec.message,
                           buffers.writable(rec.message->buffer),
                           payload.data(), ex_);
  }
  --open_[static_cast<std::size_t>(rec.round)];
  advance_frontier();
}

const PlanExecution& PlanCursor::result() const {
  BRUCK_REQUIRE_MSG(done_, "cursor result read before completion");
  return out_;
}

// ---------------------------------------------------------------------------
// Lowering: the one executable definition of each algorithm (the paper
// phases are described on the declarations in plan.hpp).  Each round list
// is checked transfer-for-transfer against its independently derived
// sched/ builder.

std::shared_ptr<const Plan> Plan::lower_index_bruck(std::int64_t n, int k,
                                                    std::int64_t radix,
                                                    int segments) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  BRUCK_REQUIRE_MSG(radix >= 2 && radix <= std::max<std::int64_t>(2, n),
                    "radix must be in [2, max(2, n)]");
  auto plan = std::shared_ptr<Plan>(new Plan(
      PlanCollective::kIndex, "bruck(r=" + std::to_string(radix) + ")", n, k,
      PlanCell::kWholeBlock));
  plan->segments_ = segments;
  plan->prologue_ = PlanPrologue::kRotateSendToScratch;
  plan->epilogue_ = PlanEpilogue::kUnrotateByRank;

  const std::int64_t r = radix;
  const int w = radix_digit_count(n, r);
  for (int x = 0; x < w; ++x) {
    const std::int64_t dist = ipow(r, x);
    const std::int64_t h = radix_subphase_height(n, r, x);
    for (std::int64_t z0 = 1; z0 < h; z0 += k) {
      const std::int64_t z1 = std::min<std::int64_t>(h, z0 + k);
      plan->begin_round();
      for (std::int64_t z = z0; z < z1; ++z) {
        const std::vector<std::int64_t> members =
            radix_digit_members(n, r, x, z);
        std::vector<PlanCell> cells;
        cells.reserve(members.size());
        for (const std::int64_t slot : members) {
          cells.push_back(PlanCell{slot, 0, PlanCell::kWholeBlock});
        }
        for (std::int64_t rank = 0; rank < n; ++rank) {
          const std::int64_t dst = pos_mod(rank + z * dist, n);
          const std::int64_t src = pos_mod(rank - z * dist, n);
          plan->add_message(rank, /*is_send=*/true, dst, PlanBuffer::kScratch,
                            cells);
          plan->add_message(rank, /*is_send=*/false, src, PlanBuffer::kScratch,
                            cells);
        }
      }
      plan->end_round();
    }
  }
  plan->finalize();
  return plan;
}

std::shared_ptr<const Plan> Plan::lower_index_direct(std::int64_t n, int k,
                                                     int segments) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  auto plan = std::shared_ptr<Plan>(
      new Plan(PlanCollective::kIndex, "direct", n, k, PlanCell::kWholeBlock));
  plan->segments_ = segments;
  plan->prologue_ = PlanPrologue::kCopyOwnBlock;

  for (std::int64_t j0 = 1; j0 < n; j0 += k) {
    const std::int64_t j1 = std::min<std::int64_t>(n, j0 + k);
    plan->begin_round();
    for (std::int64_t j = j0; j < j1; ++j) {
      for (std::int64_t rank = 0; rank < n; ++rank) {
        const std::int64_t dst = pos_mod(rank + j, n);
        const std::int64_t src = pos_mod(rank - j, n);
        plan->add_message(rank, true, dst, PlanBuffer::kUserSend,
                          one_block(dst));
        plan->add_message(rank, false, src, PlanBuffer::kUserRecv,
                          one_block(src));
      }
    }
    plan->end_round();
  }
  plan->finalize();
  return plan;
}

std::shared_ptr<const Plan> Plan::lower_index_pairwise(std::int64_t n, int k,
                                                       int segments) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  BRUCK_REQUIRE_MSG(is_pow2(n), "pairwise exchange requires a power-of-two n");
  auto plan = std::shared_ptr<Plan>(new Plan(PlanCollective::kIndex, "pairwise",
                                             n, k, PlanCell::kWholeBlock));
  plan->segments_ = segments;
  plan->prologue_ = PlanPrologue::kCopyOwnBlock;

  for (std::int64_t j0 = 1; j0 < n; j0 += k) {
    const std::int64_t j1 = std::min<std::int64_t>(n, j0 + k);
    plan->begin_round();
    for (std::int64_t j = j0; j < j1; ++j) {
      for (std::int64_t rank = 0; rank < n; ++rank) {
        const std::int64_t peer = rank ^ j;
        plan->add_message(rank, true, peer, PlanBuffer::kUserSend,
                          one_block(peer));
        plan->add_message(rank, false, peer, PlanBuffer::kUserRecv,
                          one_block(peer));
      }
    }
    plan->end_round();
  }
  plan->finalize();
  return plan;
}

// ---------------------------------------------------------------------------
// Reduction lowering.  Reduce-scatter's communication skeleton is the index
// pattern with combining: every receive carries the combine flag and the
// executor ⊕-combines its payload into the cells instead of overwriting.
// Plans are block-size and op independent (cells are whole blocks; the
// operator arrives at run time through the ReduceOp overloads).

std::shared_ptr<const Plan> Plan::lower_reduce_direct(std::int64_t n, int k,
                                                      int segments) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  auto plan = std::shared_ptr<Plan>(new Plan(
      PlanCollective::kReduce, "direct", n, k, PlanCell::kWholeBlock));
  plan->segments_ = segments;
  plan->prologue_ = PlanPrologue::kCopyOwnBlockToRecv0;

  // Ring-distance steps grouped k per round; every receive combines into
  // the single accumulator block (recv slot 0).  All rounds are mutually
  // pipeline-safe: sends read the untouched user send buffer and the
  // combine-writes commute.
  for (std::int64_t j0 = 1; j0 < n; j0 += k) {
    const std::int64_t j1 = std::min<std::int64_t>(n, j0 + k);
    plan->begin_round();
    for (std::int64_t j = j0; j < j1; ++j) {
      for (std::int64_t rank = 0; rank < n; ++rank) {
        const std::int64_t dst = pos_mod(rank + j, n);
        const std::int64_t src = pos_mod(rank - j, n);
        plan->add_message(rank, true, dst, PlanBuffer::kUserSend,
                          one_block(dst));
        plan->add_message(rank, false, src, PlanBuffer::kUserRecv,
                          one_block(0), {}, /*combine=*/true);
      }
    }
    plan->end_round();
  }
  plan->finalize();
  return plan;
}

std::shared_ptr<const Plan> Plan::lower_reduce_pairwise(std::int64_t n, int k,
                                                        int segments) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  BRUCK_REQUIRE_MSG(is_pow2(n), "pairwise exchange requires a power-of-two n");
  auto plan = std::shared_ptr<Plan>(new Plan(
      PlanCollective::kReduce, "pairwise", n, k, PlanCell::kWholeBlock));
  plan->segments_ = segments;
  plan->prologue_ = PlanPrologue::kCopyOwnBlockToRecv0;

  for (std::int64_t j0 = 1; j0 < n; j0 += k) {
    const std::int64_t j1 = std::min<std::int64_t>(n, j0 + k);
    plan->begin_round();
    for (std::int64_t j = j0; j < j1; ++j) {
      for (std::int64_t rank = 0; rank < n; ++rank) {
        const std::int64_t peer = rank ^ j;
        plan->add_message(rank, true, peer, PlanBuffer::kUserSend,
                          one_block(peer));
        plan->add_message(rank, false, peer, PlanBuffer::kUserRecv,
                          one_block(0), {}, /*combine=*/true);
      }
    }
    plan->end_round();
  }
  plan->finalize();
  return plan;
}

std::shared_ptr<const Plan> Plan::lower_reduce_bruck(std::int64_t n, int k,
                                                     std::int64_t radix,
                                                     int segments) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  BRUCK_REQUIRE_MSG(radix >= 2 && radix <= std::max<std::int64_t>(2, n),
                    "radix must be in [2, max(2, n)]");
  auto plan = std::shared_ptr<Plan>(new Plan(
      PlanCollective::kReduce, "bruck(r=" + std::to_string(radix) + ")", n, k,
      PlanCell::kWholeBlock));
  plan->segments_ = segments;
  plan->prologue_ = PlanPrologue::kRotateSendToScratch;
  plan->epilogue_ = PlanEpilogue::kScratch0ToRecv;

  // The index Bruck skeleton run in reverse with combining.  After the
  // rotation prologue, scratch slot s at rank ρ holds the partial sum of
  // contributions destined to rank (ρ + s) mod n — the slot index is the
  // remaining ring distance.  Digits are processed high → low: the digit-x
  // step z ships the live slots {z·r^x + t : t < min(r^x, n − z·r^x)} to
  // rank ρ + z·r^x, which combines them into slots {t} (distance shrunk by
  // z·r^x).  Once every digit is cleared, slot 0 holds the full reduction.
  // Per-rank volume is exactly n−1 blocks; the round structure (C1) equals
  // the forward index algorithm's.  Within a subphase the z-steps only
  // combine-write the shared {t} prefix, so they pipeline; across subphases
  // the sends read what the previous subphase combined, so the pipeline
  // drains — mirroring compute_pipeline_safety's verdict.
  const std::int64_t r = radix;
  const int w = radix_digit_count(n, r);
  for (int x = w - 1; x >= 0; --x) {
    const std::int64_t dist = ipow(r, x);
    const std::int64_t h = radix_subphase_height(n, r, x);
    for (std::int64_t z0 = 1; z0 < h; z0 += k) {
      const std::int64_t z1 = std::min<std::int64_t>(h, z0 + k);
      plan->begin_round();
      for (std::int64_t z = z0; z < z1; ++z) {
        const std::int64_t count =
            std::min<std::int64_t>(dist, n - z * dist);
        BRUCK_ENSURE(count >= 1);
        const std::vector<PlanCell> send_cells =
            whole_blocks(z * dist, count);
        const std::vector<PlanCell> recv_cells = whole_blocks(0, count);
        for (std::int64_t rank = 0; rank < n; ++rank) {
          const std::int64_t dst = pos_mod(rank + z * dist, n);
          const std::int64_t src = pos_mod(rank - z * dist, n);
          plan->add_message(rank, /*is_send=*/true, dst, PlanBuffer::kScratch,
                            send_cells);
          plan->add_message(rank, /*is_send=*/false, src,
                            PlanBuffer::kScratch, recv_cells, {},
                            /*combine=*/true);
        }
      }
      plan->end_round();
    }
  }
  plan->finalize();
  return plan;
}

std::shared_ptr<const Plan> Plan::lower_concat_bruck(
    std::int64_t n, int k, std::int64_t block_bytes,
    model::ConcatLastRound strategy, int segments) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  BRUCK_REQUIRE(block_bytes >= 0);
  BRUCK_REQUIRE_MSG(strategy != model::ConcatLastRound::kAuto,
                    "resolve kAuto before lowering (plan keys are canonical)");
  const std::int64_t b = block_bytes;
  auto plan = std::shared_ptr<Plan>(
      new Plan(PlanCollective::kConcat, "bruck", n, k, b));
  plan->segments_ = segments;
  plan->prologue_ = PlanPrologue::kCopySendToScratch0;
  plan->epilogue_ = PlanEpilogue::kRotateWindowToOrigin;
  if (n == 1 || b == 0) {
    // Pattern is vacuous; prologue + epilogue alone realize the copy.
    plan->finalize();
    return plan;
  }

  const int d = ceil_log(n, k + 1);
  const std::int64_t n1 = ipow(k + 1, d - 1);
  const std::int64_t n2 = n - n1;

  // Full rounds: the window of cur blocks goes to the k nodes at −j·cur.
  std::int64_t cur = 1;
  for (int i = 0; i + 1 < d; ++i) {
    plan->begin_round();
    for (std::int64_t rank = 0; rank < n; ++rank) {
      for (int j = 1; j <= k; ++j) {
        plan->add_message(rank, true, pos_mod(rank - j * cur, n),
                          PlanBuffer::kScratch, whole_blocks(0, cur));
        plan->add_message(rank, false, pos_mod(rank + j * cur, n),
                          PlanBuffer::kScratch, whole_blocks(j * cur, cur));
      }
    }
    plan->end_round();
    cur *= (k + 1);
  }
  BRUCK_ENSURE(cur == n1);

  // Last round(s): a table partition ships the remaining n2 block-columns,
  // one area per port (Section 4.2); cells are byte-granular.
  const auto emit_partition = [&](const topo::TablePartition& part) {
    plan->begin_round();
    for (std::size_t m = 0; m < part.areas.size(); ++m) {
      const topo::Area& area = part.areas[m];
      const std::int64_t offset = n1 + area.left_col();
      std::vector<PlanCell> send_cells;
      std::vector<PlanCell> recv_cells;
      send_cells.reserve(area.cells.size());
      recv_cells.reserve(area.cells.size());
      for (const topo::AreaCell& cell : area.cells) {
        const std::int64_t slot = cell.col - area.left_col();
        BRUCK_ENSURE_MSG(slot >= 0 && slot < n1,
                         "area references a block outside the sender's window "
                         "(span constraint violated)");
        send_cells.push_back(PlanCell{slot, cell.row_begin, cell.row_end});
        recv_cells.push_back(
            PlanCell{n1 + cell.col, cell.row_begin, cell.row_end});
      }
      for (std::int64_t rank = 0; rank < n; ++rank) {
        plan->add_message(rank, true, pos_mod(rank - offset, n),
                          PlanBuffer::kScratch, send_cells);
        plan->add_message(rank, false, pos_mod(rank + offset, n),
                          PlanBuffer::kScratch, recv_cells);
      }
    }
    plan->end_round();
  };

  if (n2 > 0) {
    switch (strategy) {
      case model::ConcatLastRound::kByteSplit: {
        const topo::TablePartition part =
            topo::byte_split_partition(n1, n2, b, k);
        BRUCK_REQUIRE_MSG(
            part.feasible(),
            "byte-split partition infeasible for this (n, k, b); use "
            "kColumnGranular, kTwoRound or kAuto");
        emit_partition(part);
        break;
      }
      case model::ConcatLastRound::kColumnGranular: {
        const topo::TablePartition part =
            topo::column_granular_partition(n1, n2, b, k);
        BRUCK_ENSURE(part.max_span() <= n1);
        BRUCK_ENSURE(part.max_size() <= part.alpha() + b - 1);
        emit_partition(part);
        break;
      }
      case model::ConcatLastRound::kTwoRound: {
        if (n2 <= k) {
          const topo::TablePartition part =
              topo::column_granular_partition(n1, n2, b, k);
          BRUCK_ENSURE(part.max_span() <= n1);
          BRUCK_ENSURE(part.max_size() <= b);
          emit_partition(part);
        } else {
          const topo::TablePartition part_a =
              topo::byte_split_partition(n1, n2 - k, b, k);
          BRUCK_ENSURE_MSG(part_a.feasible(),
                           "two-round round A must always be feasible");
          emit_partition(part_a);
          topo::TablePartition part_b{n1, n2, b, k, {}};
          for (std::int64_t c = n2 - k; c < n2; ++c) {
            topo::Area area;
            area.cells.push_back(topo::AreaCell{c, 0, b});
            part_b.areas.push_back(std::move(area));
          }
          emit_partition(part_b);
        }
        break;
      }
      case model::ConcatLastRound::kAuto:
        BRUCK_ENSURE_MSG(false, "unreachable: kAuto rejected above");
    }
  }
  plan->finalize();
  return plan;
}

std::shared_ptr<const Plan> Plan::lower_concat_folklore(
    std::int64_t n, int k, std::int64_t block_bytes, int segments) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  BRUCK_REQUIRE(block_bytes >= 0);
  // One-port algorithm on a k-port fabric: one message per round per rank.
  auto plan = std::shared_ptr<Plan>(
      new Plan(PlanCollective::kConcat, "folklore", n, k, block_bytes));
  plan->segments_ = segments;
  plan->prologue_ = PlanPrologue::kCopySendToScratch0;
  plan->epilogue_ = PlanEpilogue::kScratchToRecvAtRoot;
  if (n == 1 || block_bytes == 0) {
    plan->finalize();
    return plan;
  }
  const int d = ceil_log(n, 2);

  // Gather phase: rank r accumulates the linear segment [r, r + seg).
  for (int i = 0; i < d; ++i) {
    const std::int64_t stride = ipow(2, i);
    plan->begin_round();
    for (std::int64_t rank = 0; rank < n; ++rank) {
      if (pos_mod(rank, 2 * stride) == stride) {
        const std::int64_t seg = topo::binomial_gather_segment(n, rank, i);
        plan->add_message(rank, true, rank - stride, PlanBuffer::kScratch,
                          whole_blocks(0, seg));
      } else if (pos_mod(rank, 2 * stride) == 0 && rank + stride < n) {
        const std::int64_t seg =
            topo::binomial_gather_segment(n, rank + stride, i);
        plan->add_message(rank, false, rank + stride, PlanBuffer::kScratch,
                          whole_blocks(stride, seg));
      }
    }
    plan->end_round();
  }

  // Broadcast phase: rank 0 pushes the full concatenation down the reversed
  // tree.  Rank 0 sends from its gather staging; every other rank receives
  // into (and forwards from) the user recv buffer.
  for (int j = 0; j < d; ++j) {
    const std::int64_t stride = ipow(2, d - 1 - j);
    plan->begin_round();
    for (std::int64_t rank = 0; rank < n; ++rank) {
      if (pos_mod(rank, 2 * stride) == 0 && rank + stride < n) {
        plan->add_message(
            rank, true, rank + stride,
            rank == 0 ? PlanBuffer::kScratch : PlanBuffer::kUserRecv,
            whole_blocks(0, n));
      } else if (pos_mod(rank, 2 * stride) == stride) {
        plan->add_message(rank, false, rank - stride, PlanBuffer::kUserRecv,
                          whole_blocks(0, n));
      }
    }
    plan->end_round();
  }
  plan->finalize();
  return plan;
}

std::shared_ptr<const Plan> Plan::lower_concat_ring(std::int64_t n, int k,
                                                    std::int64_t block_bytes,
                                                    int segments) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  BRUCK_REQUIRE(block_bytes >= 0);
  auto plan = std::shared_ptr<Plan>(
      new Plan(PlanCollective::kConcat, "ring", n, k, block_bytes));
  plan->segments_ = segments;
  plan->prologue_ = PlanPrologue::kCopySendToRecvOwnSlot;
  if (n == 1 || block_bytes == 0) {
    plan->finalize();
    return plan;
  }

  for (std::int64_t t = 0; t < n - 1; ++t) {
    plan->begin_round();
    for (std::int64_t rank = 0; rank < n; ++rank) {
      const std::int64_t succ = pos_mod(rank + 1, n);
      const std::int64_t pred = pos_mod(rank - 1, n);
      plan->add_message(rank, true, succ, PlanBuffer::kUserRecv,
                        one_block(pos_mod(rank - t, n)));
      plan->add_message(rank, false, pred, PlanBuffer::kUserRecv,
                        one_block(pos_mod(rank - t - 1, n)));
    }
    plan->end_round();
  }
  plan->finalize();
  return plan;
}

// ---------------------------------------------------------------------------
// Rooted lowering.  The intra-group stages of the hierarchical composite
// plans.  Root is always rank 0 (group leaders sit at sub-communicator rank
// 0), so none of the relative-rank rotations of the inline primitives
// (gather_scatter.cpp, bcast.cpp) are needed — but the round/peer/segment
// structure mirrors them exactly, so the existing cost formulas price these
// plans without change.

std::shared_ptr<const Plan> Plan::lower_gather_binomial(std::int64_t n, int k,
                                                        int segments) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  auto plan = std::shared_ptr<Plan>(new Plan(
      PlanCollective::kGather, "binomial", n, k, PlanCell::kWholeBlock));
  plan->segments_ = segments;
  plan->prologue_ = PlanPrologue::kCopySendToScratch0;
  plan->epilogue_ = PlanEpilogue::kScratchToRecvAtRoot;
  if (n == 1) {
    plan->finalize();
    return plan;
  }
  // The folklore concat's gather phase verbatim: scratch at rank v
  // accumulates the contiguous segment [v, v + have).
  const int d = ceil_log(n, 2);
  for (int i = 0; i < d; ++i) {
    const std::int64_t stride = ipow(2, i);
    plan->begin_round();
    for (std::int64_t rank = 0; rank < n; ++rank) {
      if (pos_mod(rank, 2 * stride) == stride) {
        const std::int64_t seg = topo::binomial_gather_segment(n, rank, i);
        plan->add_message(rank, true, rank - stride, PlanBuffer::kScratch,
                          whole_blocks(0, seg));
      } else if (pos_mod(rank, 2 * stride) == 0 && rank + stride < n) {
        const std::int64_t seg =
            topo::binomial_gather_segment(n, rank + stride, i);
        plan->add_message(rank, false, rank + stride, PlanBuffer::kScratch,
                          whole_blocks(stride, seg));
      }
    }
    plan->end_round();
  }
  plan->finalize();
  return plan;
}

std::shared_ptr<const Plan> Plan::lower_scatter_binomial(std::int64_t n, int k,
                                                         int segments) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  auto plan = std::shared_ptr<Plan>(new Plan(
      PlanCollective::kScatter, "binomial", n, k, PlanCell::kWholeBlock));
  plan->segments_ = segments;
  // The rotation is the identity at rank 0 — the only rank whose prologue
  // output is ever read: every other rank overwrites its scratch prefix
  // from the wire before sending any of it onward.
  plan->prologue_ = PlanPrologue::kRotateSendToScratch;
  plan->epilogue_ = PlanEpilogue::kScratch0ToRecv;
  if (n == 1) {
    plan->finalize();
    return plan;
  }
  // The reversed binomial gather: in round j (strides halving) the holder
  // of segment [v, v + len) ships its upper half [v + stride, v + len).
  const int d = ceil_log(n, 2);
  for (int j = 0; j < d; ++j) {
    const std::int64_t stride = ipow(2, d - 1 - j);
    plan->begin_round();
    for (std::int64_t rank = 0; rank < n; ++rank) {
      if (pos_mod(rank, 2 * stride) == 0 && rank + stride < n) {
        const std::int64_t len = std::min<std::int64_t>(2 * stride, n - rank);
        plan->add_message(rank, true, rank + stride, PlanBuffer::kScratch,
                          whole_blocks(stride, len - stride));
      } else if (pos_mod(rank, 2 * stride) == stride) {
        const std::int64_t mine = std::min<std::int64_t>(stride, n - rank);
        plan->add_message(rank, false, rank - stride, PlanBuffer::kScratch,
                          whole_blocks(0, mine));
      }
    }
    plan->end_round();
  }
  plan->finalize();
  return plan;
}

std::shared_ptr<const Plan> Plan::lower_bcast_circulant(std::int64_t n, int k,
                                                        int segments) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  auto plan = std::shared_ptr<Plan>(new Plan(
      PlanCollective::kBcast, "circulant", n, k, PlanCell::kWholeBlock));
  plan->segments_ = segments;
  plan->prologue_ = PlanPrologue::kCopySendToRecv0AtRoot;
  if (n == 1) {
    plan->finalize();
    return plan;
  }
  // The circulant (k+1)-ary broadcast tree of bcast.cpp with root 0: node v
  // joins in the round of its most significant nonzero base-(k+1) digit
  // (partial-layer nodes v ≥ n1 join in the final round), then fans out to
  // up to k children per round, forwarding from its recv buffer.
  const int d = ceil_log(n, k + 1);
  const std::int64_t n1 = ipow(k + 1, d - 1);
  const std::int64_t n2 = n - n1;
  const auto join_round = [&](std::int64_t v) {
    if (v == 0) return -1;  // the root has the data from the start
    if (v >= n1) return d - 1;
    return floor_log(v, k + 1);
  };
  for (int i = 0; i < d; ++i) {
    plan->begin_round();
    for (std::int64_t v = 0; v < n; ++v) {
      const int joined = join_round(v);
      const PlanBuffer src =
          v == 0 ? PlanBuffer::kUserSend : PlanBuffer::kUserRecv;
      if (joined == i) {
        const std::int64_t parent =
            v >= n1 ? pos_mod(v - n1, n1) : v % ipow(k + 1, i);
        plan->add_message(v, false, parent, PlanBuffer::kUserRecv,
                          one_block(0));
      } else if (joined < i) {
        if (i < d - 1) {
          const std::int64_t base = ipow(k + 1, i);
          if (v < base) {
            for (int j = 1; j <= k; ++j) {
              plan->add_message(v, true, v + j * base, src, one_block(0));
            }
          }
        } else if (v < n1) {
          for (std::int64_t c = v; c < n2; c += n1) {
            plan->add_message(v, true, n1 + c, src, one_block(0));
          }
        }
      }
    }
    plan->end_round();
  }
  plan->finalize();
  return plan;
}

// ---------------------------------------------------------------------------
// Irregular (vector) lowering.  All irregular plans are shape-free: the
// round/peer/slot structure depends only on (algorithm, n, k, radix), and
// every cell records its occupant block's identity so the executor can
// resolve true sizes — and trim the wire messages — from the VectorView.

std::shared_ptr<const Plan> Plan::lower_indexv_direct(std::int64_t n, int k,
                                                      int segments) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  auto plan = std::shared_ptr<Plan>(new Plan(
      PlanCollective::kIndex, "directv", n, k, PlanCell::kWholeBlock));
  plan->irregular_ = true;
  plan->segments_ = segments;
  plan->prologue_ = PlanPrologue::kCopyOwnBlock;

  for (std::int64_t j0 = 1; j0 < n; j0 += k) {
    const std::int64_t j1 = std::min<std::int64_t>(n, j0 + k);
    plan->begin_round();
    for (std::int64_t j = j0; j < j1; ++j) {
      for (std::int64_t rank = 0; rank < n; ++rank) {
        const std::int64_t dst = pos_mod(rank + j, n);
        const std::int64_t src = pos_mod(rank - j, n);
        plan->add_message(rank, true, dst, PlanBuffer::kUserSend,
                          one_block(dst), {rank * n + dst});
        plan->add_message(rank, false, src, PlanBuffer::kUserRecv,
                          one_block(src), {src * n + rank});
      }
    }
    plan->end_round();
  }
  plan->finalize();
  return plan;
}

std::shared_ptr<const Plan> Plan::lower_indexv_pairwise(std::int64_t n, int k,
                                                        int segments) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  BRUCK_REQUIRE_MSG(is_pow2(n), "pairwise exchange requires a power-of-two n");
  auto plan = std::shared_ptr<Plan>(new Plan(
      PlanCollective::kIndex, "pairwisev", n, k, PlanCell::kWholeBlock));
  plan->irregular_ = true;
  plan->segments_ = segments;
  plan->prologue_ = PlanPrologue::kCopyOwnBlock;

  for (std::int64_t j0 = 1; j0 < n; j0 += k) {
    const std::int64_t j1 = std::min<std::int64_t>(n, j0 + k);
    plan->begin_round();
    for (std::int64_t j = j0; j < j1; ++j) {
      for (std::int64_t rank = 0; rank < n; ++rank) {
        const std::int64_t peer = rank ^ j;
        plan->add_message(rank, true, peer, PlanBuffer::kUserSend,
                          one_block(peer), {rank * n + peer});
        plan->add_message(rank, false, peer, PlanBuffer::kUserRecv,
                          one_block(peer), {peer * n + rank});
      }
    }
    plan->end_round();
  }
  plan->finalize();
  return plan;
}

std::shared_ptr<const Plan> Plan::lower_indexv_bruck(std::int64_t n, int k,
                                                     std::int64_t radix,
                                                     int segments) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  BRUCK_REQUIRE_MSG(radix >= 2 && radix <= std::max<std::int64_t>(2, n),
                    "radix must be in [2, max(2, n)]");
  auto plan = std::shared_ptr<Plan>(new Plan(
      PlanCollective::kIndex, "bruckv(r=" + std::to_string(radix) + ")", n, k,
      PlanCell::kWholeBlock));
  plan->irregular_ = true;
  plan->segments_ = segments;
  plan->prologue_ = PlanPrologue::kRotateSendToScratch;
  plan->epilogue_ = PlanEpilogue::kUnrotateByRank;

  // Identical round structure to the uniform lowering; scratch slots are
  // pad_bytes wide at run time.  The occupant of slot s at rank ρ just
  // before subphase x has travelled the partial digit sum s mod r^x, so its
  // origin is ρ − (s mod r^x) and its destination origin + s — that lookup
  // is what lets every wire message trim to the occupant's true bytes.
  const std::int64_t r = radix;
  const int w = radix_digit_count(n, r);
  for (int x = 0; x < w; ++x) {
    const std::int64_t dist = ipow(r, x);
    const std::int64_t h = radix_subphase_height(n, r, x);
    for (std::int64_t z0 = 1; z0 < h; z0 += k) {
      const std::int64_t z1 = std::min<std::int64_t>(h, z0 + k);
      plan->begin_round();
      for (std::int64_t z = z0; z < z1; ++z) {
        const std::vector<std::int64_t> members =
            radix_digit_members(n, r, x, z);
        std::vector<PlanCell> cells;
        cells.reserve(members.size());
        for (const std::int64_t slot : members) {
          cells.push_back(PlanCell{slot, 0, PlanCell::kWholeBlock});
        }
        for (std::int64_t rank = 0; rank < n; ++rank) {
          const std::int64_t dst = pos_mod(rank + z * dist, n);
          const std::int64_t src = pos_mod(rank - z * dist, n);
          std::vector<std::int64_t> send_ids;
          std::vector<std::int64_t> recv_ids;
          send_ids.reserve(members.size());
          recv_ids.reserve(members.size());
          for (const std::int64_t slot : members) {
            const std::int64_t travelled = pos_mod(slot, dist);
            const std::int64_t send_origin = pos_mod(rank - travelled, n);
            const std::int64_t recv_origin = pos_mod(src - travelled, n);
            send_ids.push_back(send_origin * n +
                               pos_mod(send_origin + slot, n));
            recv_ids.push_back(recv_origin * n +
                               pos_mod(recv_origin + slot, n));
          }
          plan->add_message(rank, /*is_send=*/true, dst, PlanBuffer::kScratch,
                            cells, send_ids);
          plan->add_message(rank, /*is_send=*/false, src,
                            PlanBuffer::kScratch, cells, recv_ids);
        }
      }
      plan->end_round();
    }
  }
  plan->finalize();
  return plan;
}

std::shared_ptr<const Plan> Plan::lower_concatv_bruck(std::int64_t n, int k,
                                                      int segments) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  auto plan = std::shared_ptr<Plan>(new Plan(
      PlanCollective::kConcat, "bruckv", n, k, PlanCell::kWholeBlock));
  plan->irregular_ = true;
  plan->segments_ = segments;
  plan->prologue_ = PlanPrologue::kCopySendToScratch0;
  plan->epilogue_ = PlanEpilogue::kRotateWindowToOrigin;
  if (n == 1) {
    plan->finalize();
    return plan;
  }

  // Scratch slot t at rank ρ holds rank (ρ + t) mod n's block throughout —
  // that is each cell's occupant identity.  Same full rounds as the uniform
  // lowering; the last round is always column-granular (the byte-split
  // partition needs one concrete uniform b, which an irregular shape does
  // not have).
  const auto block_of = [n](std::int64_t rank, std::int64_t slot) {
    return pos_mod(rank + slot, n);
  };
  const auto window_ids = [&](std::int64_t rank, std::int64_t first,
                              std::int64_t count) {
    std::vector<std::int64_t> ids;
    ids.reserve(static_cast<std::size_t>(count));
    for (std::int64_t t = 0; t < count; ++t) {
      ids.push_back(block_of(rank, first + t));
    }
    return ids;
  };

  const int d = ceil_log(n, k + 1);
  const std::int64_t n1 = ipow(k + 1, d - 1);
  const std::int64_t n2 = n - n1;

  std::int64_t cur = 1;
  for (int i = 0; i + 1 < d; ++i) {
    plan->begin_round();
    for (std::int64_t rank = 0; rank < n; ++rank) {
      for (int j = 1; j <= k; ++j) {
        plan->add_message(rank, true, pos_mod(rank - j * cur, n),
                          PlanBuffer::kScratch, whole_blocks(0, cur),
                          window_ids(rank, 0, cur));
        plan->add_message(rank, false, pos_mod(rank + j * cur, n),
                          PlanBuffer::kScratch, whole_blocks(j * cur, cur),
                          window_ids(rank, j * cur, cur));
      }
    }
    plan->end_round();
    cur *= (k + 1);
  }
  BRUCK_ENSURE(cur == n1);

  if (n2 > 0) {
    // Column-granular final round: the n2 remaining block-columns travel as
    // whole blocks, at most n1 per port (chunk m covers columns
    // [m·n1, (m+1)·n1), offset (m+1)·n1) — the span constraint of
    // Proposition 4.2 holds because each chunk fits the sender's window.
    plan->begin_round();
    for (std::int64_t m = 0; m * n1 < n2; ++m) {
      const std::int64_t first = m * n1;
      const std::int64_t count = std::min<std::int64_t>(n1, n2 - first);
      const std::int64_t offset = n1 + first;
      for (std::int64_t rank = 0; rank < n; ++rank) {
        plan->add_message(rank, true, pos_mod(rank - offset, n),
                          PlanBuffer::kScratch, whole_blocks(0, count),
                          window_ids(rank, 0, count));
        plan->add_message(rank, false, pos_mod(rank + offset, n),
                          PlanBuffer::kScratch, whole_blocks(offset, count),
                          window_ids(rank, offset, count));
      }
    }
    plan->end_round();
  }
  plan->finalize();
  return plan;
}

std::shared_ptr<const Plan> Plan::lower_concatv_folklore(std::int64_t n, int k,
                                                         int segments) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  auto plan = std::shared_ptr<Plan>(new Plan(
      PlanCollective::kConcat, "folklorev", n, k, PlanCell::kWholeBlock));
  plan->irregular_ = true;
  plan->segments_ = segments;
  plan->prologue_ = PlanPrologue::kCopySendToScratch0;
  plan->epilogue_ = PlanEpilogue::kScratchToRecvAtRoot;
  if (n == 1) {
    plan->finalize();
    return plan;
  }
  const int d = ceil_log(n, 2);

  // Gather-phase scratch at rank ρ is the *linear* window [ρ, ρ + seg):
  // slot t holds rank ρ + t's block (no wraparound — segments never cross
  // n).  Broadcast-phase traffic is the full concatenation in rank order.
  const auto linear_ids = [](std::int64_t rank, std::int64_t first,
                             std::int64_t count) {
    std::vector<std::int64_t> ids;
    ids.reserve(static_cast<std::size_t>(count));
    for (std::int64_t t = 0; t < count; ++t) {
      ids.push_back(rank + first + t);
    }
    return ids;
  };
  const auto identity_ids = [](std::int64_t count) {
    std::vector<std::int64_t> ids;
    ids.reserve(static_cast<std::size_t>(count));
    for (std::int64_t t = 0; t < count; ++t) ids.push_back(t);
    return ids;
  };

  for (int i = 0; i < d; ++i) {
    const std::int64_t stride = ipow(2, i);
    plan->begin_round();
    for (std::int64_t rank = 0; rank < n; ++rank) {
      if (pos_mod(rank, 2 * stride) == stride) {
        const std::int64_t seg = topo::binomial_gather_segment(n, rank, i);
        plan->add_message(rank, true, rank - stride, PlanBuffer::kScratch,
                          whole_blocks(0, seg), linear_ids(rank, 0, seg));
      } else if (pos_mod(rank, 2 * stride) == 0 && rank + stride < n) {
        const std::int64_t seg =
            topo::binomial_gather_segment(n, rank + stride, i);
        plan->add_message(rank, false, rank + stride, PlanBuffer::kScratch,
                          whole_blocks(stride, seg),
                          linear_ids(rank, stride, seg));
      }
    }
    plan->end_round();
  }

  for (int j = 0; j < d; ++j) {
    const std::int64_t stride = ipow(2, d - 1 - j);
    plan->begin_round();
    for (std::int64_t rank = 0; rank < n; ++rank) {
      if (pos_mod(rank, 2 * stride) == 0 && rank + stride < n) {
        plan->add_message(
            rank, true, rank + stride,
            rank == 0 ? PlanBuffer::kScratch : PlanBuffer::kUserRecv,
            whole_blocks(0, n), identity_ids(n));
      } else if (pos_mod(rank, 2 * stride) == stride) {
        plan->add_message(rank, false, rank - stride, PlanBuffer::kUserRecv,
                          whole_blocks(0, n), identity_ids(n));
      }
    }
    plan->end_round();
  }
  plan->finalize();
  return plan;
}

std::shared_ptr<const Plan> Plan::lower_concatv_ring(std::int64_t n, int k,
                                                     int segments) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  auto plan = std::shared_ptr<Plan>(new Plan(
      PlanCollective::kConcat, "ringv", n, k, PlanCell::kWholeBlock));
  plan->irregular_ = true;
  plan->segments_ = segments;
  plan->prologue_ = PlanPrologue::kCopySendToRecvOwnSlot;
  if (n == 1) {
    plan->finalize();
    return plan;
  }

  // Recv-buffer slot i always holds rank i's block, so identity == slot.
  for (std::int64_t t = 0; t < n - 1; ++t) {
    plan->begin_round();
    for (std::int64_t rank = 0; rank < n; ++rank) {
      const std::int64_t succ = pos_mod(rank + 1, n);
      const std::int64_t pred = pos_mod(rank - 1, n);
      const std::int64_t fwd = pos_mod(rank - t, n);
      const std::int64_t got = pos_mod(rank - t - 1, n);
      plan->add_message(rank, true, succ, PlanBuffer::kUserRecv,
                        one_block(fwd), {fwd});
      plan->add_message(rank, false, pred, PlanBuffer::kUserRecv,
                        one_block(got), {got});
    }
    plan->end_round();
  }
  plan->finalize();
  return plan;
}

// ---------------------------------------------------------------------------

std::string Plan::describe() const {
  std::ostringstream os;
  const char* family = "?";
  switch (collective_) {
    case PlanCollective::kIndex: family = "index"; break;
    case PlanCollective::kConcat: family = "concat"; break;
    case PlanCollective::kReduce: family = "reduce"; break;
    case PlanCollective::kGather: family = "gather"; break;
    case PlanCollective::kScatter: family = "scatter"; break;
    case PlanCollective::kBcast: family = "bcast"; break;
  }
  os << "plan " << family << "/" << algorithm_ << ": n=" << n_
     << " k=" << k_;
  if (irregular_) {
    os << " (irregular: sizes resolve per shape; per-message figures below "
          "count whole block slots)";
  } else if (block_bytes_ == PlanCell::kWholeBlock) {
    os << " (block-size independent)";
  } else {
    os << " b=" << block_bytes_;
  }
  os << ", " << round_count_ << " rounds";
  if (segments_ > 1) os << ", " << segments_ << " wire segments/message";
  os << "\n";
  const std::int64_t b_view =
      block_bytes_ == PlanCell::kWholeBlock ? 1 : block_bytes_;
  if (round_count_ > 0) {
    const model::CostMetrics m = to_schedule(b_view).metrics();
    os << "  C1=" << m.c1 << " C2=" << m.c2
       << (block_bytes_ == PlanCell::kWholeBlock ? " blocks" : " bytes")
       << " total=" << m.total_bytes << "\n";
  }
  os << "  rank 0 program:\n";
  const RankProgram& p = programs_[0];
  for (int i = 0; i < round_count_; ++i) {
    const PlanRound& r = p.rounds[static_cast<std::size_t>(i)];
    os << "    round " << i << ":";
    if (r.sends_begin == r.sends_end && r.recvs_begin == r.recvs_end) {
      os << " idle";
    }
    for (std::uint32_t s = r.sends_begin; s < r.sends_end; ++s) {
      const PlanMessage& m = p.sends[s];
      os << "  ->" << m.peer << " " << message_bytes(m, b_view)
         << (block_bytes_ == PlanCell::kWholeBlock ? "blk" : "B")
         << (m.contiguous ? " (zero-copy)" : " (packed)");
    }
    for (std::uint32_t r2 = r.recvs_begin; r2 < r.recvs_end; ++r2) {
      const PlanMessage& m = p.recvs[r2];
      os << "  <-" << m.peer << " " << message_bytes(m, b_view)
         << (block_bytes_ == PlanCell::kWholeBlock ? "blk" : "B")
         << (m.combine ? " (combine)" : "");
    }
    os << "\n";
  }
  return os.str();
}

std::string Plan::describe_cursor() const {
  std::ostringstream os;
  os << describe();
  os << "  cursor anatomy (rank 0, nonblocking execution):\n";
  os << "    posting discipline: round i posts once rounds [0, i-1) have "
        "drained when pipeline-safe, else once rounds [0, i) have; at most "
        "two rounds in flight\n";
  const RankProgram& p = programs_[0];
  for (int i = 0; i < round_count_; ++i) {
    const PlanRound& r = p.rounds[static_cast<std::size_t>(i)];
    const int sends = static_cast<int>(r.sends_end - r.sends_begin);
    const int recvs = static_cast<int>(r.recvs_end - r.recvs_begin);
    os << "    round " << i << ": ";
    if (i == 0) {
      os << "posts immediately";
    } else if (p.pipeline_safe[static_cast<std::size_t>(i)]) {
      os << "overlaps round " << i - 1 << " (pipeline-safe)";
    } else {
      os << "waits for round " << i - 1 << " (data dependence)";
    }
    os << "; " << sends << " send(s), " << recvs << " recv(s)";
    if (recvs == 0) os << " — drains at post";
    os << "\n";
  }
  if (segments_ > 1) {
    os << "    wire segmentation: up to " << segments_
       << " segments/message (floored at " << model::kMinSegmentBytes
       << " B/segment)\n";
  }
  return os.str();
}

}  // namespace bruck::coll
