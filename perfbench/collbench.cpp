// Persistent-world collective benchmark.
//
//   collbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// Rank worlds (mps::spawn_local, n = 3, k = 1), each warmed up and then
// timed through the public coll:: facade with every output checked outside
// the timed interval, interleaved with the bare exchange of reference.hpp.
// --trace 0 prints the end-to-end metrics: the library's latency, tail and
// throughput as multiples of the bare exchange's, set-up time and the
// share of correct calls.  --trace 1 runs a short untraced world for
// reference and then a traced world that times each layer's public
// functions from here, and prints the per-layer metrics.  Every timing is
// max-over-ranks per sample.  The last stdout line is one JSON object
// {correct, attempted, failed, metrics}; the line before it is a JSON
// report with the plain times, sample counts, host facts, pinned
// environment knobs, and the cross-checks behind `correct`.
#include <malloc.h>
#include <sched.h>
#include <stdlib.h>
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "coll/pack.hpp"
#include "coll/reduction.hpp"
#include "model/linear_model.hpp"
#include "mps/bootstrap.hpp"
#include "mps/trace.hpp"
#include "reference.hpp"
#include "tune/calibrate.hpp"
#include "util/stats.hpp"
#include "workload.hpp"

namespace {

namespace coll = bruck::coll;
namespace model = bruck::model;
namespace mps = bruck::mps;
using perfbench::Collective;
using perfbench::Family;
using perfbench::kPorts;
using perfbench::kRanks;
using perfbench::Layer;
using perfbench::now_ns;
using perfbench::Reference;
using perfbench::Span;
using perfbench::Stage;
using perfbench::Workload;

// ---------------------------------------------------------------------------
// Command line.

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string spans_path;
};

std::optional<long long> parse_int(const char* text, long long lo,
                                   long long hi) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (*end != '\0' || v < lo || v > hi) return std::nullopt;
  return v;
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool seen_seed = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return std::nullopt;
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = perfbench::find_workload(value);
      if (a.workload == nullptr) return std::nullopt;
    } else if (flag == "--seed") {
      const auto v = parse_int(value, 0, (1LL << 62));
      if (!v) return std::nullopt;
      a.seed = static_cast<std::uint64_t>(*v);
      seen_seed = true;
    } else if (flag == "--seconds") {
      const auto v = parse_int(value, 1, 600);
      if (!v) return std::nullopt;
      a.seconds = static_cast<int>(*v);
    } else if (flag == "--trace") {
      const auto v = parse_int(value, 0, 1);
      if (!v) return std::nullopt;
      a.trace = *v == 1;
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else {
      return std::nullopt;
    }
  }
  if (a.workload == nullptr || !seen_seed || a.seconds == 0) {
    return std::nullopt;
  }
  return a;
}

// ---------------------------------------------------------------------------
// Environment knobs and host facts.

/// Every environment variable the library reads.  The benchmark passes
/// explicit options for all of them (fabric, tune off, hier off, ring size,
/// timeout), and clears any that are set so a code path that still consults
/// the environment (allreduce's inner stages read BRUCK_HIER) cannot change
/// the numbers; the report names each one it cleared.
constexpr const char* kKnobs[] = {
    "BRUCK_FABRIC",          "BRUCK_TUNE_MODE",
    "BRUCK_TUNE_TABLE",      "BRUCK_HIER",
    "BRUCK_HIER_GROUP_SIZE", "BRUCK_SHM_RING_BYTES",
    "BRUCK_SOCKET_MAX_WRITE_BYTES", "BRUCK_RECV_TIMEOUT_MS",
    "BRUCK_FUSE_MAX_BLOCK",
};

std::vector<std::pair<std::string, std::string>> clear_knobs() {
  std::vector<std::pair<std::string, std::string>> cleared;
  for (const char* knob : kKnobs) {
    if (const char* v = std::getenv(knob)) {
      cleared.emplace_back(knob, v);
      ::unsetenv(knob);
    }
  }
  return cleared;
}

constexpr std::size_t kShmRingBytes = std::size_t{1} << 20;
constexpr std::chrono::milliseconds kRecvTimeout{10000};

mps::SpawnOptions world_options(const Workload& w, bool record_trace) {
  mps::SpawnOptions o;
  o.n = kRanks;
  o.k = kPorts;
  o.backend = w.backend;
  o.record_trace = record_trace;
  o.shm_ring_bytes = kShmRingBytes;
  o.recv_timeout = kRecvTimeout;
  o.tune = bruck::tune::TuneMode::kOff;
  return o;
}

// ---------------------------------------------------------------------------
// Rank → parent shipping.  Ranks may be forked processes, so everything a
// rank measured travels back as the body's byte payload.

class Writer {
 public:
  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    out_.insert(out_.end(), p, p + sizeof(T));
  }
  template <typename T>
  void put_vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put(static_cast<std::uint64_t>(v.size()));
    const auto* p = reinterpret_cast<const std::byte*>(v.data());
    out_.insert(out_.end(), p, p + v.size() * sizeof(T));
  }
  void put_str(const std::string& s) {
    put_vec(std::vector<char>(s.begin(), s.end()));
  }
  std::vector<std::byte> take() { return std::move(out_); }

 private:
  std::vector<std::byte> out_;
};

class Reader {
 public:
  explicit Reader(const std::vector<std::byte>& in) : in_(in) {}
  template <typename T>
  T get() {
    T v{};
    need(sizeof(T));
    std::memcpy(&v, in_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  template <typename T>
  std::vector<T> get_vec() {
    const auto count = get<std::uint64_t>();
    if (count > in_.size()) throw std::runtime_error("corrupt rank payload");
    std::vector<T> v(static_cast<std::size_t>(count));
    need(v.size() * sizeof(T));
    std::memcpy(v.data(), in_.data() + pos_, v.size() * sizeof(T));
    pos_ += v.size() * sizeof(T);
    return v;
  }
  std::string get_str() {
    const auto c = get_vec<char>();
    return {c.begin(), c.end()};
  }

 private:
  void need(std::size_t bytes) const {
    if (pos_ + bytes > in_.size()) {
      throw std::runtime_error("truncated rank payload");
    }
  }
  const std::vector<std::byte>& in_;
  std::size_t pos_ = 0;
};

/// Everything one rank measured in one world.
struct RankReport {
  std::int64_t enter_ns = 0;  ///< body entered
  std::int64_t ready_ns = 0;  ///< first barrier passed
  std::int64_t calls = 0;     ///< collective calls made (all on tag 0)
  std::int64_t failed = 0;    ///< calls whose output check failed
  bool self_test_caught = false;
  std::string first_failure;
  std::vector<double> latency_us;  ///< barrier-bracketed calls
  std::vector<double> batch_us;    ///< back-to-back batches
  std::vector<double> bare_latency_us;  ///< the same for the reference
  std::vector<double> bare_batch_us;    ///< exchange (reference.hpp)
  std::int64_t bare_failed = 0;  ///< reference exchanges with a wrong result
  // Traced world only.
  std::int64_t warmup_plan_events = 0;
  double calibrate_us = 0.0;
  double beta_us = 0.0, tau_us_per_byte = 0.0, gamma_us_per_byte = 0.0;
  std::vector<double> barrier_us;
  std::vector<double> round_us;  ///< every probed round, pass after pass
  std::vector<double> pass_us;   ///< one pass = all rounds of one call
  std::vector<Span> spans;
  std::int64_t lookups = 0, lookup_hits = 0;
  std::int64_t bytes_reduced_per_call = 0;
  double pack_gb_per_s = 0.0, combine_gb_per_s = 0.0;

  void tally(const std::string& failure) {
    ++calls;
    if (failure.empty()) return;
    ++failed;
    if (first_failure.empty()) first_failure = failure;
  }

  std::vector<std::byte> encode() const {
    Writer w;
    w.put(enter_ns); w.put(ready_ns); w.put(calls); w.put(failed);
    w.put(self_test_caught); w.put_str(first_failure);
    w.put_vec(latency_us); w.put_vec(batch_us);
    w.put_vec(bare_latency_us); w.put_vec(bare_batch_us); w.put(bare_failed);
    w.put(warmup_plan_events); w.put(calibrate_us);
    w.put(beta_us); w.put(tau_us_per_byte); w.put(gamma_us_per_byte);
    w.put_vec(barrier_us); w.put_vec(round_us); w.put_vec(pass_us);
    w.put_vec(spans); w.put(lookups); w.put(lookup_hits);
    w.put(bytes_reduced_per_call); w.put(pack_gb_per_s);
    w.put(combine_gb_per_s);
    return w.take();
  }

  static RankReport decode(const std::vector<std::byte>& in) {
    Reader r(in);
    RankReport o;
    o.enter_ns = r.get<std::int64_t>(); o.ready_ns = r.get<std::int64_t>();
    o.calls = r.get<std::int64_t>(); o.failed = r.get<std::int64_t>();
    o.self_test_caught = r.get<bool>(); o.first_failure = r.get_str();
    o.latency_us = r.get_vec<double>(); o.batch_us = r.get_vec<double>();
    o.bare_latency_us = r.get_vec<double>();
    o.bare_batch_us = r.get_vec<double>();
    o.bare_failed = r.get<std::int64_t>();
    o.warmup_plan_events = r.get<std::int64_t>();
    o.calibrate_us = r.get<double>();
    o.beta_us = r.get<double>(); o.tau_us_per_byte = r.get<double>();
    o.gamma_us_per_byte = r.get<double>();
    o.barrier_us = r.get_vec<double>(); o.round_us = r.get_vec<double>();
    o.pass_us = r.get_vec<double>(); o.spans = r.get_vec<Span>();
    o.lookups = r.get<std::int64_t>(); o.lookup_hits = r.get<std::int64_t>();
    o.bytes_reduced_per_call = r.get<std::int64_t>();
    o.pack_gb_per_s = r.get<double>(); o.combine_gb_per_s = r.get<double>();
    return o;
  }
};

// ---------------------------------------------------------------------------
// Statistics.

double us_between(std::int64_t t0_ns, std::int64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) / 1e3;
}

double median(const std::vector<double>& v) { return bruck::percentile(v, 50.0); }

/// Element-wise max over ranks: the per-sample time of the slowest rank.
std::vector<double> max_over_ranks(const std::vector<RankReport>& ranks,
                                   std::vector<double> RankReport::*field) {
  std::vector<double> out = ranks.front().*field;
  for (const RankReport& r : ranks) {
    const std::vector<double>& v = r.*field;
    if (v.size() != out.size()) {
      throw std::runtime_error("ranks returned different sample counts");
    }
    for (std::size_t i = 0; i < v.size(); ++i) out[i] = std::max(out[i], v[i]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rank-side helpers.

/// Stop/continue agreement on a tag of its own, so the collectives' tag-0
/// trace holds nothing but the measured calls: rank 0 decides, and its
/// flag reaches every other rank (one port: one send per round).
class Control {
 public:
  explicit Control(mps::Communicator& comm)
      : comm_(comm), tag_(comm.allocate_collective_tag()) {}

  bool agree(bool go_on_rank0) {
    const std::int64_t n = comm_.size();
    const std::int64_t rank = comm_.rank();
    std::byte flag{static_cast<unsigned char>(go_on_rank0 ? 1 : 0)};
    if (rank == 0) {
      for (std::int64_t dst = 1; dst < n; ++dst) {
        comm_.post_send(round_ + static_cast<int>(dst) - 1, dst, {&flag, 1}, 1,
                        tag_);
      }
    } else {
      comm_.wait_recv(comm_.post_recv(round_ + static_cast<int>(rank) - 1, 0,
                                      {&flag, 1}, 1, tag_));
    }
    round_ += static_cast<int>(n) - 1;
    return flag != std::byte{0};
  }

 private:
  mps::Communicator& comm_;
  int tag_;
  int round_ = 0;
};

/// The untimed bracket before each timed call: a spin barrier on a shared
/// anonymous mapping (inherited by forked ranks, shared by rank threads).
/// The fabric's own barrier yields and then sleeps 50 µs at a time while it
/// waits, so ranks leave it up to a sleep apart and the timed call absorbs
/// that skew; spinning keeps the start skew to one cache-line transfer.
class SpinBarrier {
 public:
  SpinBarrier() {
    void* mem = ::mmap(nullptr, sizeof(State), PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) throw std::runtime_error("mmap failed");
    state_ = new (mem) State{};
  }
  ~SpinBarrier() { ::munmap(state_, sizeof(State)); }
  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  /// Throws when the other ranks do not arrive within the receive timeout
  /// (a rank died or failed).
  void wait(std::int64_t n) const {
    const std::uint32_t generation =
        state_->generation.load(std::memory_order_acquire);
    if (state_->arrived.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        static_cast<std::uint32_t>(n)) {
      state_->arrived.store(0, std::memory_order_relaxed);
      state_->generation.fetch_add(1, std::memory_order_release);
      return;
    }
    const std::int64_t give_up =
        now_ns() + std::chrono::nanoseconds(kRecvTimeout).count();
    for (std::uint32_t spins = 1;
         state_->generation.load(std::memory_order_acquire) == generation;
         ++spins) {
#if defined(__x86_64__)
      __builtin_ia32_pause();
#endif
      if (spins % 4096 == 0 && now_ns() > give_up) {
        throw std::runtime_error("bracket barrier timed out waiting for peers");
      }
    }
  }

 private:
  struct State {
    std::atomic<std::uint32_t> arrived{0};
    std::atomic<std::uint32_t> generation{0};
  };
  State* state_ = nullptr;
};

std::int64_t deadline_after(std::int64_t start_ns, double seconds) {
  return start_ns + static_cast<std::int64_t>(seconds * 1e9);
}

void clear(std::span<std::byte> buf) {
  std::fill(buf.begin(), buf.end(), std::byte{0});
}

/// Checked, untimed calls that warm every cache the timed calls use: at
/// least w.warmup_calls, and until `end_ns` on rank 0.
int warm_up(mps::Communicator& comm, const Collective& c, const Workload& w,
            std::span<std::byte> recv, int round, RankReport& rep,
            Control& control, std::int64_t end_ns) {
  int calls = 0;
  do {
    for (int i = 0; i < w.latency_batch; ++i, ++calls) {
      clear(recv);
      round = c.run(comm, recv, round);
      rep.tally(c.check(recv));
    }
  } while (control.agree(calls < w.warmup_calls || now_ns() < end_ns));
  return round;
}

/// The checker must reject a result with one flipped byte: flip one
/// seed-chosen byte of a correct output and confirm the check fails.
bool checker_catches_corruption(const Collective& c,
                                std::span<const std::byte> good,
                                std::uint64_t seed) {
  if (!c.check(good).empty()) return false;
  std::vector<std::byte> bad(good.begin(), good.end());
  bad[static_cast<std::size_t>(seed % bad.size())] ^= std::byte{0x01};
  return !c.check(bad).empty();
}

void enter_world(mps::Communicator& comm, RankReport& rep) {
  rep.enter_ns = now_ns();
  comm.barrier();
  rep.ready_ns = now_ns();
}

/// Binds the calling rank, thread or process, to a CPU of its own, as MPI
/// launchers bind ranks to cores, leaving one CPU to the parent when there
/// is one to spare.  Unbound, the scheduler moved woken rank threads next
/// to their wakers, and a world's latency level depended on where its
/// ranks happened to land.
void bind_to_cpu(std::int64_t rank) {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (static_cast<std::int64_t>(cpus.size()) < kRanks) return;
  const std::size_t spare = cpus.size() > static_cast<std::size_t>(kRanks) ? 1 : 0;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[spare + static_cast<std::size_t>(rank)], &one);
  ::sched_setaffinity(0, sizeof(one), &one);
}

/// The end-to-end world: latency phase until `latency_s`, then (when
/// `throughput_s` > `latency_s`) the back-to-back phase until
/// `throughput_s`, both measured from rank 0's first barrier.  Each batch
/// of library calls is followed by as many reference exchanges, timed and
/// checked the same way, so both see the same host.
std::vector<std::byte> end_to_end_body(mps::Communicator& comm,
                                       const SpinBarrier& bracket,
                                       const Reference& reference,
                                       const Workload& w, std::uint64_t seed,
                                       double warmup_s, double latency_s,
                                       double throughput_s) {
  RankReport rep;
  enter_world(comm, rep);
  bind_to_cpu(comm.rank());
  const Collective c(w, comm.rank(), seed);
  Control control(comm);
  std::vector<std::byte> recv(c.recv_bytes());
  int round = warm_up(comm, c, w, recv, 0, rep, control,
                      deadline_after(rep.ready_ns, warmup_s));
  rep.self_test_caught = checker_catches_corruption(c, recv, seed);
  Reference::Cursor cursor(comm.size());
  const auto bare = [&](std::span<std::byte> out) {
    reference.run(comm.rank(), c.send(), out, cursor);
  };
  const auto check_bare = [&](std::span<const std::byte> out) {
    if (!c.check(out).empty()) ++rep.bare_failed;
  };
  for (int i = 0; i < w.warmup_calls; ++i) {
    clear(recv);
    bare(recv);
    check_bare(recv);
  }

  const std::int64_t latency_end = deadline_after(rep.ready_ns, latency_s);
  do {
    for (int i = 0; i < w.latency_batch; ++i) {
      clear(recv);
      bracket.wait(comm.size());
      const std::int64_t t0 = now_ns();
      round = c.run(comm, recv, round);
      rep.latency_us.push_back(us_between(t0, now_ns()));
      rep.tally(c.check(recv));
    }
    for (int i = 0; i < w.latency_batch; ++i) {
      clear(recv);
      bracket.wait(comm.size());
      const std::int64_t t0 = now_ns();
      bare(recv);
      rep.bare_latency_us.push_back(us_between(t0, now_ns()));
      check_bare(recv);
    }
  } while (control.agree(now_ns() < latency_end));

  if (throughput_s > latency_s) {
    const std::int64_t throughput_end =
        deadline_after(rep.ready_ns, throughput_s);
    std::vector<std::vector<std::byte>> outs(
        static_cast<std::size_t>(w.throughput_batch),
        std::vector<std::byte>(c.recv_bytes()));
    do {
      for (auto& out : outs) clear(out);
      bracket.wait(comm.size());
      std::int64_t t0 = now_ns();
      for (auto& out : outs) round = c.run(comm, out, round);
      rep.batch_us.push_back(us_between(t0, now_ns()));
      for (const auto& out : outs) rep.tally(c.check(out));

      for (auto& out : outs) clear(out);
      bracket.wait(comm.size());
      t0 = now_ns();
      for (auto& out : outs) bare(out);
      rep.bare_batch_us.push_back(us_between(t0, now_ns()));
      for (const auto& out : outs) check_bare(out);
    } while (control.agree(now_ns() < throughput_end));
  }
  return rep.encode();
}

/// One round of a plan as this rank runs it.
struct ProbeRound {
  std::vector<std::pair<std::int64_t, std::int64_t>> sends;  ///< (dst, bytes)
  std::vector<std::pair<std::int64_t, std::int64_t>> recvs;  ///< (src, bytes)
  int segments = 1;
};

std::vector<ProbeRound> probe_rounds(const std::vector<Stage>& stages,
                                     std::int64_t rank) {
  std::vector<ProbeRound> out;
  for (const Stage& st : stages) {
    const bruck::sched::Schedule s = st.plan->to_schedule(st.block_bytes);
    for (const bruck::sched::Round& r : s.rounds()) {
      ProbeRound pr;
      pr.segments = st.plan->segments();
      for (const bruck::sched::Transfer& t : r.transfers) {
        if (t.src == rank) pr.sends.emplace_back(t.dst, t.bytes);
        if (t.dst == rank) pr.recvs.emplace_back(t.src, t.bytes);
      }
      out.push_back(std::move(pr));
    }
  }
  return out;
}

/// Median GB/s of `kernel` (moving `bytes` per invocation) over five
/// samples of at least 20 ms each.
template <typename Kernel>
double kernel_gb_per_s(std::int64_t bytes, Kernel&& kernel) {
  std::vector<double> rates;
  for (int sample = 0; sample < 5; ++sample) {
    std::int64_t moved = 0;
    const std::int64_t t0 = now_ns();
    std::int64_t t1 = t0;
    while (t1 - t0 < 20'000'000) {
      for (int i = 0; i < 16; ++i) kernel();
      moved += 16 * bytes;
      t1 = now_ns();
    }
    rates.push_back(static_cast<double>(moved) / static_cast<double>(t1 - t0));
  }
  return median(rates);
}

/// coll pack: the plan's per-round send volumes through the pack routine
/// its executor stages them with — pack_by_digit for index Bruck,
/// gather_extents (block-sized extents) for the allreduce stages.
double pack_rate(const Workload& w, const Collective& c,
                 const std::vector<Stage>& stages,
                 const std::vector<ProbeRound>& rounds) {
  if (w.family == Family::kAlltoall) {
    const Stage& st = stages.front();
    const std::int64_t r = st.radix;
    std::vector<std::byte> packed(c.send().size());
    std::int64_t bytes = 0;
    for (int x = 0, span = 1; span < kRanks; ++x, span *= static_cast<int>(r)) {
      for (std::int64_t z = 1; z < r; ++z) {
        bytes += coll::pack_by_digit(c.send(), packed, kRanks, st.block_bytes,
                                     r, x, z) *
                 st.block_bytes;
      }
    }
    return kernel_gb_per_s(bytes, [&] {
      for (int x = 0, span = 1; span < kRanks;
           ++x, span *= static_cast<int>(r)) {
        for (std::int64_t z = 1; z < r; ++z) {
          coll::pack_by_digit(c.send(), packed, kRanks, st.block_bytes, r, x,
                              z);
        }
      }
    });
  }
  const std::int64_t b = stages.front().block_bytes;
  std::vector<std::byte> src(static_cast<std::size_t>(kRanks * b),
                             std::byte{1});
  std::vector<std::byte> out(src.size());
  std::vector<std::vector<coll::ByteExtent>> per_round;
  std::int64_t bytes = 0;
  for (const ProbeRound& pr : rounds) {
    for (const auto& [dst, m] : pr.sends) {
      std::vector<coll::ByteExtent> extents;
      for (std::int64_t off = 0; off < m; off += b) {
        extents.push_back({off, std::min(b, m - off)});
      }
      bytes += m;
      per_round.push_back(std::move(extents));
    }
  }
  return kernel_gb_per_s(bytes, [&] {
    for (const auto& extents : per_round) {
      coll::gather_extents(src, extents, out);
    }
  });
}

/// coll reduction: ReduceOp::combine (f64 sum) over the bytes one call
/// reduces on this rank; alltoall reduces nothing, so its workloads time
/// the kernel over the call's receive volume instead.
double combine_rate(std::int64_t bytes) {
  const coll::ReduceOp op = coll::ReduceOp::sum(coll::ReduceElem::kF64);
  bytes = std::max<std::int64_t>(op.elem_bytes(), bytes / op.elem_bytes() *
                                                      op.elem_bytes());
  std::vector<double> acc(static_cast<std::size_t>(bytes / 8), 1.0);
  std::vector<double> in(acc.size(), 0.5);
  return kernel_gb_per_s(bytes, [&] {
    op.combine(reinterpret_cast<std::byte*>(acc.data()),
               reinterpret_cast<const std::byte*>(in.data()), bytes);
  });
}

/// Traced calls are capped so the span log and the tag-0 trace stay small.
constexpr std::int64_t kMaxTracedCalls = 10000;
/// Facade calls after warm-up whose PlanEvents must all be cache hits.
constexpr int kCheckedFacadeCalls = 32;

/// The traced world: calibration, barrier and fabric-round probes at the
/// plan's own peers and sizes, then calls assembled from the layer
/// functions with a span around each, then the local pack/combine kernels.
std::vector<std::byte> traced_body(mps::Communicator& comm,
                                   const SpinBarrier& bracket,
                                   const Workload& w, std::uint64_t seed,
                                   double warmup_s, double probe_s,
                                   double traced_s) {
  RankReport rep;
  enter_world(comm, rep);
  bind_to_cpu(comm.rank());
  const Collective c(w, comm.rank(), seed);
  Control control(comm);
  std::vector<std::byte> recv(c.recv_bytes());
  int round = warm_up(comm, c, w, recv, 0, rep, control,
                      deadline_after(rep.ready_ns, warmup_s));
  rep.self_test_caught = checker_catches_corruption(c, recv, seed);
  const std::vector<Stage> stages = c.stages();
  rep.warmup_plan_events = rep.calls * static_cast<std::int64_t>(stages.size());
  for (int i = 0; i < kCheckedFacadeCalls; ++i) {
    clear(recv);
    round = c.run(comm, recv, round);
    rep.tally(c.check(recv));
  }

  // tune: one calibration ladder on this fabric.
  comm.barrier();
  std::int64_t t0 = now_ns();
  const bruck::tune::Calibration cal =
      bruck::tune::calibrate(comm, mps::to_string(w.backend));
  rep.calibrate_us = us_between(t0, now_ns());
  rep.beta_us = cal.machine.beta_us;
  rep.tau_us_per_byte = cal.machine.tau_us_per_byte;
  rep.gamma_us_per_byte = cal.machine.gamma_us_per_byte;

  // mps fabric: barriers, then the plan's rounds on a tag of their own.
  for (int i = 0; i < 2000; ++i) {
    t0 = now_ns();
    comm.barrier();
    rep.barrier_us.push_back(us_between(t0, now_ns()));
  }
  const std::vector<ProbeRound> rounds = probe_rounds(stages, comm.rank());
  std::int64_t max_bytes = 1;
  for (const ProbeRound& pr : rounds) {
    for (const auto& s : pr.sends) max_bytes = std::max(max_bytes, s.second);
    for (const auto& r : pr.recvs) max_bytes = std::max(max_bytes, r.second);
  }
  std::vector<std::byte> probe_out(static_cast<std::size_t>(max_bytes),
                                   std::byte{7});
  std::vector<std::byte> probe_in(probe_out.size());
  const int probe_tag = comm.allocate_collective_tag();
  int probe_round = 0;
  const std::int64_t probe_end = deadline_after(rep.ready_ns, probe_s);
  std::vector<mps::PortHandle> handles;
  do {
    for (int i = 0; i < w.latency_batch; ++i) {
      bracket.wait(comm.size());
      const std::int64_t pass0 = now_ns();
      for (const ProbeRound& pr : rounds) {
        const std::int64_t r0 = now_ns();
        for (const auto& [dst, bytes] : pr.sends) {
          comm.post_send(probe_round, dst,
                         std::span<const std::byte>(probe_out).first(
                             static_cast<std::size_t>(bytes)),
                         pr.segments, probe_tag);
        }
        handles.clear();
        for (const auto& [src, bytes] : pr.recvs) {
          handles.push_back(comm.post_recv(
              probe_round, src,
              std::span<std::byte>(probe_in).first(
                  static_cast<std::size_t>(bytes)),
              pr.segments, probe_tag));
        }
        for (const mps::PortHandle h : handles) comm.wait_recv(h);
        ++probe_round;
        rep.round_us.push_back(us_between(r0, now_ns()));
      }
      rep.pass_us.push_back(us_between(pass0, now_ns()));
    }
  } while (control.agree(now_ns() < probe_end));

  // model / plan cache / executor / pack: traced calls.
  const std::int64_t traced_end = deadline_after(rep.ready_ns, traced_s);
  rep.spans.reserve(static_cast<std::size_t>(kMaxTracedCalls) * 8);
  std::int32_t call = 0;
  do {
    for (int i = 0; i < w.latency_batch; ++i) {
      clear(recv);
      bracket.wait(comm.size());
      const perfbench::TracedCall tc =
          c.run_traced(comm, recv, round, call++, rep.spans);
      round = tc.next_round;
      rep.lookups += tc.lookups;
      rep.lookup_hits += tc.lookup_hits;
      rep.bytes_reduced_per_call = tc.bytes_reduced;
      rep.tally(c.check(recv));
    }
  } while (control.agree(now_ns() < traced_end &&
                         call + w.latency_batch <= kMaxTracedCalls));

  // pack / reduction kernels, rank-local.
  comm.barrier();
  rep.pack_gb_per_s = pack_rate(w, c, stages, rounds);
  rep.combine_gb_per_s = combine_rate(
      w.family == Family::kAllreduce
          ? rep.bytes_reduced_per_call
          : static_cast<std::int64_t>(c.recv_bytes()));
  comm.barrier();
  return rep.encode();
}

// ---------------------------------------------------------------------------
// Parent side.

struct World {
  std::vector<RankReport> ranks;
  std::shared_ptr<mps::Trace> trace;
  double setup_s = 0.0;  ///< spawn_local call → last rank past first barrier
  double spawn_s = 0.0;  ///< spawn_local call → last rank entered the body
};

World run_world(const Workload& w, bool record_trace,
                const std::function<std::vector<std::byte>(
                    mps::Communicator&, const SpinBarrier&)>& body) {
  const SpinBarrier bracket;
  const std::int64_t t0 = now_ns();
  const mps::SpawnResult result = mps::spawn_local(
      world_options(w, record_trace),
      [&](mps::Communicator& comm) { return body(comm, bracket); });
  World world;
  world.trace = result.trace;
  std::int64_t enter = t0, ready = t0;
  for (const auto& payload : result.rank_payloads) {
    world.ranks.push_back(RankReport::decode(payload));
    enter = std::max(enter, world.ranks.back().enter_ns);
    ready = std::max(ready, world.ranks.back().ready_ns);
  }
  world.spawn_s = static_cast<double>(enter - t0) / 1e9;
  world.setup_s = static_cast<double>(ready - t0) / 1e9;
  return world;
}

/// Set-up time samples: `count` worlds that only set up and pass one
/// barrier.
std::vector<World> setup_worlds(const Workload& w, int count) {
  std::vector<World> worlds;
  for (int i = 0; i < count; ++i) {
    worlds.push_back(run_world(
        w, false, [](mps::Communicator& comm, const SpinBarrier&) {
          RankReport rep;
          enter_world(comm, rep);
          return rep.encode();
        }));
  }
  return worlds;
}

/// Calls and failures over every world of a run.  A call spans all ranks;
/// it failed when any rank's check failed.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool self_test_caught = true;
  std::string first_failure;

  void add(const World& world) {
    std::int64_t failed_here = 0;
    for (const RankReport& r : world.ranks) {
      failed_here += r.failed;
      if (first_failure.empty()) first_failure = r.first_failure;
      self_test_caught = self_test_caught && r.self_test_caught;
    }
    const std::int64_t calls = world.ranks.front().calls;
    attempted += calls;
    failed += std::min(calls, failed_here);
  }
};

// ---------------------------------------------------------------------------
// JSON output.

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

/// An ordered JSON object under construction.
class Obj {
 public:
  Obj& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + quoted(key) + ": " + json;
    return *this;
  }
  Obj& num(const std::string& key, double v) { return raw(key, ::num(v)); }
  Obj& str(const std::string& key, const std::string& v) {
    return raw(key, quoted(v));
  }
  Obj& flag(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  [[nodiscard]] std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// One metric: its value and unit in the result line, and its value, unit
/// and sample count in the report.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::int64_t samples) {
    result_.raw(name, Obj().num("value", value).str("unit", unit).json());
    note(name, value, unit, samples);
  }
  /// A value for the report only: not one of the metrics the result
  /// line carries.
  void note(const std::string& name, double value, const std::string& unit,
            std::int64_t samples) {
    report_.raw(name, Obj()
                          .num("value", value)
                          .str("unit", unit)
                          .num("samples", static_cast<double>(samples))
                          .json());
  }
  [[nodiscard]] std::string result_json() const { return result_.json(); }
  [[nodiscard]] std::string report_json() const { return report_.json(); }

 private:
  Obj result_;
  Obj report_;
};

Obj host_facts() {
  double load[3] = {0, 0, 0};
  const int got = ::getloadavg(load, 3);
  return Obj()
      .num("nproc", std::thread::hardware_concurrency())
      .str("compiler", "g++ " __VERSION__)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .num("loadavg_1m", got >= 1 ? load[0] : -1.0);
}

Obj knobs_json(const std::vector<std::pair<std::string, std::string>>& set) {
  Obj o;
  for (const auto& [k, v] : set) o.str(k, v);
  return o;
}

void emit(const Args& a, const Obj& report_extra, const Metrics& metrics,
          const Tally& tally, bool correct,
          const std::vector<std::pair<std::string, std::string>>& knobs) {
  Obj report;
  report.str("workload", std::string(a.workload->name))
      .num("seed", static_cast<double>(a.seed))
      .num("seconds", a.seconds)
      .num("trace", a.trace ? 1 : 0)
      .raw("host", host_facts().json())
      .raw("env_knobs_cleared", knobs_json(knobs).json())
      .num("fail_ratio",
           tally.attempted > 0
               ? static_cast<double>(tally.failed) /
                     static_cast<double>(tally.attempted)
               : 1.0)
      .flag("checker_self_test", tally.self_test_caught)
      .str("first_failure", tally.first_failure)
      .raw("details", report_extra.json())
      .raw("metrics", metrics.report_json());
  std::printf("report: %s\n", report.json().c_str());
  std::printf("%s\n", Obj()
                          .flag("correct", correct)
                          .num("attempted", static_cast<double>(tally.attempted))
                          .num("failed", static_cast<double>(tally.failed))
                          .raw("metrics", metrics.result_json())
                          .json()
                          .c_str());
  std::fflush(stdout);
}

std::string plan_label(const std::vector<Stage>& stages) {
  std::string label;
  for (const Stage& st : stages) {
    label += (label.empty() ? "" : " + ") + st.label;
  }
  return label;
}

/// Interquartile mean: the mean of the middle half of `v` (all of it when
/// it has fewer than four values).  Unlike a median it moves in proportion
/// when samples shift between two modes, and unlike a mean it ignores the
/// outer quarters.
double interquartile_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() >= 4 ? v.size() / 4 : 0;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// Worlds per second of an end-to-end run.  Each world settles at a level
/// of its own for its whole life (on allreduce-256K-shm some worlds sit near
/// 200 µs and others near 300 µs; on a2a-64B-shm some near 1.7 µs and others
/// near 2.5 µs), so a run spreads its time over many short worlds and
/// reports the interquartile mean of the worlds' own statistics.
constexpr int kWorldsPerSecond = 2;

/// One world's statistics for the library's calls or for the bare
/// reference exchanges.
struct WorldStats {
  double latency_us;  ///< interquartile mean of the per-call times
  double p50_us;
  double p90_us;
  double ops_per_s;  ///< burst length ÷ median burst time
  double p99_us;
};

WorldStats world_stats(const World& world, const Workload& w,
                       std::vector<double> RankReport::*latency,
                       std::vector<double> RankReport::*bursts) {
  const std::vector<double> l = max_over_ranks(world.ranks, latency);
  const std::vector<double> b = max_over_ranks(world.ranks, bursts);
  return {interquartile_mean(l), median(l), bruck::percentile(l, 90.0),
          static_cast<double>(w.throughput_batch) / (median(b) * 1e-6),
          bruck::percentile(l, 99.0)};
}

bool measure_end_to_end(const Args& a, Metrics& m, Obj& details,
                        Tally& tally) {
  const Workload& w = *a.workload;
  const int worlds = kWorldsPerSecond * a.seconds;
  const double slice = static_cast<double>(a.seconds) / worlds;
  std::vector<double> setups;
  std::vector<WorldStats> lib, bare;
  std::int64_t n_lat = 0, n_bursts = 0, bare_failed = 0;
  std::string world_latency;
  for (int i = 0; i < worlds; ++i) {
    // Thread start-up on a VM host wanders between ~60 and ~250 µs from
    // one second to the next, so set-up samples are spread over the run.
    for (const World& s : setup_worlds(w, 3)) setups.push_back(s.setup_s);
    const Reference reference(w, kRecvTimeout);
    const World world = run_world(
        w, false, [&](mps::Communicator& comm, const SpinBarrier& bracket) {
          return end_to_end_body(comm, bracket, reference, w, a.seed,
                                 0.1 * slice, 0.55 * slice, 0.95 * slice);
        });
    tally.add(world);
    setups.push_back(world.setup_s);
    for (const RankReport& r : world.ranks) bare_failed += r.bare_failed;
    lib.push_back(world_stats(world, w, &RankReport::latency_us,
                              &RankReport::batch_us));
    bare.push_back(world_stats(world, w, &RankReport::bare_latency_us,
                               &RankReport::bare_batch_us));
    n_lat += static_cast<std::int64_t>(world.ranks.front().latency_us.size());
    n_bursts += static_cast<std::int64_t>(world.ranks.front().batch_us.size());
    char text[48];
    std::snprintf(text, sizeof(text), "%s%.3f/%.3f",
                  world_latency.empty() ? "" : " ", lib.back().latency_us,
                  bare.back().latency_us);
    world_latency += text;
  }
  // Interquartile mean over worlds of f(library stats, bare stats).
  const auto over_worlds = [&](auto f) {
    std::vector<double> v;
    for (std::size_t i = 0; i < lib.size(); ++i) v.push_back(f(lib[i], bare[i]));
    return interquartile_mean(v);
  };
  using S = const WorldStats&;
  m.add("latency_x_bare",
        over_worlds([](S l, S b) { return l.latency_us / b.latency_us; }), "x",
        n_lat);
  m.add("p90_x_bare", over_worlds([](S l, S b) { return l.p90_us / b.p90_us; }),
        "x", n_lat);
  m.add("ops_x_bare",
        over_worlds([](S l, S b) { return l.ops_per_s / b.ops_per_s; }), "x",
        n_bursts);
  m.add("setup_s", median(setups), "s",
        static_cast<std::int64_t>(setups.size()));
  m.add("ok_ratio",
        static_cast<double>(tally.attempted - tally.failed) /
            static_cast<double>(tally.attempted),
        "ratio", tally.attempted);
  m.note("latency_us", over_worlds([](S l, S) { return l.latency_us; }), "us",
         n_lat);
  m.note("p50_us", over_worlds([](S l, S) { return l.p50_us; }), "us", n_lat);
  m.note("p90_us", over_worlds([](S l, S) { return l.p90_us; }), "us", n_lat);
  m.note("ops_per_s", over_worlds([](S l, S) { return l.ops_per_s; }), "1/s",
         n_bursts);
  m.note("bare_latency_us", over_worlds([](S, S b) { return b.latency_us; }),
         "us", n_lat);
  m.note("bare_p90_us", over_worlds([](S, S b) { return b.p90_us; }), "us",
         n_lat);
  m.note("bare_ops_per_s", over_worlds([](S, S b) { return b.ops_per_s; }),
         "1/s", n_bursts);

  const Collective c(w, 0, a.seed);
  details.str("plan", plan_label(c.stages()))
      .num("worlds", worlds)
      .str("world_latency_us_library_bare", world_latency)
      .num("p99_us", over_worlds([](S l, S) { return l.p99_us; }))
      .num("predicted_us_ibm_sp1", c.predicted_us(model::ibm_sp1()))
      .num("throughput_batch_calls", w.throughput_batch)
      .num("bare_failed", static_cast<double>(bare_failed));
  return tally.failed == 0 && tally.self_test_caught && bare_failed == 0;
}

/// Per-call sums of each layer's spans, max over ranks per call.
std::vector<std::vector<double>> layer_times(const World& world) {
  const std::size_t calls = [&] {
    std::int32_t last = -1;
    for (const Span& s : world.ranks.front().spans) last = std::max(last, s.call);
    return static_cast<std::size_t>(last + 1);
  }();
  std::vector<std::vector<double>> out(
      perfbench::kLayerCount + 1, std::vector<double>(calls, 0.0));
  for (const RankReport& r : world.ranks) {
    std::vector<std::vector<double>> mine(
        perfbench::kLayerCount + 1, std::vector<double>(calls, 0.0));
    for (const Span& s : r.spans) {
      const double us = us_between(s.start_ns, s.end_ns);
      mine[static_cast<std::size_t>(s.layer)][static_cast<std::size_t>(s.call)] += us;
      // Last row: the call's time not covered by any child span.
      mine.back()[static_cast<std::size_t>(s.call)] +=
          s.parent < 0 ? us : -us;
    }
    for (std::size_t l = 0; l < out.size(); ++l) {
      for (std::size_t i = 0; i < calls; ++i) {
        out[l][i] = std::max(out[l][i], mine[l][i]);
      }
    }
  }
  return out;
}

void write_spans(const std::string& path, const World& world) {
  if (path.empty()) return;
  std::ofstream out(path);
  out << "rank,span,parent,call,name,start_ns,end_ns\n";
  for (std::size_t r = 0; r < world.ranks.size(); ++r) {
    const std::vector<Span>& spans = world.ranks[r].spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      out << r << ',' << i << ',' << spans[i].parent << ',' << spans[i].call
          << ',' << perfbench::layer_name(spans[i].layer) << ','
          << spans[i].start_ns << ',' << spans[i].end_ns << '\n';
    }
  }
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

bool measure_layers(const Args& a, Metrics& m, Obj& details, Tally& tally) {
  const Workload& w = *a.workload;
  const double secs = a.seconds;
  std::vector<double> spawns;
  for (const World& s : setup_worlds(w, 40)) spawns.push_back(s.spawn_s);

  // Untraced reference: the facade with tracing off.
  const Reference reference(w, kRecvTimeout);
  const World plain = run_world(
      w, false, [&](mps::Communicator& comm, const SpinBarrier& bracket) {
        return end_to_end_body(comm, bracket, reference, w, a.seed, 0.05 * secs,
                               0.35 * secs, 0.0);
      });
  tally.add(plain);
  std::int64_t plain_bare_failed = 0;
  for (const RankReport& r : plain.ranks) plain_bare_failed += r.bare_failed;
  const std::vector<double> lat = max_over_ranks(plain.ranks,
                                                 &RankReport::latency_us);
  const double untraced_p50 = median(lat);

  const World traced = run_world(
      w, true, [&](mps::Communicator& comm, const SpinBarrier& bracket) {
        return traced_body(comm, bracket, w, a.seed, 0.05 * secs, 0.25 * secs,
                           0.6 * secs);
      });
  tally.add(traced);
  write_spans(a.spans_path, traced);

  const Collective c(w, 0, a.seed);
  const std::vector<Stage> stages = c.stages();
  const RankReport& r0 = traced.ranks.front();

  // Exact counts: the tag-0 trace holds only the collective calls.
  const bruck::sched::Schedule tag0 = traced.trace->to_schedule_for_tag(0);
  const model::CostMetrics traced_m = tag0.metrics();
  std::int64_t msgs = 0;
  for (const bruck::sched::Round& round : tag0.rounds()) {
    msgs += static_cast<std::int64_t>(round.transfers.size());
  }
  model::CostMetrics closed;
  std::int64_t rounds_per_call = 0;
  for (const Stage& st : stages) {
    closed.c1 += st.closed_form.c1;
    closed.c2 += st.closed_form.c2;
    closed.total_bytes += st.closed_form.total_bytes;
    rounds_per_call += st.plan->round_count();
  }
  const std::int64_t calls = r0.calls;
  const bool counts_exact = traced_m.c1 == calls * closed.c1 &&
                            traced_m.c2 == calls * closed.c2 &&
                            traced_m.total_bytes == calls * closed.total_bytes;

  // Plan-cache hits after warm-up: facade PlanEvents plus the traced
  // calls' own lookups.
  std::int64_t lookups = 0, hits = 0, bytes_reduced = 0;
  for (std::size_t rank = 0; rank < traced.ranks.size(); ++rank) {
    const RankReport& r = traced.ranks[rank];
    const auto& events = traced.trace->sink(static_cast<std::int64_t>(rank)).plans();
    for (std::size_t i = static_cast<std::size_t>(r.warmup_plan_events);
         i < events.size(); ++i) {
      ++lookups;
      hits += events[i].cache_hit ? 1 : 0;
    }
    lookups += r.lookups;
    hits += r.lookup_hits;
    bytes_reduced += r.bytes_reduced_per_call;
  }
  const double hit_ratio =
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0.0;

  const std::vector<std::vector<double>> layers = layer_times(traced);
  const auto layer = [&](Layer l) -> const std::vector<double>& {
    return layers[static_cast<std::size_t>(l)];
  };
  const std::vector<double> call_us = layer(Layer::kCall);
  const auto n_calls = static_cast<std::int64_t>(call_us.size());
  const std::vector<double> rounds = max_over_ranks(traced.ranks,
                                                    &RankReport::round_us);
  const std::vector<double> passes = max_over_ranks(traced.ranks,
                                                    &RankReport::pass_us);
  const double round_us = median(passes) / static_cast<double>(rounds_per_call);
  const double executor_us = median(layer(Layer::kExecutor));

  model::LinearModel calibrated{"calibrated", r0.beta_us, r0.tau_us_per_byte,
                                r0.gamma_us_per_byte};
  const double sp1_us = c.predicted_us(model::ibm_sp1());
  const double cal_us = c.predicted_us(calibrated);
  double calibrate_us = 0.0;
  std::vector<double> pack, combine;
  for (const RankReport& r : traced.ranks) {
    calibrate_us = std::max(calibrate_us, r.calibrate_us);
    pack.push_back(r.pack_gb_per_s);
    combine.push_back(r.combine_gb_per_s);
  }
  const auto n_ranks = static_cast<std::int64_t>(traced.ranks.size());
  const auto n_rounds = static_cast<std::int64_t>(rounds.size());
  const auto n_passes = static_cast<std::int64_t>(passes.size());

  m.add("fabric.round_us", round_us, "us", n_passes);
  m.add("fabric.round_p99_us", bruck::percentile(rounds, 99.0), "us", n_rounds);
  m.add("fabric.barrier_us",
        median(max_over_ranks(traced.ranks, &RankReport::barrier_us)), "us",
        static_cast<std::int64_t>(r0.barrier_us.size()));
  m.add("bootstrap.spawn_s", median(spawns), "s",
        static_cast<std::int64_t>(spawns.size()));
  m.add("tune.calibrate_s", calibrate_us / 1e6, "s", 1);
  m.add("model.resolve_us", median(layer(Layer::kResolve)), "us", n_calls);
  m.add("model.predicted_us", sp1_us, "us", 1);
  m.add("model.calibrated_us", cal_us, "us", 1);
  m.add("model.measured_over_predicted", untraced_p50 / cal_us, "ratio",
        static_cast<std::int64_t>(lat.size()));
  m.add("plan_cache.lookup_us", median(layer(Layer::kLookup)), "us", n_calls);
  m.add("plan_cache.hit_ratio", hit_ratio, "ratio", lookups);
  m.add("executor.run_us", executor_us, "us", n_calls);
  m.add("executor.self_us", executor_us - median(passes), "us", n_calls);
  m.add("pack.gb_per_s", median(pack), "GB/s", n_ranks);
  m.add("combine.gb_per_s", median(combine), "GB/s", n_ranks);
  m.add("trace.rounds_per_call",
        static_cast<double>(traced_m.c1) / static_cast<double>(calls), "count",
        calls);
  m.add("trace.msgs_per_call",
        static_cast<double>(msgs) / static_cast<double>(calls), "count", calls);
  m.add("trace.bytes_per_call",
        static_cast<double>(traced_m.total_bytes) / static_cast<double>(calls),
        "B", calls);
  m.add("trace.bytes_reduced_per_call", static_cast<double>(bytes_reduced),
        "B", n_calls);
  m.add("tail.p99_us", bruck::percentile(lat, 99.0), "us",
        static_cast<std::int64_t>(lat.size()));
  const std::vector<double> bare_lat =
      max_over_ranks(plain.ranks, &RankReport::bare_latency_us);
  m.add("bare.latency_us", interquartile_mean(bare_lat), "us",
        static_cast<std::int64_t>(bare_lat.size()));
  m.add("trace.overhead_us", median(call_us) - untraced_p50, "us", n_calls);
  m.add("trace.unaccounted_us", median(layers.back()), "us", n_calls);

  details.str("plan", plan_label(stages))
      .num("untraced_p50_us", untraced_p50)
      .num("traced_p50_us", median(call_us))
      .num("pack_stage_us", median(layer(Layer::kStageIn)) +
                                median(layer(Layer::kStageOut)))
      .raw("calibrated_model",
           Obj().num("beta_us", calibrated.beta_us)
               .num("tau_us_per_byte", calibrated.tau_us_per_byte)
               .num("gamma_us_per_byte", calibrated.gamma_us_per_byte)
               .json())
      .raw("closed_form_per_call", Obj()
                                       .num("c1", static_cast<double>(closed.c1))
                                       .num("c2", static_cast<double>(closed.c2))
                                       .num("total_bytes", static_cast<double>(
                                                               closed.total_bytes))
                                       .json())
      .raw("traced_per_call",
           Obj().num("c1", static_cast<double>(traced_m.c1) / calls)
               .num("c2", static_cast<double>(traced_m.c2) / calls)
               .num("total_bytes", static_cast<double>(traced_m.total_bytes) / calls)
               .json())
      .flag("counts_equal_closed_form", counts_exact)
      .flag("plan_cache_all_hits", hits == lookups)
      .str("spans_file", a.spans_path)
      .raw("executor_self_us_note",
           quoted("estimate: executor.run_us minus one probed pass of the "
                  "plan's rounds"));
  return tally.failed == 0 && tally.self_test_caught && counts_exact &&
         hits == lookups && lookups > 0 && plain_bare_failed == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: collbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <path>]\nworkloads:");
    for (const Workload& w : perfbench::workloads()) {
      std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                   w.name.data());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  // glibc adapts its mmap and trim thresholds to the process's allocation
  // history, and forked ranks inherit that state: allreduce's per-call
  // staging buffers were then either reused from the heap or freshly
  // mapped and faulted in on every call, depending on what the parent did
  // before forking (p50 250 µs vs 670 µs, same build).  Fixed thresholds
  // give every world the allocator policy of a warmed-up process.
  ::mallopt(M_MMAP_THRESHOLD, 16 << 20);
  ::mallopt(M_TRIM_THRESHOLD, 64 << 20);
  const auto knobs = clear_knobs();
  Metrics metrics;
  Obj details;
  Tally tally;
  try {
    const bool correct = args->trace
                             ? measure_layers(*args, metrics, details, tally)
                             : measure_end_to_end(*args, metrics, details, tally);
    emit(*args, details, metrics, tally, correct, knobs);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    // An exception or a receive timeout inside a call fails that call and
    // ends the run.
    tally.failed += 1;
    tally.attempted += 1;
    tally.first_failure = e.what();
    emit(*args, details, Metrics(), tally, false, knobs);
    return 1;
  }
}
