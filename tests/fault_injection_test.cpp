// Failure injection: wrap the communicator with faults (payload corruption,
// dropped messages, truncation) and assert that the verification machinery
// and the substrate's sequencing checks catch every one of them.  These are
// meta-tests — they establish that a silent-corruption bug in the library
// could not slip past the content checks the rest of the suite relies on.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "coll/api.hpp"
#include "coll/verify.hpp"
#include "mps/bootstrap.hpp"
#include "mps/runtime.hpp"
#include "test_util.hpp"
#include "util/assert.hpp"

namespace bruck::mps {
namespace {

using namespace std::chrono_literals;

enum class Fault {
  kNone,
  kFlipByte,      ///< corrupt one byte of one message
  kDropMessage,   ///< swallow one send entirely
  kTruncate,      ///< shorten one message by a byte
};

/// A communicator that injects a fault into the `target_send`-th send of
/// one designated rank.
class FaultyComm final : public Communicator {
 public:
  FaultyComm(Communicator& inner, Fault fault, std::int64_t faulty_rank,
             int target_send)
      : inner_(&inner),
        fault_(fault),
        faulty_rank_(faulty_rank),
        target_send_(target_send) {}

  [[nodiscard]] std::int64_t rank() const override { return inner_->rank(); }
  [[nodiscard]] std::int64_t size() const override { return inner_->size(); }
  [[nodiscard]] int ports() const override { return inner_->ports(); }
  void barrier() override { inner_->barrier(); }

  void exchange(int round, std::span<const SendSpec> sends,
                std::span<const RecvSpec> recvs) override {
    std::vector<SendSpec> patched(sends.begin(), sends.end());
    std::vector<std::vector<std::byte>> storage;
    if (rank() == faulty_rank_) {
      for (std::size_t i = 0; i < patched.size(); ++i) {
        if (send_counter_++ != target_send_) continue;
        switch (fault_) {
          case Fault::kNone:
            break;
          case Fault::kFlipByte: {
            storage.emplace_back(patched[i].data.begin(),
                                 patched[i].data.end());
            storage.back()[storage.back().size() / 2] ^= std::byte{0x40};
            patched[i].data = storage.back();
            break;
          }
          case Fault::kTruncate: {
            storage.emplace_back(patched[i].data.begin(),
                                 patched[i].data.end() - 1);
            patched[i].data = storage.back();
            break;
          }
          case Fault::kDropMessage: {
            patched.erase(patched.begin() + static_cast<std::ptrdiff_t>(i));
            break;
          }
        }
        break;
      }
    }
    inner_->exchange(round, patched, recvs);
  }

 private:
  Communicator* inner_;
  Fault fault_;
  std::int64_t faulty_rank_;
  int target_send_;
  int send_counter_ = 0;
};

/// Run the index collective under a fault; returns the first content error
/// (for corruption faults) — transport-level faults throw instead.
std::string run_with_fault(Fault fault, int target_send) {
  const std::int64_t n = 8;
  const std::int64_t b = 16;
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  FabricOptions options;
  options.n = n;
  options.k = 1;
  options.recv_timeout = 500ms;
  run_spmd(options, [&](Communicator& comm) {
    FaultyComm faulty(comm, fault, /*faulty_rank=*/3, target_send);
    std::vector<std::byte> send(static_cast<std::size_t>(n * b));
    std::vector<std::byte> recv(send.size());
    coll::fill_index_send(send, n, comm.rank(), b, 13);
    coll::alltoall(faulty, send, recv, b,
                   testutil::index_options(coll::IndexAlgorithm::kBruck, 2));
    errors[static_cast<std::size_t>(comm.rank())] =
        coll::check_index_recv(recv, n, comm.rank(), b, 13);
  });
  for (const std::string& e : errors) {
    if (!e.empty()) return e;
  }
  return {};
}

TEST(FaultInjection, CleanRunPassesThroughTheWrapper) {
  EXPECT_EQ(run_with_fault(Fault::kNone, 0), "");
}

TEST(FaultInjection, ByteFlipIsCaughtByContentCheck) {
  // Corrupting any send of rank 3 must surface as a content mismatch at
  // some receiver (possibly after forwarding — that is the point of
  // end-to-end payload verification).
  for (int target : {0, 1, 2}) {
    const std::string err = run_with_fault(Fault::kFlipByte, target);
    EXPECT_NE(err, "") << "flip of send " << target << " went unnoticed";
    EXPECT_NE(err.find("expected"), std::string::npos);
  }
}

TEST(FaultInjection, TruncationIsCaughtBySizeSequencing) {
  EXPECT_THROW((void)run_with_fault(Fault::kTruncate, 1), ContractViolation);
}

TEST(FaultInjection, DroppedMessageSurfacesAsTimeoutOrMismatch) {
  // The victim blocks on a receive that never comes (timeout) or — if a
  // later message from the same source arrives first — trips the sequence
  // check.  Either way: a loud ContractViolation, never silent corruption.
  EXPECT_THROW((void)run_with_fault(Fault::kDropMessage, 0),
               ContractViolation);
}

// ---------------------------------------------------------------------------
// Process-fabric faults: real rank processes dying, real sockets stalling.
// The contract is always the same — a *clean, prompt* ContractViolation in
// the survivors (propagated out of spawn_local), never a hang to the ctest
// timeout and never silent corruption.

/// A deliberately generous bound that is still far below the fabric's
/// receive deadline: failing it means the survivors sat out (part of) the
/// drain budget instead of reacting to the death signal.
constexpr auto kPromptness = std::chrono::seconds(20);

std::chrono::milliseconds timed_expect_spawn_failure(
    const SpawnOptions& options,
    const std::function<std::vector<std::byte>(Communicator&)>& body) {
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)spawn_local(options, body), ContractViolation);
  return std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
}

/// Body where rank 1 dies abruptly mid-collective while everyone else is
/// blocked waiting on its traffic.
std::vector<std::byte> die_mid_round_body(Communicator& comm) {
  const std::int64_t n = comm.size();
  const std::int64_t b = 64;
  std::vector<std::byte> send(static_cast<std::size_t>(n * b));
  std::vector<std::byte> recv(send.size());
  coll::fill_index_send(send, n, comm.rank(), b, 7);
  if (comm.rank() == 1) {
    ::_exit(3);  // no result record, no socket teardown, no shm unwind
  }
  coll::alltoall(comm, send, recv, b, {});
  return recv;
}

TEST(FaultInjection, ShmPeerDeathMidRoundFailsFastNotHangs) {
  SpawnOptions so;
  so.n = 4;
  so.k = 2;
  so.backend = FabricBackend::kShm;
  // A deadline far beyond the promptness bound: surviving ranks must be
  // unblocked by the launcher's abort flag, not by waiting this out.
  so.recv_timeout = std::chrono::milliseconds(120000);
  const auto elapsed = timed_expect_spawn_failure(so, die_mid_round_body);
  EXPECT_LT(elapsed, kPromptness)
      << "shm survivors waited out the deadline instead of aborting";
}

TEST(FaultInjection, SocketPeerDeathMidRoundFailsFastNotHangs) {
  SpawnOptions so;
  so.n = 4;
  so.k = 2;
  so.backend = FabricBackend::kSocket;
  so.recv_timeout = std::chrono::milliseconds(120000);
  const auto elapsed = timed_expect_spawn_failure(so, die_mid_round_body);
  EXPECT_LT(elapsed, kPromptness)
      << "socket survivors ignored the EOF from the dead peer";
}

TEST(FaultInjection, ShortSocketWritesStayBitwiseCorrect) {
  // Cap every ::send at 3 bytes: each 40-byte frame header crosses many
  // partial writes, so the outbox/reassembly paths run constantly.  The
  // run must still complete and match the thread oracle bitwise.
  const std::int64_t n = 3;
  const std::int64_t b = 96;
  const auto body = [n, b](Communicator& comm) {
    std::vector<std::byte> send(static_cast<std::size_t>(n * b));
    std::vector<std::byte> recv(send.size());
    coll::fill_index_send(send, n, comm.rank(), b, 23);
    coll::alltoall(comm, send, recv, b, {});
    return recv;
  };
  SpawnOptions oracle_opts;
  oracle_opts.n = n;
  oracle_opts.k = 2;
  oracle_opts.backend = FabricBackend::kThread;
  const SpawnResult oracle = spawn_local(oracle_opts, body);

  ASSERT_EQ(::setenv("BRUCK_SOCKET_MAX_WRITE_BYTES", "3", 1), 0);
  SpawnOptions so = oracle_opts;
  so.backend = FabricBackend::kSocket;
  so.recv_timeout = std::chrono::milliseconds(60000);
  const SpawnResult got = spawn_local(so, body);
  ::unsetenv("BRUCK_SOCKET_MAX_WRITE_BYTES");
  for (std::int64_t r = 0; r < n; ++r) {
    EXPECT_EQ(got.rank_payloads[static_cast<std::size_t>(r)],
              oracle.rank_payloads[static_cast<std::size_t>(r)])
        << "rank " << r << " diverged under forced short writes";
  }
}

TEST(FaultInjection, SocketDrainDeadlineExpiryIsCleanError) {
  // Rank 1 stays alive (no EOF, so peer-death detection cannot fire) but
  // never sends the message rank 0 is waiting on: the ONE-deadline drain
  // contract must surface a ContractViolation at ~the configured budget.
  SpawnOptions so;
  so.n = 2;
  so.k = 1;
  so.backend = FabricBackend::kSocket;
  so.recv_timeout = std::chrono::milliseconds(1200);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(
      (void)spawn_local(
          so,
          [](Communicator& comm) -> std::vector<std::byte> {
            if (comm.rank() == 0) {
              const PortHandle h = comm.post_recv_buffer(0, 1, 16);
              comm.wait_recv(h);  // never satisfied
              const auto payload = comm.take_payload(h);
              return {payload.begin(), payload.end()};
            }
            // Outlive rank 0's deadline without closing the connection.
            std::this_thread::sleep_for(std::chrono::milliseconds(4000));
            return {};
          }),
      ContractViolation);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  // One budget for the whole wait: well past 1.2 s, well short of 2×-plus
  // (per-step deadline resets would stretch this arbitrarily).
  EXPECT_GE(elapsed, std::chrono::milliseconds(1100));
  EXPECT_LT(elapsed, std::chrono::milliseconds(15000));
}

TEST(FaultInjection, ShmDrainDeadlineExpiryIsCleanError) {
  SpawnOptions so;
  so.n = 2;
  so.k = 1;
  so.backend = FabricBackend::kShm;
  so.recv_timeout = std::chrono::milliseconds(1200);
  EXPECT_THROW(
      (void)spawn_local(
          so,
          [](Communicator& comm) -> std::vector<std::byte> {
            if (comm.rank() == 0) {
              const PortHandle h = comm.post_recv_buffer(0, 1, 16);
              comm.wait_recv(h);
              const auto payload = comm.take_payload(h);
              return {payload.begin(), payload.end()};
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(4000));
            return {};
          }),
      ContractViolation);
}

TEST(FaultInjection, ConcatContentCheckCatchesCorruption) {
  const std::int64_t n = 9;
  const std::int64_t b = 8;
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  run_spmd(n, 1, [&](Communicator& comm) {
    FaultyComm faulty(comm, Fault::kFlipByte, /*faulty_rank=*/2,
                      /*target_send=*/1);
    std::vector<std::byte> send(static_cast<std::size_t>(b));
    std::vector<std::byte> recv(static_cast<std::size_t>(n * b));
    coll::fill_concat_send(send, comm.rank(), b, 19);
    coll::allgather(faulty, send, recv, b,
                    testutil::concat_options(coll::ConcatAlgorithm::kBruck));
    errors[static_cast<std::size_t>(comm.rank())] =
        coll::check_concat_recv(recv, n, b, 19);
  });
  bool any = false;
  for (const std::string& e : errors) any = any || !e.empty();
  EXPECT_TRUE(any) << "corrupted concat went unnoticed";
}

}  // namespace
}  // namespace bruck::mps
