// Process groups: collectives over ordered subsets of the fabric, including
// the Appendix A processor-id-array semantics and concurrent disjoint
// groups.
#include "mps/group.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "coll/verify.hpp"
#include "mps/runtime.hpp"
#include "test_util.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace bruck::mps {
namespace {

TEST(GroupComm, RankTranslation) {
  run_spmd(6, 1, [&](Communicator& comm) {
    if (comm.rank() % 2 != 0) return;  // group of the even ranks
    GroupComm group(comm, {0, 2, 4});
    BRUCK_ENSURE(group.size() == 3);
    BRUCK_ENSURE(group.rank() == comm.rank() / 2);
    BRUCK_ENSURE(group.ports() == comm.ports());
    BRUCK_ENSURE(group.member(group.rank()) == comm.rank());
    BRUCK_ENSURE(group.getrank(4) == 2);
    BRUCK_ENSURE(group.getrank(1) == -1);
  });
}

TEST(GroupComm, RejectsBadMemberships) {
  EXPECT_THROW(run_spmd(4, 1,
                        [&](Communicator& comm) {
                          GroupComm group(comm, {0, 1, 1});  // duplicate
                        }),
               ContractViolation);
  EXPECT_THROW(run_spmd(4, 1,
                        [&](Communicator& comm) {
                          GroupComm group(comm, {0, 9});  // out of range
                        }),
               ContractViolation);
  EXPECT_THROW(run_spmd(2, 1,
                        [&](Communicator& comm) {
                          if (comm.rank() == 1) {
                            GroupComm group(comm, {0});  // caller not member
                          }
                        }),
               ContractViolation);
}

TEST(GroupComm, BarrierIsUnsupported) {
  EXPECT_THROW(run_spmd(2, 1,
                        [&](Communicator& comm) {
                          GroupComm group(comm, {0, 1});
                          group.barrier();
                        }),
               ContractViolation);
}

TEST(GroupComm, IndexInsideOneGroup) {
  // 8-rank fabric; the collective runs among ranks {1, 3, 5, 7} only.
  const std::int64_t b = 5;
  std::vector<std::string> errors(8);
  run_spmd(8, 1, [&](Communicator& comm) {
    if (comm.rank() % 2 == 0) return;
    GroupComm group(comm, {1, 3, 5, 7});
    const std::int64_t gn = group.size();
    const std::int64_t grank = group.rank();
    std::vector<std::byte> send(static_cast<std::size_t>(gn * b));
    std::vector<std::byte> recv(send.size());
    coll::fill_index_send(send, gn, grank, b, 17);
    coll::alltoall(group, send, recv, b,
                   testutil::index_options(coll::IndexAlgorithm::kBruck, 2));
    errors[static_cast<std::size_t>(comm.rank())] =
        coll::check_index_recv(recv, gn, grank, b, 17);
  });
  for (const std::string& e : errors) EXPECT_EQ(e, "");
}

TEST(GroupComm, DisjointGroupsRunConcurrently) {
  // Evens run an index among themselves while odds run a concatenation —
  // simultaneously, on one fabric, with the same round numbers.
  const std::int64_t b = 4;
  std::vector<std::string> errors(10);
  RunResult rr = run_spmd(10, 1, [&](Communicator& comm) {
    const std::int64_t me = comm.rank();
    if (me % 2 == 0) {
      GroupComm group(comm, {0, 2, 4, 6, 8});
      const std::int64_t gn = group.size();
      std::vector<std::byte> send(static_cast<std::size_t>(gn * b));
      std::vector<std::byte> recv(send.size());
      coll::fill_index_send(send, gn, group.rank(), b, 23);
      coll::alltoall(group, send, recv, b,
                     testutil::index_options(coll::IndexAlgorithm::kBruck, 3));
      errors[static_cast<std::size_t>(me)] =
          coll::check_index_recv(recv, gn, group.rank(), b, 23);
    } else {
      GroupComm group(comm, {1, 3, 5, 7, 9});
      const std::int64_t gn = group.size();
      std::vector<std::byte> send(static_cast<std::size_t>(b));
      std::vector<std::byte> recv(static_cast<std::size_t>(gn * b));
      coll::fill_concat_send(send, group.rank(), b, 29);
      coll::allgather(group, send, recv, b,
                      testutil::concat_options(coll::ConcatAlgorithm::kBruck));
      errors[static_cast<std::size_t>(me)] =
          coll::check_concat_recv(recv, gn, b, 29);
    }
  });
  for (const std::string& e : errors) EXPECT_EQ(e, "");
  // The merged trace must still satisfy the k-port constraints per round.
  EXPECT_EQ(rr.trace->to_schedule().validate(), "");
}

TEST(GroupComm, PermutedMemberOrderIsHonored) {
  // The member array is an *ordered* mapping (Appendix A's A[i] = p_i):
  // with members {3, 0, 2, 1}, group rank 0 is fabric rank 3.  After the
  // concatenation, group block i must be fabric rank members[i]'s data.
  const std::int64_t b = 3;
  const std::vector<std::int64_t> members{3, 0, 2, 1};
  std::vector<std::string> errors(4);
  run_spmd(4, 1, [&](Communicator& comm) {
    GroupComm group(comm, members);
    std::vector<std::byte> send(static_cast<std::size_t>(b));
    std::vector<std::byte> recv(static_cast<std::size_t>(4 * b));
    // Seed the payload by *fabric* rank so the expected order is visible.
    coll::fill_concat_send(send, comm.rank(), b, 31);
    coll::allgather(group, send, recv, b,
                    testutil::concat_options(coll::ConcatAlgorithm::kBruck));
    for (std::int64_t i = 0; i < 4; ++i) {
      for (std::int64_t off = 0; off < b; ++off) {
        const std::byte expect =
            payload_byte(31, members[static_cast<std::size_t>(i)], 0,
                         static_cast<std::size_t>(off));
        if (recv[static_cast<std::size_t>(i * b + off)] != expect) {
          errors[static_cast<std::size_t>(comm.rank())] =
              "group block order does not follow the member array";
          return;
        }
      }
    }
  });
  for (const std::string& e : errors) EXPECT_EQ(e, "");
}

TEST(GroupComm, SingletonGroupDegenerates) {
  run_spmd(3, 1, [&](Communicator& comm) {
    if (comm.rank() != 1) return;
    GroupComm group(comm, {1});
    std::vector<std::byte> send(4, std::byte{7});
    std::vector<std::byte> recv(4);
    coll::alltoall(group, send, recv, 4,
                   testutil::index_options(coll::IndexAlgorithm::kBruck, 2));
    BRUCK_ENSURE(recv == send);
  });
}

}  // namespace
}  // namespace bruck::mps
