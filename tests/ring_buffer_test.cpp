// The lock-free MPSC ring under contention: multi-producer hammering with
// per-producer FIFO and content verification, wraparound over a tiny
// capacity, backpressure (full-ring) behavior, byte accounting on the
// consumer side, and in-place consumption (a slot held between peek and
// release is never overwritten).  Runs in-process over heap memory so the TSan CI job checks
// the ring's synchronization story directly — the same code path the
// shared-memory fabric runs cross-process (where TSan cannot see).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "mps/ring_buffer.hpp"
#include "util/assert.hpp"

namespace bruck::mps {
namespace {

/// Aligned heap region for a ring of `capacity` bytes.
struct Region {
  explicit Region(std::size_t capacity)
      : mem(static_cast<std::byte*>(
            std::aligned_alloc(64, MpscByteRing::region_bytes(capacity)))) {
    BRUCK_REQUIRE(mem != nullptr);
  }
  ~Region() { std::free(mem); }
  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;
  std::byte* mem;
};

/// One consumed record, copied out of its slot (test-side bookkeeping).
struct Popped {
  WireFrame frame;
  std::vector<std::byte> payload;
};

/// Peek the oldest record, copy it out, release its slot.
bool pop(MpscByteRing& ring, Popped& out) {
  std::span<const std::byte> bytes;
  if (!ring.peek(out.frame, bytes)) return false;
  out.payload.assign(bytes.begin(), bytes.end());
  ring.release();
  return true;
}

std::vector<std::byte> pattern_payload(std::int64_t producer, std::int64_t i,
                                       std::size_t len) {
  std::vector<std::byte> p(len);
  for (std::size_t j = 0; j < len; ++j) {
    p[j] = static_cast<std::byte>(
        static_cast<unsigned>(producer * 131 + i * 7 + static_cast<int>(j)));
  }
  return p;
}

TEST(MpscByteRing, SingleProducerFifoWithWraparound) {
  constexpr std::size_t kCap = 4096;  // tiny: forces many laps and pads
  Region region(kCap);
  MpscByteRing ring = MpscByteRing::create(region.mem, kCap);
  MpscByteRing producer_view = MpscByteRing::open(region.mem);

  // Varied sizes so records land at awkward offsets and the tail-gap pad
  // path triggers repeatedly.
  const std::size_t sizes[] = {1, 37, 256, 777, 64, 1000, 8, 513};
  std::int64_t pushed = 0;
  std::int64_t popped = 0;
  std::size_t bytes_pushed = 0;
  std::size_t bytes_popped = 0;
  Popped m;
  for (int lap = 0; lap < 200; ++lap) {
    for (const std::size_t len : sizes) {
      const auto payload = pattern_payload(1, pushed, len);
      WireFrame f;
      f.src = 1;
      f.seq = pushed;
      f.tag = 7;
      f.round = static_cast<std::int32_t>(lap);
      while (!producer_view.try_push(f, payload)) {
        // Full: drain one record on the consumer side and retry.
        ASSERT_TRUE(pop(ring, m));
        ASSERT_EQ(m.frame.seq, popped);
        bytes_popped += m.payload.size();
        ++popped;
      }
      bytes_pushed += len;
      ++pushed;
    }
  }
  while (pop(ring, m)) {
    ASSERT_EQ(m.frame.seq, popped);
    ASSERT_EQ(m.frame.tag, 7);
    const auto expect = pattern_payload(1, popped, m.payload.size());
    ASSERT_EQ(std::memcmp(m.payload.data(), expect.data(), expect.size()), 0);
    bytes_popped += m.payload.size();
    ++popped;
  }
  EXPECT_EQ(popped, pushed);
  EXPECT_EQ(bytes_popped, bytes_pushed);
  EXPECT_FALSE(ring.readable());
}

TEST(MpscByteRing, PoppedBytesMatchPushedBytes) {
  constexpr std::size_t kCap = 1 << 16;
  Region region(kCap);
  MpscByteRing ring = MpscByteRing::create(region.mem, kCap);

  std::size_t queued = 0;
  for (std::int64_t i = 0; i < 20; ++i) {
    const std::size_t len = 100 + static_cast<std::size_t>(i) * 13;
    ASSERT_TRUE(ring.try_push(WireFrame{0, i, 0, 0},
                              pattern_payload(0, i, len)));
    queued += len;
  }
  Popped m;
  std::int64_t next = 0;
  while (pop(ring, m)) {
    EXPECT_EQ(m.payload.size(), 100 + static_cast<std::size_t>(next) * 13);
    ++next;
    queued -= m.payload.size();
  }
  EXPECT_EQ(next, 20);
  EXPECT_EQ(queued, 0u);
}

/// In-place consumption across many laps: a producer thread keeps pushing
/// records of mixed sizes (wrap pads on most laps) into a tiny ring while
/// the consumer verifies each record straight out of its slot, holds the
/// slot until the producer has pushed more or found the ring full, checks
/// the bytes again — they must not have changed — and only then releases
/// it.
TEST(MpscByteRing, InPlaceSlotsSurviveProducerPressureOverManyLaps) {
  constexpr std::size_t kCap = 4096;
  constexpr std::int64_t kRecords = 40000;
  Region region(kCap);
  MpscByteRing consumer = MpscByteRing::create(region.mem, kCap);
  const std::size_t sizes[] = {1, 900, 37, 1500, 256, 8, 1200, 513, 64, 333};

  std::atomic<std::int64_t> pushed{0};
  std::atomic<bool> failed{false};
  std::jthread producer([&] {
    MpscByteRing ring = MpscByteRing::open(region.mem);
    for (std::int64_t i = 0; i < kRecords; ++i) {
      const auto payload = pattern_payload(3, i, sizes[i % 10]);
      const WireFrame f{3, i, static_cast<std::int32_t>(i % 5),
                        static_cast<std::int32_t>(i / 10)};
      while (!ring.try_push(f, payload)) {
        if (failed.load(std::memory_order_relaxed)) return;
        std::this_thread::yield();
      }
      pushed.store(i + 1, std::memory_order_release);
    }
  });

  std::size_t bytes_consumed = 0;
  std::size_t bytes_expected = 0;
  std::int64_t holds = 0;
  for (std::int64_t i = 0; i < kRecords; ++i) {
    WireFrame f;
    std::span<const std::byte> slot;
    while (!consumer.peek(f, slot)) std::this_thread::yield();
    const std::size_t len = sizes[i % 10];
    const auto expect = pattern_payload(3, i, len);
    const bool frame_ok = f.src == 3 && f.seq == i && f.tag == i % 5 &&
                          f.round == static_cast<std::int32_t>(i / 10);
    if (!frame_ok || slot.size() != len ||
        std::memcmp(slot.data(), expect.data(), len) != 0) {
      failed.store(true);
      FAIL() << "record " << i << " arrived with a wrong frame or payload";
    }
    if (i % 7 == 0) {
      // Hold the slot while the producer pushes on (until it has pushed a
      // few more records or has had ample chance to lap into the slot).
      const std::int64_t seen = pushed.load(std::memory_order_acquire);
      for (int spin = 0; spin < 2000 &&
                         pushed.load(std::memory_order_acquire) < seen + 3;
           ++spin) {
        std::this_thread::yield();
      }
      if (std::memcmp(slot.data(), expect.data(), len) != 0) {
        failed.store(true);
        FAIL() << "record " << i << " was overwritten while its slot was held";
      }
      ++holds;
    }
    consumer.release();
    bytes_consumed += slot.size();
    bytes_expected += len;
  }
  producer.join();
  EXPECT_EQ(bytes_consumed, bytes_expected);
  // ≥ 1000 laps of the 4 KiB ring.
  EXPECT_GE(bytes_consumed, 1000 * kCap);
  EXPECT_GT(holds, 0);
  WireFrame f;
  std::span<const std::byte> slot;
  EXPECT_FALSE(consumer.peek(f, slot));
}

TEST(MpscByteRing, OversizedSegmentThrows) {
  constexpr std::size_t kCap = 4096;
  Region region(kCap);
  MpscByteRing ring = MpscByteRing::create(region.mem, kCap);
  std::vector<std::byte> huge(kCap);  // > capacity/2 − header
  EXPECT_THROW((void)ring.try_push(WireFrame{}, huge), ContractViolation);
}

/// The satellite stress test: several producer threads hammer one ring with
/// randomized-size payloads through a deliberately small capacity (constant
/// backpressure, constant wraparound), while the consumer verifies strict
/// per-producer FIFO via sequence numbers and bitwise payload integrity.
/// Run under TSan in CI (the tsan job runs the whole suite).
TEST(MpscByteRing, MultiProducerStress) {
  constexpr std::size_t kCap = 1 << 14;  // 16 KiB: heavy contention
  constexpr int kProducers = 4;
  constexpr std::int64_t kPerProducer = 4000;
  Region region(kCap);
  MpscByteRing consumer = MpscByteRing::create(region.mem, kCap);

  std::atomic<bool> failed{false};
  std::vector<std::jthread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      MpscByteRing ring = MpscByteRing::open(region.mem);
      // Deterministic but different per producer; sizes hit the pad path.
      for (std::int64_t i = 0; i < kPerProducer; ++i) {
        const std::size_t len =
            1 + static_cast<std::size_t>((p * 997 + i * 31) % 700);
        const auto payload = pattern_payload(p, i, len);
        WireFrame f;
        f.src = p;
        f.seq = i;
        f.tag = 0;
        f.round = 0;
        while (!ring.try_push(f, payload)) {
          if (failed.load(std::memory_order_relaxed)) return;
          std::this_thread::yield();
        }
      }
    });
  }

  std::vector<std::int64_t> next_seq(kProducers, 0);
  std::vector<std::size_t> bytes_from(kProducers, 0);
  std::int64_t received = 0;
  Popped m;
  while (received < kProducers * kPerProducer) {
    if (!pop(consumer, m)) {
      std::this_thread::yield();
      continue;
    }
    const auto p = static_cast<std::size_t>(m.frame.src);
    ASSERT_LT(m.frame.src, kProducers);
    if (m.frame.seq != next_seq[p]) {
      failed.store(true, std::memory_order_relaxed);
      FAIL() << "producer " << m.frame.src << " delivered seq " << m.frame.seq
             << " expected " << next_seq[p] << " (FIFO violated)";
    }
    const auto expect =
        pattern_payload(m.frame.src, m.frame.seq, m.payload.size());
    if (std::memcmp(m.payload.data(), expect.data(), expect.size()) != 0) {
      failed.store(true, std::memory_order_relaxed);
      FAIL() << "payload corrupted for producer " << m.frame.src << " seq "
             << m.frame.seq;
    }
    bytes_from[p] += m.payload.size();
    ++next_seq[p];
    ++received;
  }
  for (int p = 0; p < kProducers; ++p) {
    std::size_t sent = 0;
    for (std::int64_t i = 0; i < kPerProducer; ++i) {
      sent += 1 + static_cast<std::size_t>((p * 997 + i * 31) % 700);
    }
    EXPECT_EQ(bytes_from[static_cast<std::size_t>(p)], sent);
  }
  Popped leftover;
  EXPECT_FALSE(pop(consumer, leftover));
}

}  // namespace
}  // namespace bruck::mps
