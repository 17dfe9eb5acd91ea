//===- bitvector_test.cpp - mark/allocation bit vector units -------------------//

#include "heap/BitVector8.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

using namespace cgc;

namespace {

/// Fixture owning an aligned fake heap region.
class BitVectorTest : public ::testing::Test {
protected:
  static constexpr size_t HeapBytes = 1u << 16;
  void SetUp() override {
    Mem.reset(static_cast<uint8_t *>(std::aligned_alloc(4096, HeapBytes)));
    Bits = std::make_unique<BitVector8>(Mem.get(), HeapBytes);
  }
  uint8_t *addr(size_t GranuleIndex) {
    return Mem.get() + GranuleIndex * GranuleBytes;
  }
  struct FreeDeleter {
    void operator()(uint8_t *P) const { std::free(P); }
  };
  std::unique_ptr<uint8_t, FreeDeleter> Mem;
  std::unique_ptr<BitVector8> Bits;
};

TEST_F(BitVectorTest, TestAndSetWinsOnce) {
  EXPECT_FALSE(Bits->test(addr(5)));
  EXPECT_TRUE(Bits->testAndSet(addr(5)));
  EXPECT_FALSE(Bits->testAndSet(addr(5)));
  EXPECT_TRUE(Bits->test(addr(5)));
  EXPECT_FALSE(Bits->test(addr(4)));
  EXPECT_FALSE(Bits->test(addr(6)));
}

TEST_F(BitVectorTest, SetAndClear) {
  Bits->set(addr(100));
  EXPECT_TRUE(Bits->test(addr(100)));
  Bits->clear(addr(100));
  EXPECT_FALSE(Bits->test(addr(100)));
}

TEST_F(BitVectorTest, ClearAll) {
  for (size_t I = 0; I < 100; I += 7)
    Bits->set(addr(I));
  Bits->clearAll();
  for (size_t I = 0; I < 100; ++I)
    EXPECT_FALSE(Bits->test(addr(I)));
}

TEST_F(BitVectorTest, FindNextSetWithinWord) {
  Bits->set(addr(10));
  EXPECT_EQ(Bits->findNextSet(addr(0), addr(64)), addr(10));
  EXPECT_EQ(Bits->findNextSet(addr(10), addr(64)), addr(10));
  EXPECT_EQ(Bits->findNextSet(addr(11), addr(64)), nullptr);
}

TEST_F(BitVectorTest, FindNextSetAcrossWords) {
  Bits->set(addr(200));
  EXPECT_EQ(Bits->findNextSet(addr(0), addr(4096)), addr(200));
  // Bit exactly at range end is excluded.
  EXPECT_EQ(Bits->findNextSet(addr(0), addr(200)), nullptr);
  EXPECT_EQ(Bits->findNextSet(addr(0), addr(201)), addr(200));
}

TEST_F(BitVectorTest, FindPrevSet) {
  EXPECT_EQ(Bits->findPrevSet(addr(100)), nullptr);
  Bits->set(addr(3));
  Bits->set(addr(70));
  EXPECT_EQ(Bits->findPrevSet(addr(100)), addr(70));
  EXPECT_EQ(Bits->findPrevSet(addr(70)), addr(3));
  EXPECT_EQ(Bits->findPrevSet(addr(4)), addr(3));
  EXPECT_EQ(Bits->findPrevSet(addr(3)), nullptr);
  EXPECT_EQ(Bits->findPrevSet(Mem.get()), nullptr);
}

TEST_F(BitVectorTest, ClearRangeWithinWord) {
  for (size_t I = 0; I < 64; ++I)
    Bits->set(addr(I));
  Bits->clearRange(addr(10), addr(20));
  for (size_t I = 0; I < 64; ++I)
    EXPECT_EQ(Bits->test(addr(I)), I < 10 || I >= 20) << I;
}

TEST_F(BitVectorTest, ClearRangeAcrossWords) {
  for (size_t I = 0; I < 300; ++I)
    Bits->set(addr(I));
  Bits->clearRange(addr(50), addr(250));
  for (size_t I = 0; I < 300; ++I)
    EXPECT_EQ(Bits->test(addr(I)), I < 50 || I >= 250) << I;
}

TEST_F(BitVectorTest, ClearRangeEmptyAndWordAligned) {
  Bits->set(addr(64));
  Bits->clearRange(addr(64), addr(64)); // Empty range: no-op.
  EXPECT_TRUE(Bits->test(addr(64)));
  Bits->clearRange(addr(64), addr(128)); // Exactly one word.
  EXPECT_FALSE(Bits->test(addr(64)));
}

TEST_F(BitVectorTest, CountInRange) {
  Bits->set(addr(1));
  Bits->set(addr(65));
  Bits->set(addr(130));
  EXPECT_EQ(Bits->countInRange(addr(0), addr(200)), 3u);
  EXPECT_EQ(Bits->countInRange(addr(2), addr(130)), 1u);
  EXPECT_EQ(Bits->countInRange(addr(2), addr(131)), 2u);
}

TEST_F(BitVectorTest, ForEachSetInRangeOrderAndEarlyStop) {
  Bits->set(addr(5));
  Bits->set(addr(7));
  Bits->set(addr(300));
  std::vector<uint8_t *> Seen;
  Bits->forEachSetInRange(addr(0), addr(4096), [&](uint8_t *P) {
    Seen.push_back(P);
    return true;
  });
  ASSERT_EQ(Seen.size(), 3u);
  EXPECT_EQ(Seen[0], addr(5));
  EXPECT_EQ(Seen[1], addr(7));
  EXPECT_EQ(Seen[2], addr(300));

  size_t Count = 0;
  Bits->forEachSetInRange(addr(0), addr(4096), [&](uint8_t *) {
    ++Count;
    return Count < 2; // Early stop after two.
  });
  EXPECT_EQ(Count, 2u);
}

TEST_F(BitVectorTest, ConcurrentTestAndSetExactlyOneWinner) {
  constexpr int NumThreads = 4;
  constexpr size_t NumGranules = 2048;
  std::vector<int> Wins(NumThreads, 0);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (size_t I = 0; I < NumGranules; ++I)
        if (Bits->testAndSet(addr(I)))
          ++Wins[T];
    });
  for (auto &Th : Threads)
    Th.join();
  int Total = 0;
  for (int W : Wins)
    Total += W;
  EXPECT_EQ(Total, static_cast<int>(NumGranules));
  for (size_t I = 0; I < NumGranules; ++I)
    EXPECT_TRUE(Bits->test(addr(I)));
}

/// The word-at-a-time range operations against bit-at-a-time answers
/// (one test() per granule) for every range over a seeded pattern
/// spanning four words plus a partial fifth.
TEST_F(BitVectorTest, WordRangeOpsMatchBitAtATime) {
  constexpr size_t Span = 300;
  Random Rng(0xb17);
  std::vector<bool> Pattern(Span);
  for (size_t G = 0; G < Span; ++G)
    Pattern[G] = Rng.nextBool(0.3);
  auto load = [&] {
    Bits->clearAll();
    for (size_t G = 0; G < Span; ++G)
      if (Pattern[G])
        Bits->set(addr(G));
  };
  load();
  for (size_t From = 0; From <= Span; ++From)
    for (size_t To = From; To <= Span; To += 1 + (To % 7)) {
      std::vector<uint8_t *> Expect;
      for (size_t G = From; G < To; ++G)
        if (Bits->test(addr(G)))
          Expect.push_back(addr(G));
      std::vector<uint8_t *> Seen;
      Bits->forEachSetInRange(addr(From), addr(To), [&](uint8_t *P) {
        Seen.push_back(P);
        return true;
      });
      ASSERT_EQ(Seen, Expect) << "forEachSetInRange [" << From << ", " << To
                              << ")";
      ASSERT_EQ(Bits->countInRange(addr(From), addr(To)), Expect.size())
          << "countInRange [" << From << ", " << To << ")";
      ASSERT_EQ(Bits->findNextSet(addr(From), addr(To)),
                Expect.empty() ? nullptr : Expect.front());
    }
  for (size_t From = 0; From <= Span; From += 3)
    for (size_t To = From; To <= Span; To += 1 + (To % 5)) {
      load();
      Bits->clearRange(addr(From), addr(To));
      for (size_t G = 0; G < Span; ++G)
        ASSERT_EQ(Bits->test(addr(G)), Pattern[G] && (G < From || G >= To))
            << "clearRange [" << From << ", " << To << ") granule " << G;
    }
}

TEST_F(BitVectorTest, CursorEnumeratesAndStaysExhausted) {
  Bits->set(addr(0));
  Bits->set(addr(63));
  Bits->set(addr(64));
  Bits->set(addr(HeapBytes / GranuleBytes - 1)); // The bitmap's last bit.
  BitVector8::SetBitCursor Cursor(*Bits, addr(0), Mem.get() + HeapBytes);
  EXPECT_EQ(Cursor.next(), addr(0));
  EXPECT_EQ(Cursor.next(), addr(63));
  EXPECT_EQ(Cursor.next(), addr(64));
  EXPECT_EQ(Cursor.next(), addr(HeapBytes / GranuleBytes - 1));
  EXPECT_EQ(Cursor.next(), nullptr);
  EXPECT_EQ(Cursor.next(), nullptr);
  BitVector8::SetBitCursor Empty(*Bits, addr(64), addr(64));
  EXPECT_EQ(Empty.next(), nullptr);
  // A range ending on a word boundary excludes the next word's bit 0.
  BitVector8::SetBitCursor OneWord(*Bits, addr(1), addr(64));
  EXPECT_EQ(OneWord.next(), addr(63));
  EXPECT_EQ(OneWord.next(), nullptr);
}

/// retainRange against a per-granule model: outside the guard window a
/// bit survives only if Keep has it; inside, every bit is untouched.
TEST_F(BitVectorTest, RetainRangeMatchesModelAroundGuardWindow) {
  BitVector8 Keep(Mem.get(), HeapBytes);
  constexpr size_t Words = 6, Span = 64 * Words;
  Random Rng(0x7e7a1);
  struct Window {
    size_t Lo, Hi;
  };
  const Window Windows[] = {{0, 0},     {70, 250},  {64, 128}, {100, 110},
                            {0, 5},     {380, 384}, {0, Span}, {63, 65},
                            {200, 900}};
  for (const Window &W : Windows)
    for (int Rep = 0; Rep < 20; ++Rep) {
      Bits->clearAll();
      Keep.clearAll();
      std::vector<bool> Mine(Span), Kept(Span);
      for (size_t G = 0; G < Span; ++G) {
        Mine[G] = Rng.nextBool(0.5);
        Kept[G] = Mine[G] && Rng.nextBool(0.5); // Keep is a subset.
        if (Mine[G])
          Bits->set(addr(G));
        if (Kept[G])
          Keep.set(addr(G));
      }
      // The range is words 1..4; words 0 and 5 are outside it.
      Bits->retainRange(Keep, addr(64), addr(Span - 64), addr(W.Lo),
                        addr(W.Hi));
      for (size_t G = 0; G < Span; ++G) {
        bool Inside = G >= 64 && G < Span - 64 && !(G >= W.Lo && G < W.Hi);
        ASSERT_EQ(Bits->test(addr(G)), Inside ? Kept[G] : Mine[G])
            << "window [" << W.Lo << ", " << W.Hi << ") granule " << G;
      }
    }
  // A range reaching the bitmap's end.
  Bits->clearAll();
  Keep.clearAll();
  size_t Last = HeapBytes / GranuleBytes - 1;
  Bits->set(addr(Last));
  Bits->set(addr(Last - 1));
  Keep.set(addr(Last - 1));
  Bits->retainRange(Keep, addr(Last - 63), Mem.get() + HeapBytes, nullptr,
                    nullptr);
  EXPECT_FALSE(Bits->test(addr(Last)));
  EXPECT_TRUE(Bits->test(addr(Last - 1)));
}

TEST_F(BitVectorTest, RetainRangeEdgeWordKeepsConcurrentWindowSets) {
  // A setter fills the guard window's part of a word the window cuts
  // while retainRange runs over that word again and again: the masked
  // edge edit must never drop one of its bits.
  BitVector8 Keep(Mem.get(), HeapBytes);
  constexpr size_t WinLo = 64 + 40, WinHi = 128 + 24;
  std::atomic<bool> Done{false};
  std::thread Setter([&] {
    for (int Round = 0; Round < 200; ++Round)
      for (size_t G = WinLo; G < WinHi; ++G)
        Bits->set(addr(G));
    Done.store(true, std::memory_order_release);
  });
  while (!Done.load(std::memory_order_acquire))
    Bits->retainRange(Keep, addr(64), addr(192), addr(WinLo), addr(WinHi));
  Setter.join();
  for (size_t G = WinLo; G < WinHi; ++G)
    EXPECT_TRUE(Bits->test(addr(G))) << G;
  EXPECT_EQ(Bits->countInRange(addr(0), addr(256)), WinHi - WinLo);
}

/// Property sweep: clearRange leaves exactly the complement set, for a
/// grid of (start, length) combinations crossing word boundaries.
class ClearRangeSweep
    : public BitVectorTest,
      public ::testing::WithParamInterface<std::pair<size_t, size_t>> {};

TEST_P(ClearRangeSweep, ComplementPreserved) {
  auto [Start, Len] = GetParam();
  for (size_t I = 0; I < 512; ++I)
    Bits->set(addr(I));
  Bits->clearRange(addr(Start), addr(Start + Len));
  for (size_t I = 0; I < 512; ++I)
    EXPECT_EQ(Bits->test(addr(I)), I < Start || I >= Start + Len) << I;
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, ClearRangeSweep,
    ::testing::Values(std::pair<size_t, size_t>{0, 1},
                      std::pair<size_t, size_t>{0, 64},
                      std::pair<size_t, size_t>{1, 63},
                      std::pair<size_t, size_t>{63, 1},
                      std::pair<size_t, size_t>{63, 2},
                      std::pair<size_t, size_t>{64, 64},
                      std::pair<size_t, size_t>{60, 200},
                      std::pair<size_t, size_t>{127, 130},
                      std::pair<size_t, size_t>{0, 512},
                      std::pair<size_t, size_t>{511, 1}));

} // namespace
