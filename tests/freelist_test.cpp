//===- freelist_test.cpp - free list units -------------------------------------//

#include "heap/FreeList.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <thread>

using namespace cgc;

namespace {

class FreeListTest : public ::testing::Test {
protected:
  static constexpr size_t HeapBytes = 1u << 20;
  void SetUp() override {
    Mem.reset(static_cast<uint8_t *>(std::aligned_alloc(4096, HeapBytes)));
  }
  uint8_t *at(size_t Offset) { return Mem.get() + Offset; }
  struct FreeDeleter {
    void operator()(uint8_t *P) const { std::free(P); }
  };
  std::unique_ptr<uint8_t, FreeDeleter> Mem;
  FreeList List;
};

TEST_F(FreeListTest, EmptyList) {
  EXPECT_EQ(List.freeBytes(), 0u);
  EXPECT_EQ(List.numRanges(), 0u);
  EXPECT_EQ(List.largestRange(), 0u);
  EXPECT_EQ(List.allocate(16), nullptr);
}

TEST_F(FreeListTest, AddAndAllocateExact) {
  List.addRange(at(0), 1024);
  EXPECT_EQ(List.freeBytes(), 1024u);
  uint8_t *P = List.allocate(1024);
  EXPECT_EQ(P, at(0));
  EXPECT_EQ(List.freeBytes(), 0u);
}

TEST_F(FreeListTest, SplitLeavesRemainder) {
  List.addRange(at(0), 1024);
  uint8_t *P = List.allocate(256);
  EXPECT_EQ(P, at(0));
  EXPECT_EQ(List.freeBytes(), 768u);
  EXPECT_EQ(List.numRanges(), 1u);
  EXPECT_EQ(List.allocate(768), at(256));
}

TEST_F(FreeListTest, LargeRangesCoalesceWithPredecessor) {
  List.addRange(at(0), 8192);
  List.addRange(at(8192), 8192);
  EXPECT_EQ(List.numRanges(), 1u);
  EXPECT_EQ(List.largestRange(), 16384u);
}

TEST_F(FreeListTest, LargeRangesCoalesceWithSuccessor) {
  List.addRange(at(8192), 8192);
  List.addRange(at(0), 8192);
  EXPECT_EQ(List.numRanges(), 1u);
  EXPECT_EQ(List.largestRange(), 16384u);
}

TEST_F(FreeListTest, LargeRangesCoalesceBothSides) {
  List.addRange(at(0), 4096);
  List.addRange(at(8192), 4096);
  EXPECT_EQ(List.numRanges(), 2u);
  List.addRange(at(4096), 4096); // Bridges the gap.
  EXPECT_EQ(List.numRanges(), 1u);
  EXPECT_EQ(List.largestRange(), 12288u);
}

TEST_F(FreeListTest, SmallRangesAreBinnedUnmerged) {
  // Small ranges deliberately do not coalesce: the next sweep rebuilds
  // maximal runs from the mark bitmap anyway.
  List.addRange(at(0), 512);
  List.addRange(at(512), 512);
  EXPECT_EQ(List.numRanges(), 2u);
  EXPECT_EQ(List.freeBytes(), 1024u);
  EXPECT_EQ(List.largestRange(), 512u);
  // A request needing the combined size fails...
  EXPECT_EQ(List.allocate(1024), nullptr);
  // ...but each piece is individually allocatable.
  EXPECT_NE(List.allocate(512), nullptr);
  EXPECT_NE(List.allocate(512), nullptr);
}

TEST_F(FreeListTest, SubGranuleRangesAreDropped) {
  // Ranges below the bin granularity are untracked (the sweep reclaims
  // them); accounting must not include them.
  List.addRange(at(0), 32);
  EXPECT_EQ(List.freeBytes(), 0u);
  EXPECT_EQ(List.numRanges(), 0u);
}

TEST_F(FreeListTest, NonAdjacentStaysSeparate) {
  List.addRange(at(0), 512);
  List.addRange(at(1024), 512);
  EXPECT_EQ(List.numRanges(), 2u);
  EXPECT_EQ(List.freeBytes(), 1024u);
  // First fit on a size only the combined range could satisfy fails.
  EXPECT_EQ(List.allocate(1024), nullptr);
}

TEST_F(FreeListTest, AllocateUpToPrefersFullSize) {
  List.addRange(at(0), 4096);
  size_t Granted = 0;
  uint8_t *P = List.allocateUpTo(256, 1024, Granted);
  EXPECT_EQ(P, at(0));
  EXPECT_EQ(Granted, 1024u);
}

TEST_F(FreeListTest, AllocateUpToFallsBackToLargestFit) {
  List.addRange(at(0), 300);
  List.addRange(at(4096), 500);
  size_t Granted = 0;
  uint8_t *P = List.allocateUpTo(256, 1024, Granted);
  EXPECT_EQ(P, at(4096)); // The larger of the two fallbacks.
  EXPECT_EQ(Granted, 500u);
  // Below MinSize everywhere: fails.
  size_t G2 = 0;
  EXPECT_EQ(List.allocateUpTo(400, 1024, G2), nullptr);
  EXPECT_EQ(List.freeBytes(), 300u);
}

TEST_F(FreeListTest, SnapshotRangesOrdered) {
  List.addRange(at(2048), 128);
  List.addRange(at(0), 64);
  auto Ranges = List.snapshotRanges();
  ASSERT_EQ(Ranges.size(), 2u);
  EXPECT_EQ(Ranges[0].first, at(0));
  EXPECT_EQ(Ranges[0].second, 64u);
  EXPECT_EQ(Ranges[1].first, at(2048));
  EXPECT_EQ(Ranges[1].second, 128u);
}

TEST_F(FreeListTest, ClearDropsEverything) {
  List.addRange(at(0), 4096);
  List.clear();
  EXPECT_EQ(List.freeBytes(), 0u);
  EXPECT_EQ(List.numRanges(), 0u);
}

TEST_F(FreeListTest, RandomizedChurnPreservesAccounting) {
  // Property: freeBytes always equals the sum of snapshot ranges, and
  // ranges never overlap, across a random add/allocate interleaving.
  Random Rng(42);
  List.addRange(at(0), HeapBytes);
  std::vector<std::pair<uint8_t *, size_t>> Held;
  for (int I = 0; I < 2000; ++I) {
    if (Rng.nextBool(0.6) || Held.empty()) {
      size_t Want = 64 * (1 + Rng.nextBelow(64));
      if (uint8_t *P = List.allocate(Want)) {
        Held.emplace_back(P, Want);
      }
    } else {
      size_t Pick = Rng.nextBelow(Held.size());
      List.addRange(Held[Pick].first, Held[Pick].second);
      Held.erase(Held.begin() + Pick);
    }
  }
  auto Ranges = List.snapshotRanges();
  size_t Sum = 0;
  for (size_t I = 0; I < Ranges.size(); ++I) {
    Sum += Ranges[I].second;
    if (I + 1 < Ranges.size())
      EXPECT_LE(Ranges[I].first + Ranges[I].second, Ranges[I + 1].first);
  }
  EXPECT_EQ(Sum, List.freeBytes());
  // Returning everything restores the accounting (small ranges stay
  // binned unmerged; a sweep would re-coalesce from the bitmap).
  for (auto &[P, S] : Held)
    List.addRange(P, S);
  EXPECT_EQ(List.freeBytes(), HeapBytes);
}

TEST_F(FreeListTest, WithdrawWithinDropsInsideRanges) {
  List.addRange(at(0), 8192);          // Large, straddles Lo.
  List.addRange(at(16384), 512);       // Small, fully inside.
  List.addRange(at(64 * 1024), 8192);  // Large, fully outside.
  size_t Withdrawn = List.withdrawWithin(at(4096), at(32768));
  // 4 KB of the straddler plus the 512-byte bin entry.
  EXPECT_EQ(Withdrawn, 4096u + 512u);
  // The straddler's outside part survives.
  auto Ranges = List.snapshotRanges();
  ASSERT_EQ(Ranges.size(), 2u);
  EXPECT_EQ(Ranges[0].first, at(0));
  EXPECT_EQ(Ranges[0].second, 4096u);
  EXPECT_EQ(Ranges[1].first, at(64 * 1024));
  EXPECT_EQ(Ranges[1].second, 8192u);
  EXPECT_EQ(List.freeBytes(), 4096u + 8192u);
  // Nothing inside the window is allocatable any more.
  uint8_t *P = List.allocate(4096);
  EXPECT_TRUE(P == nullptr || P < at(4096) || P >= at(32768));
}

TEST_F(FreeListTest, WithdrawWithinStraddlingHighBoundary) {
  List.addRange(at(0), 65536);
  size_t Withdrawn = List.withdrawWithin(at(8192), at(16384));
  EXPECT_EQ(Withdrawn, 8192u);
  EXPECT_EQ(List.freeBytes(), 65536u - 8192u);
  auto Ranges = List.snapshotRanges();
  ASSERT_EQ(Ranges.size(), 2u);
  EXPECT_EQ(Ranges[0].first, at(0));
  EXPECT_EQ(Ranges[0].second, 8192u);
  EXPECT_EQ(Ranges[1].first, at(16384));
  EXPECT_EQ(Ranges[1].second, 65536u - 16384u);
}

TEST_F(FreeListTest, BatchInsertMatchesOneByOne) {
  // N address-ordered ranges through addRanges must leave exactly the
  // state N addRange calls leave: sub-64 B crumbs dropped, the
  // small/large split at BinThresholdBytes, and large ranges coalesced
  // with each other and with large neighbours already present.
  Random Rng(7);
  std::vector<FreeRange> Present, Batch;
  size_t Offset = 0;
  for (;;) {
    size_t Size;
    switch (Rng.nextBelow(3)) {
    case 0: Size = 8 * Rng.nextInRange(1, 7); break;  // Crumb.
    case 1: Size = 8 * Rng.nextInRange(8, 511); break; // Small.
    default: Size = 8 * Rng.nextInRange(512, 2048);    // Large.
    }
    if (Offset + Size > HeapBytes)
      break;
    // Every fifth large range is already present before the batch.
    bool Preexisting =
        Size >= FreeList::BinThresholdBytes && Rng.nextBelow(5) == 0;
    (Preexisting ? Present : Batch).emplace_back(at(Offset), Size);
    // Half the ranges abut their successor, so large runs can merge.
    Offset += Size + (Rng.nextBool(0.5) ? 0 : 8 * Rng.nextInRange(1, 64));
  }
  ASSERT_GT(Batch.size(), 100u);

  FreeList Batched(/*RefillThresholdBytes=*/512);
  FreeList OneByOne(/*RefillThresholdBytes=*/512);
  for (auto [Start, Size] : Present) {
    Batched.addRange(Start, Size);
    OneByOne.addRange(Start, Size);
  }
  uint64_t Before = Batched.lockAcquisitions();
  Batched.addRanges(Batch);
  EXPECT_EQ(Batched.lockAcquisitions() - Before, 1u);
  for (auto [Start, Size] : Batch)
    OneByOne.addRange(Start, Size);

  EXPECT_EQ(Batched.snapshotRanges(), OneByOne.snapshotRanges());
  EXPECT_EQ(Batched.freeBytes(), OneByOne.freeBytes());
  EXPECT_EQ(Batched.refillableFreeBytes(), OneByOne.refillableFreeBytes());
  EXPECT_EQ(Batched.numRanges(), OneByOne.numRanges());
  EXPECT_LT(Batched.refillableFreeBytes(), Batched.freeBytes());
  // Coalescing happened: fewer ranges than were inserted (crumbs aside).
  EXPECT_LT(Batched.numRanges(), Present.size() + Batch.size());
}

TEST_F(FreeListTest, BatchOfCrumbsTakesNoLock) {
  std::vector<FreeRange> Crumbs = {{at(0), 8}, {at(64), 56}, {at(256), 32}};
  List.addRanges(Crumbs);
  EXPECT_EQ(List.lockAcquisitions(), 0u);
  EXPECT_EQ(List.freeBytes(), 0u);
  EXPECT_EQ(List.numRanges(), 0u);
}

TEST_F(FreeListTest, BatchClipsToTheWindow) {
  // A shard's share of a batch: the first range straddles in from
  // below, the last out above, and only the inside parts are kept.
  std::vector<FreeRange> Ranges = {
      {at(0), 8192}, {at(12288), 256}, {at(16384), 8192}};
  List.addRanges(Ranges, at(4096), at(20480));
  auto Kept = List.snapshotRanges();
  ASSERT_EQ(Kept.size(), 3u);
  EXPECT_EQ(Kept[0], FreeRange(at(4096), 4096));
  EXPECT_EQ(Kept[1], FreeRange(at(12288), 256));
  EXPECT_EQ(Kept[2], FreeRange(at(16384), 4096));
  EXPECT_EQ(List.freeBytes(), 4096u + 256u + 4096u);
}

TEST_F(FreeListTest, ConcurrentAllocatorsDisjointBlocks) {
  List.addRange(at(0), HeapBytes);
  constexpr int NumThreads = 4;
  std::vector<std::vector<uint8_t *>> Got(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (int I = 0; I < 500; ++I)
        if (uint8_t *P = List.allocate(128))
          Got[T].push_back(P);
    });
  for (auto &Th : Threads)
    Th.join();
  std::vector<uint8_t *> All;
  for (auto &V : Got)
    All.insert(All.end(), V.begin(), V.end());
  std::sort(All.begin(), All.end());
  for (size_t I = 0; I + 1 < All.size(); ++I)
    EXPECT_GE(All[I + 1] - All[I], 128) << "overlapping allocations";
}

} // namespace
