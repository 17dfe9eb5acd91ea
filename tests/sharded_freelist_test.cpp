//===- sharded_freelist_test.cpp - sharded free-space manager units ------------//

#include "heap/ShardedFreeList.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <thread>

using namespace cgc;

namespace {

class ShardedFreeListTest : public ::testing::Test {
protected:
  static constexpr size_t RegionBytes = 8u << 20;
  void SetUp() override {
    Mem.reset(static_cast<uint8_t *>(std::aligned_alloc(4096, RegionBytes)));
  }
  uint8_t *at(size_t Offset) { return Mem.get() + Offset; }
  struct FreeDeleter {
    void operator()(uint8_t *P) const { std::free(P); }
  };
  std::unique_ptr<uint8_t, FreeDeleter> Mem;
};

/// Every snapshot range must lie entirely inside one shard.
void expectNoBoundaryCrossing(const ShardedFreeList &List) {
  for (auto [Start, Size] : List.snapshotRanges())
    EXPECT_EQ(List.shardIndexFor(Start), List.shardIndexFor(Start + Size - 1))
        << "free range crosses a shard boundary";
}

/// Snapshot ranges must be address-ordered and non-overlapping.
void expectDisjointOrdered(const ShardedFreeList &List) {
  auto Ranges = List.snapshotRanges();
  for (size_t I = 0; I + 1 < Ranges.size(); ++I)
    EXPECT_LE(Ranges[I].first + Ranges[I].second, Ranges[I + 1].first)
        << "overlapping free ranges";
}

TEST(ShardCountResolution, AutoPicksPowerOfTwoUpToEight) {
  unsigned Auto = ShardedFreeList::resolveShardCount(0, 64u << 20, 4096);
  EXPECT_GE(Auto, 1u);
  EXPECT_LE(Auto, 8u);
  EXPECT_EQ(Auto & (Auto - 1), 0u) << "auto count must be a power of two";
}

TEST(ShardCountResolution, RoundsDownToPowerOfTwo) {
  EXPECT_EQ(ShardedFreeList::resolveShardCount(3, 64u << 20, 4096), 2u);
  EXPECT_EQ(ShardedFreeList::resolveShardCount(7, 64u << 20, 4096), 4u);
  EXPECT_EQ(ShardedFreeList::resolveShardCount(8, 64u << 20, 4096), 8u);
}

TEST(ShardCountResolution, ClampsToMinimumShardSpan) {
  // 1 MB heap with 32 KB caches: at most 32 shards could each span a
  // cache; requesting 64 must halve down.
  EXPECT_EQ(ShardedFreeList::resolveShardCount(64, 1u << 20, 32u << 10),
            32u);
  // Tiny heap: collapses to one shard rather than sub-page shards.
  EXPECT_EQ(ShardedFreeList::resolveShardCount(8, 8192, 4096), 2u);
}

TEST_F(ShardedFreeListTest, GeometryCoversTheRegion) {
  ShardedFreeList List(at(0), RegionBytes, 8);
  ASSERT_EQ(List.numShards(), 8u);
  EXPECT_EQ(List.shardSpanBytes(), RegionBytes / 8);
  EXPECT_EQ(List.shardIndexFor(at(0)), 0u);
  EXPECT_EQ(List.shardIndexFor(at(RegionBytes / 8)), 1u);
  EXPECT_EQ(List.shardIndexFor(at(RegionBytes - 1)), 7u);
}

TEST_F(ShardedFreeListTest, InsertSplitsAtShardBoundaries) {
  ShardedFreeList List(at(0), RegionBytes, 8);
  List.addRange(at(0), RegionBytes);
  EXPECT_EQ(List.freeBytes(), RegionBytes);
  // One maximal range per shard: boundaries split, interiors coalesce.
  EXPECT_EQ(List.numRanges(), 8u);
  expectNoBoundaryCrossing(List);
  for (unsigned I = 0; I < 8; ++I)
    EXPECT_EQ(List.shard(I).freeBytes(), RegionBytes / 8);
}

TEST_F(ShardedFreeListTest, StraddlingRangeLandsInBothOwners) {
  ShardedFreeList List(at(0), RegionBytes, 2);
  size_t Boundary = List.shardSpanBytes();
  List.addRange(at(Boundary - 8192), 16384);
  EXPECT_EQ(List.freeBytes(), 16384u);
  EXPECT_EQ(List.shard(0).freeBytes(), 8192u);
  EXPECT_EQ(List.shard(1).freeBytes(), 8192u);
  expectNoBoundaryCrossing(List);
}

TEST_F(ShardedFreeListTest, BatchLocksEachTouchedShardOnce) {
  // An address-ordered batch spanning shards 1-3, with one range
  // straddling the 1|2 boundary and one covering all of shard 2 and
  // running into 3: each touched shard is locked once, and the result
  // matches inserting the ranges one by one.
  ShardedFreeList Batched(at(0), RegionBytes, 4);
  ShardedFreeList OneByOne(at(0), RegionBytes, 4);
  size_t Span = Batched.shardSpanBytes();
  std::vector<FreeRange> Ranges = {
      {at(Span + 4096), 512},
      {at(Span + 8192), 8192},
      {at(2 * Span - 4096), 4096 + 128},
      {at(2 * Span + 4096), Span},
      {at(3 * Span + 8192), 64},
      {at(3 * Span + 9000), 40}, // Crumb: dropped.
  };
  Batched.addRanges(Ranges);
  for (auto [Start, Size] : Ranges)
    OneByOne.addRange(Start, Size);
  EXPECT_EQ(Batched.shard(0).lockAcquisitions(), 0u);
  for (unsigned I = 1; I < 4; ++I)
    EXPECT_EQ(Batched.shard(I).lockAcquisitions(), 1u) << "shard " << I;
  EXPECT_EQ(Batched.snapshotRanges(), OneByOne.snapshotRanges());
  EXPECT_EQ(Batched.freeBytes(), OneByOne.freeBytes());
  EXPECT_EQ(Batched.freeBytes(), 512u + 8192u + 4096u + 128u + Span + 64u);
  expectNoBoundaryCrossing(Batched);
}

TEST_F(ShardedFreeListTest, AllocatePrefersTheAffineShard) {
  ShardedFreeList List(at(0), RegionBytes, 4);
  size_t Span = List.shardSpanBytes();
  for (unsigned I = 0; I < 4; ++I)
    List.addRange(at(I * Span), 64 << 10);
  for (unsigned I = 0; I < 4; ++I) {
    uint8_t *P = List.allocate(4096, I);
    ASSERT_NE(P, nullptr);
    EXPECT_EQ(List.shardIndexFor(P), I) << "allocation ignored affinity";
  }
}

TEST_F(ShardedFreeListTest, ExhaustedShardStealsInRingOrder) {
  ShardedFreeList List(at(0), RegionBytes, 4);
  size_t Span = List.shardSpanBytes();
  // Only shards 1 and 3 hold memory; preferring shard 2 must steal from
  // 3 (the next in ring order), not 1.
  List.addRange(at(1 * Span), 64 << 10);
  List.addRange(at(3 * Span), 64 << 10);
  uint8_t *P = List.allocate(4096, 2);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(List.shardIndexFor(P), 3u);
  // Preferring shard 0 takes shard 1 first.
  uint8_t *Q = List.allocate(4096, 0);
  ASSERT_NE(Q, nullptr);
  EXPECT_EQ(List.shardIndexFor(Q), 1u);
}

TEST_F(ShardedFreeListTest, RefillPrefersFullGrantOverAffinePartial) {
  ShardedFreeList List(at(0), RegionBytes, 2);
  size_t Span = List.shardSpanBytes();
  // Preferred shard 0 holds only a partial range; shard 1 a full span.
  List.addRange(at(0), 8192);
  List.addRange(at(Span), 64 << 10);
  size_t Granted = 0;
  uint8_t *P = List.allocateUpTo(4096, 32u << 10, Granted, 0);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(Granted, 32u << 10);
  EXPECT_EQ(List.shardIndexFor(P), 1u)
      << "a full-size grant elsewhere must beat a partial affine grant";
  // With the full span gone, the partial grant from the affine shard.
  List.withdrawWithin(at(Span), at(2 * Span));
  uint8_t *Q = List.allocateUpTo(4096, 32u << 10, Granted, 0);
  ASSERT_NE(Q, nullptr);
  EXPECT_EQ(Granted, 8192u);
  EXPECT_EQ(List.shardIndexFor(Q), 0u);
}

TEST_F(ShardedFreeListTest, WithdrawWithinSpansShards) {
  ShardedFreeList List(at(0), RegionBytes, 4);
  size_t Span = List.shardSpanBytes();
  List.addRange(at(0), RegionBytes);
  // Window covering the tail of shard 0 through the head of shard 2.
  size_t Withdrawn = List.withdrawWithin(at(Span - 4096), at(2 * Span + 4096));
  EXPECT_EQ(Withdrawn, Span + 8192);
  EXPECT_EQ(List.freeBytes(), RegionBytes - Span - 8192);
  // Nothing inside the window remains allocatable.
  for (auto [Start, Size] : List.snapshotRanges())
    EXPECT_TRUE(Start + Size <= at(Span - 4096) ||
                Start >= at(2 * Span + 4096));
  expectNoBoundaryCrossing(List);
}

TEST_F(ShardedFreeListTest, SingleShardMatchesLegacyFreeListExactly) {
  // A/B contract: FreeListShards = 1 must reproduce the legacy
  // single-list results operation for operation.
  ShardedFreeList Sharded(at(0), RegionBytes, 1);
  FreeList Legacy;
  ASSERT_EQ(Sharded.numShards(), 1u);
  Random Rng(7);
  std::vector<std::pair<size_t, size_t>> Held; // (offset, size)
  Sharded.addRange(at(0), 1u << 20);
  Legacy.addRange(at(4u << 20), 1u << 20); // Disjoint half, same shape.
  auto legacyAt = [&](uint8_t *P) { return (P - at(0)) + (4u << 20); };
  for (int I = 0; I < 3000; ++I) {
    if (Rng.nextBool(0.5) || Held.empty()) {
      if (Rng.nextBool(0.3)) {
        size_t Min = 64 * (1 + Rng.nextBelow(16));
        size_t Max = Min + 64 * Rng.nextBelow(256);
        size_t GotS = 0, GotL = 0;
        uint8_t *S = Sharded.allocateUpTo(Min, Max, GotS, 0);
        uint8_t *L = Legacy.allocateUpTo(Min, Max, GotL);
        ASSERT_EQ(S == nullptr, L == nullptr);
        if (S) {
          ASSERT_EQ(GotS, GotL);
          ASSERT_EQ(legacyAt(S), static_cast<size_t>(L - at(0)));
          Held.emplace_back(S - at(0), GotS);
        }
      } else {
        size_t Want = 64 * (1 + Rng.nextBelow(128));
        uint8_t *S = Sharded.allocate(Want, 0);
        uint8_t *L = Legacy.allocate(Want);
        ASSERT_EQ(S == nullptr, L == nullptr);
        if (S) {
          ASSERT_EQ(legacyAt(S), static_cast<size_t>(L - at(0)));
          Held.emplace_back(S - at(0), Want);
        }
      }
    } else {
      size_t Pick = Rng.nextBelow(Held.size());
      auto [Off, Sz] = Held[Pick];
      Sharded.addRange(at(Off), Sz);
      Legacy.addRange(at((Off - 0) + (4u << 20)), Sz);
      Held.erase(Held.begin() + Pick);
    }
    ASSERT_EQ(Sharded.freeBytes(), Legacy.freeBytes());
    ASSERT_EQ(Sharded.numRanges(), Legacy.numRanges());
    ASSERT_EQ(Sharded.largestRange(), Legacy.largestRange());
  }
}

TEST_F(ShardedFreeListTest, PropertyRandomChurnConservesAndNeverCrosses) {
  // Satellite (a): random add/allocate/withdraw sequences conserve
  // bytes, never overlap, and never produce a boundary-crossing range.
  // Everything stays 64-byte aligned so no sliver is silently dropped
  // and conservation is exact.
  for (unsigned Shards : {2u, 4u, 8u}) {
    ShardedFreeList List(at(0), RegionBytes, Shards);
    ASSERT_EQ(List.numShards(), Shards);
    Random Rng(1234 + Shards);
    List.addRange(at(0), RegionBytes);
    size_t HeldBytes = 0, WithdrawnBytes = 0;
    std::vector<std::pair<uint8_t *, size_t>> Held;
    for (int I = 0; I < 4000; ++I) {
      double Dice = static_cast<double>(Rng.nextBelow(100)) / 100.0;
      if (Dice < 0.45 || Held.empty()) {
        size_t Want = 64 * (1 + Rng.nextBelow(200));
        size_t Got = 0;
        uint8_t *P = Rng.nextBool(0.5)
                         ? List.allocate(Want, Rng.nextBelow(Shards))
                         : List.allocateUpTo(64, Want, Got,
                                             Rng.nextBelow(Shards));
        if (P) {
          size_t Size = Got ? Got : Want;
          Held.emplace_back(P, Size);
          HeldBytes += Size;
        }
      } else if (Dice < 0.9) {
        size_t Pick = Rng.nextBelow(Held.size());
        List.addRange(Held[Pick].first, Held[Pick].second);
        HeldBytes -= Held[Pick].second;
        Held.erase(Held.begin() + Pick);
      } else if (WithdrawnBytes < RegionBytes / 8) {
        size_t Lo = 4096 * Rng.nextBelow(RegionBytes / 4096);
        size_t Len = 4096 * (1 + Rng.nextBelow(16));
        if (Lo + Len > RegionBytes)
          Len = RegionBytes - Lo;
        WithdrawnBytes += List.withdrawWithin(at(Lo), at(Lo + Len));
      }
      if (I % 200 == 0) {
        ASSERT_EQ(List.freeBytes() + HeldBytes + WithdrawnBytes,
                  RegionBytes)
            << "bytes not conserved at step " << I;
        expectDisjointOrdered(List);
        expectNoBoundaryCrossing(List);
      }
    }
    ASSERT_EQ(List.freeBytes() + HeldBytes + WithdrawnBytes, RegionBytes);
    expectDisjointOrdered(List);
    expectNoBoundaryCrossing(List);
  }
}

TEST_F(ShardedFreeListTest, HammerThreadsMatchSingleThreadedOracle) {
  // Satellite (b): N threads doing allocateUpTo/addRange concurrently;
  // afterwards the books must balance exactly against the one-number
  // oracle a single-threaded run would produce (initial = free + held),
  // with all held blocks and free ranges mutually disjoint.
  constexpr unsigned Shards = 4;
  constexpr int NumThreads = 8;
  ShardedFreeList List(at(0), RegionBytes, Shards);
  List.addRange(at(0), RegionBytes);
  std::vector<std::vector<std::pair<uint8_t *, size_t>>> Held(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      Random Rng(99 + T);
      auto &Mine = Held[T];
      for (int I = 0; I < 4000; ++I) {
        if (Rng.nextBool(0.55) || Mine.empty()) {
          size_t Got = 0;
          if (uint8_t *P = List.allocateUpTo(64, 32u << 10, Got,
                                             T % Shards))
            Mine.emplace_back(P, Got);
        } else {
          auto [P, Size] = Mine.back();
          Mine.pop_back();
          List.addRange(P, Size);
        }
      }
    });
  for (auto &Th : Threads)
    Th.join();

  size_t HeldBytes = 0;
  std::vector<std::pair<uint8_t *, size_t>> All = List.snapshotRanges();
  for (auto &Mine : Held)
    for (auto [P, Size] : Mine) {
      HeldBytes += Size;
      All.emplace_back(P, Size);
    }
  EXPECT_EQ(List.freeBytes() + HeldBytes, RegionBytes)
      << "concurrent churn lost or duplicated bytes";
  std::sort(All.begin(), All.end());
  for (size_t I = 0; I + 1 < All.size(); ++I)
    ASSERT_LE(All[I].first + All[I].second, All[I + 1].first)
        << "held block or free range overlaps another";
  expectNoBoundaryCrossing(List);
}

//===----------------------------------------------------------------------===//
// Refillable-free accounting (pacer shard-stranding awareness)
//===----------------------------------------------------------------------===//

TEST_F(ShardedFreeListTest, RefillableCountsOnlyRangesAtOrAboveThreshold) {
  constexpr size_t Threshold = 8u << 10;
  ShardedFreeList List(at(0), RegionBytes, 4, nullptr, Threshold);
  // One range comfortably above the threshold, one exactly at it, one
  // below: only the first two are refill material.
  List.addRange(at(0), 32u << 10);
  List.addRange(at(64u << 10), Threshold);
  List.addRange(at(128u << 10), 4u << 10);
  EXPECT_EQ(List.freeBytes(), (32u << 10) + Threshold + (4u << 10));
  EXPECT_EQ(List.refillableFreeBytes(), (32u << 10) + Threshold);

  // Carving the large range down below the threshold must untrack it.
  uint8_t *P = List.allocate((32u << 10) - (4u << 10), 0);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(List.refillableFreeBytes(), Threshold)
      << "a remainder below the threshold still counted as refillable";
  EXPECT_EQ(List.freeBytes(), Threshold + (4u << 10) + (4u << 10));

  List.clear();
  EXPECT_EQ(List.refillableFreeBytes(), 0u);
}

TEST_F(ShardedFreeListTest, ThresholdZeroMeansRefillableEqualsFree) {
  // The default (threshold 0) preserves the old behaviour exactly:
  // every free byte counts as refillable, through arbitrary churn.
  ShardedFreeList List(at(0), RegionBytes, 4);
  List.addRange(at(0), RegionBytes);
  Random Rng(7);
  std::vector<std::pair<uint8_t *, size_t>> Held;
  for (int I = 0; I < 2000; ++I) {
    if (Rng.nextBool(0.6) || Held.empty()) {
      size_t Got = 0;
      if (uint8_t *P = List.allocateUpTo(64, 16u << 10, Got, I % 4))
        Held.emplace_back(P, Got);
    } else {
      auto [P, Size] = Held.back();
      Held.pop_back();
      List.addRange(P, Size);
    }
    ASSERT_EQ(List.refillableFreeBytes(), List.freeBytes())
        << "threshold 0 must keep refillable == free (step " << I << ")";
  }
}

TEST_F(ShardedFreeListTest, FragmentedShardsStrandFreeBytes) {
  // The pacer-stranding scenario: plenty of free bytes in aggregate,
  // but every range is smaller than an allocation-cache refill, so no
  // mutator can actually use them. refillableFreeBytes() must report
  // (near) zero while freeBytes() stays high -- this gap is what drives
  // the earlier collection kickoff.
  constexpr size_t Threshold = 8u << 10;
  ShardedFreeList List(at(0), RegionBytes, 4, nullptr, Threshold);
  constexpr size_t Fragment = 4u << 10;  // half the refill threshold
  constexpr size_t Stride = 16u << 10;   // gaps prevent coalescing
  constexpr size_t Reserved = 64u << 10; // kept for the large block below
  size_t Added = 0;
  for (size_t Off = 0; Off + Fragment <= RegionBytes - Reserved;
       Off += Stride) {
    List.addRange(at(Off), Fragment);
    Added += Fragment;
  }
  EXPECT_EQ(List.freeBytes(), Added);
  EXPECT_GT(List.freeBytes(), 1u << 20) << "scenario needs real volume";
  EXPECT_EQ(List.refillableFreeBytes(), 0u)
      << "sub-threshold fragments must not count as refillable";

  // Refillable never exceeds raw free, and returning a large block
  // makes it refill material again.
  List.addRange(at(RegionBytes - Reserved), Reserved);
  EXPECT_EQ(List.refillableFreeBytes(), Reserved);
  EXPECT_LE(List.refillableFreeBytes(), List.freeBytes());
}

} // namespace
