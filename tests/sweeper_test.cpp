//===- sweeper_test.cpp - bitwise sweep units -----------------------------------//

#include "gc/Sweeper.h"

#include "gc/WorkerPool.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

using namespace cgc;

namespace {

class SweeperTest : public ::testing::Test {
protected:
  SweeperTest() : Heap(4u << 20), Sweep(Heap) {}

  /// Fabricates an object at \p Offset: header + alloc bit (+ mark bit).
  Object *plant(size_t Offset, uint32_t SizeBytes, bool Marked) {
    Object *Obj = reinterpret_cast<Object *>(Heap.base() + Offset);
    Obj->initialize(SizeBytes, 0, 0);
    Heap.allocBits().set(Obj);
    if (Marked)
      Heap.markBits().set(Obj);
    return Obj;
  }

  HeapSpace Heap;
  Sweeper Sweep;
};

TEST_F(SweeperTest, EmptyHeapBecomesOneFreeRange) {
  Heap.freeList().clear();
  uint64_t Live = Sweep.sweepAll(nullptr);
  EXPECT_EQ(Live, 0u);
  EXPECT_EQ(Heap.freeBytes(), Heap.sizeBytes());
  EXPECT_EQ(Heap.freeList().numRanges(), 1u);
}

TEST_F(SweeperTest, LiveObjectsCarveTheFreeSpace) {
  Object *A = plant(0, 64, true);
  Object *B = plant(4096, 128, true);
  plant(8192, 256, false); // Dead: reclaimed.
  uint64_t Live = Sweep.sweepAll(nullptr);
  EXPECT_EQ(Live, 64u + 128u);
  EXPECT_EQ(Heap.freeBytes(), Heap.sizeBytes() - 64 - 128);
  // Live objects keep their bits; the dead one lost its alloc bit.
  EXPECT_TRUE(Heap.allocBits().test(A));
  EXPECT_TRUE(Heap.allocBits().test(B));
  EXPECT_FALSE(Heap.allocBits().test(Heap.base() + 8192));
  // Free ranges do not overlap the live objects.
  for (auto [Start, Size] : Heap.freeList().snapshotRanges()) {
    EXPECT_TRUE(Start + Size <= reinterpret_cast<uint8_t *>(A) ||
                Start >= A->end() || true);
    EXPECT_EQ(Heap.allocBits().countInRange(Start, Start + Size), 0u);
  }
}

TEST_F(SweeperTest, SmallHolesStayDark) {
  // Two live objects with an 8-byte hole between them: the hole is not
  // free-listed (below the minimum) but its alloc bits are cleared.
  plant(0, 64, true);
  plant(72, 64, true);
  plant(64, 8, false); // 8-byte dead filler gets an alloc bit.
  Heap.allocBits().set(Heap.base() + 64);
  Sweep.sweepAll(nullptr);
  EXPECT_FALSE(Heap.allocBits().test(Heap.base() + 64));
  for (auto [Start, Size] : Heap.freeList().snapshotRanges())
    EXPECT_GE(Size, 64u);
}

TEST_F(SweeperTest, ObjectSpanningChunkBoundary) {
  // A live object straddling the 1 MB chunk boundary must survive a
  // parallel sweep intact.
  size_t Boundary = Sweeper::ChunkBytes;
  Object *Straddler = plant(Boundary - 64, 4096, true);
  WorkerPool Workers(3);
  uint64_t Live = Sweep.sweepAll(&Workers);
  EXPECT_EQ(Live, 4096u);
  EXPECT_TRUE(Heap.allocBits().test(Straddler));
  for (auto [Start, Size] : Heap.freeList().snapshotRanges()) {
    bool Overlaps = Start < Straddler->end() &&
                    Start + Size > reinterpret_cast<uint8_t *>(Straddler);
    EXPECT_FALSE(Overlaps) << "free range overlaps the straddler";
  }
  EXPECT_EQ(Heap.freeBytes(), Heap.sizeBytes() - 4096);
}

TEST_F(SweeperTest, ObjectCoveringWholeChunk) {
  // A live object larger than a chunk: the middle chunk has nothing to
  // sweep at all.
  Object *Big = plant(512, Sweeper::ChunkBytes + 8192, true);
  uint64_t Live = Sweep.sweepAll(nullptr);
  EXPECT_EQ(Live, Sweeper::ChunkBytes + 8192);
  EXPECT_TRUE(Heap.allocBits().test(Big));
  EXPECT_EQ(Heap.freeBytes(), Heap.sizeBytes() - Big->sizeBytes());
}

TEST_F(SweeperTest, AdjacentFreeRangesCoalesceAcrossChunks) {
  // Everything dead: even with parallel chunk sweeping the free list
  // coalesces back to a single maximal range.
  plant(0, 64, false);
  plant(Sweeper::ChunkBytes + 512, 64, false);
  WorkerPool Workers(3);
  Sweep.sweepAll(&Workers);
  EXPECT_EQ(Heap.freeList().numRanges(), 1u);
  EXPECT_EQ(Heap.freeBytes(), Heap.sizeBytes());
}

TEST_F(SweeperTest, LazySweepOnDemand) {
  plant(0, 64, true);
  Sweep.armLazySweep();
  EXPECT_TRUE(Sweep.lazySweepPending());
  EXPECT_EQ(Heap.freeBytes(), 0u); // Nothing swept yet.
  uint64_t Freed = Sweep.sweepUntilFree(4096);
  EXPECT_GE(Freed, 4096u);
  EXPECT_GT(Heap.freeBytes(), 0u);
  Sweep.finishLazySweep();
  EXPECT_FALSE(Sweep.lazySweepPending());
  EXPECT_EQ(Heap.freeBytes(), Heap.sizeBytes() - 64);
  EXPECT_EQ(Sweep.liveBytes(), 64u);
  // Further lazy calls are no-ops.
  EXPECT_EQ(Sweep.sweepUntilFree(4096), 0u);
}

TEST_F(SweeperTest, SweepAllReportsLiveBytes) {
  size_t Total = 0;
  for (size_t I = 0; I < 100; ++I) {
    plant(I * 1024, 64 + 8 * (I % 5), true);
    Total += 64 + 8 * (I % 5);
  }
  EXPECT_EQ(Sweep.sweepAll(nullptr), Total);
  EXPECT_EQ(Sweep.liveBytes(), Total);
}

/// The same sweep scenarios across free-list shard counts: reclaimed
/// ranges must land in the shard owning their addresses, accounting
/// must not depend on the shard count, and no range may cross a shard
/// boundary.
class ShardedSweeperTest : public ::testing::TestWithParam<unsigned> {
protected:
  ShardedSweeperTest() : Heap(4u << 20, GetParam()), Sweep(Heap) {}

  Object *plant(size_t Offset, uint32_t SizeBytes, bool Marked) {
    Object *Obj = reinterpret_cast<Object *>(Heap.base() + Offset);
    Obj->initialize(SizeBytes, 0, 0);
    Heap.allocBits().set(Obj);
    if (Marked)
      Heap.markBits().set(Obj);
    return Obj;
  }

  void expectShardInvariants() {
    const ShardedFreeList &FL = Heap.freeList();
    for (unsigned S = 0; S < FL.numShards(); ++S)
      for (auto [Start, Size] : FL.shard(S).snapshotRanges()) {
        EXPECT_EQ(FL.shardIndexFor(Start), S);
        EXPECT_EQ(FL.shardIndexFor(Start + Size - 1), S);
      }
  }

  HeapSpace Heap;
  Sweeper Sweep;
};

TEST_P(ShardedSweeperTest, EmptyHeapBecomesOneRangePerShard) {
  Heap.freeList().clear();
  EXPECT_EQ(Sweep.sweepAll(nullptr), 0u);
  EXPECT_EQ(Heap.freeBytes(), Heap.sizeBytes());
  // Boundary splitting caps coalescing at one maximal range per shard.
  EXPECT_EQ(Heap.freeList().numRanges(), Heap.freeList().numShards());
  expectShardInvariants();
}

TEST_P(ShardedSweeperTest, AccountingIsShardCountIndependent) {
  plant(0, 64, true);
  plant(4096, 128, true);
  plant(8192, 256, false);
  plant(Sweeper::ChunkBytes - 64, 4096, true); // Chunk straddler.
  WorkerPool Workers(3);
  uint64_t Live = Sweep.sweepAll(&Workers);
  EXPECT_EQ(Live, 64u + 128u + 4096u);
  EXPECT_EQ(Heap.freeBytes(), Heap.sizeBytes() - 64 - 128 - 4096);
  // Boundary splitting bounds any single range by the shard span.
  EXPECT_LE(Heap.freeList().largestRange(),
            Heap.freeList().shardSpanBytes());
  expectShardInvariants();
  for (auto [Start, Size] : Heap.freeList().snapshotRanges())
    EXPECT_EQ(Heap.allocBits().countInRange(Start, Start + Size), 0u);
}

TEST_P(ShardedSweeperTest, ParallelSweepInsertsIntoOwningShards) {
  // Kill everything: each shard must end up with exactly its span free,
  // coalesced within the shard even though chunk sweeps insert pieces
  // in arbitrary order.
  plant(0, 64, false);
  plant(Sweeper::ChunkBytes + 512, 64, false);
  WorkerPool Workers(3);
  Sweep.sweepAll(&Workers);
  const ShardedFreeList &FL = Heap.freeList();
  EXPECT_EQ(Heap.freeBytes(), Heap.sizeBytes());
  for (unsigned S = 0; S < FL.numShards(); ++S)
    EXPECT_EQ(FL.shard(S).numRanges(), 1u)
        << "shard " << S << " did not coalesce its chunk pieces";
  expectShardInvariants();
}

/// Plants a seeded, fragmented heap: about 1200 live objects of
/// 16-512 B separated by random gaps (some below the 64 B tracking
/// minimum, some above the 4 KB large-range threshold), with a dead
/// object in every wide gap, plus one live object straddling the first
/// chunk boundary. Returns the number of live objects.
size_t plantScattered(HeapSpace &Heap, uint64_t Seed) {
  Random Rng(Seed);
  auto plantAt = [&Heap](size_t Offset, uint32_t Bytes, bool Marked) {
    Object *Obj = reinterpret_cast<Object *>(Heap.base() + Offset);
    Obj->initialize(Bytes, 0, 0);
    Heap.allocBits().set(Obj);
    if (Marked)
      Heap.markBits().set(Obj);
  };
  size_t Live = 0;
  size_t Offset = 0;
  for (;;) {
    size_t Gap = GranuleBytes * Rng.nextBelow(840);
    if (Gap >= 256)
      plantAt(Offset + 64, 64, /*Marked=*/false);
    size_t Bytes = GranuleBytes * Rng.nextInRange(2, 64);
    Offset += Gap;
    if (Offset + Bytes > Heap.sizeBytes())
      break;
    if (Offset < Sweeper::ChunkBytes &&
        Offset + Bytes + 4096 > Sweeper::ChunkBytes) {
      Offset = Sweeper::ChunkBytes - 64; // The chunk straddler.
      Bytes = 4096;
    }
    plantAt(Offset, static_cast<uint32_t>(Bytes), /*Marked=*/true);
    ++Live;
    Offset += Bytes;
  }
  return Live;
}

/// Chunk/shard pairs: each chunk's sweep publishes to at most the
/// shards its extent covers, once each.
size_t chunkShardPairs(const HeapSpace &Heap) {
  const ShardedFreeList &FL = Heap.freeList();
  size_t Pairs = 0;
  for (size_t Off = 0; Off < Heap.sizeBytes(); Off += Sweeper::ChunkBytes) {
    size_t End = std::min(Off + Sweeper::ChunkBytes, Heap.sizeBytes());
    Pairs += FL.shardIndexFor(Heap.base() + End - 1) -
             FL.shardIndexFor(Heap.base() + Off) + 1;
  }
  return Pairs;
}

TEST_P(ShardedSweeperTest, ParallelSweepLocksPerChunkAndMatchesSerial) {
  // A refill threshold makes refillable bytes differ from free bytes.
  HeapSpace Fragmented(4u << 20, GetParam(), nullptr,
                       /*RefillThresholdBytes=*/512);
  Sweeper FragSweep(Fragmented);
  ASSERT_GE(plantScattered(Fragmented, 0x5eed5), 1000u);
  const ShardedFreeList &FL = Fragmented.freeList();

  uint64_t SerialLive = FragSweep.sweepAll(nullptr);
  auto SerialRanges = FL.snapshotRanges();
  size_t SerialFree = FL.freeBytes();
  size_t SerialRefillable = FL.refillableFreeBytes();
  ASSERT_LT(SerialRefillable, SerialFree);

  WorkerPool Workers(2); // Three participants with the caller.
  uint64_t Before = FL.lockAcquisitions();
  EXPECT_EQ(FragSweep.sweepAll(&Workers), SerialLive);
  uint64_t Locks = FL.lockAcquisitions() - Before;
  // One per shard for the clear, then one per chunk/shard pair: O(chunks),
  // far below one per reclaimed range.
  size_t Bound = FL.numShards() + chunkShardPairs(Fragmented);
  EXPECT_LE(Locks, Bound);
  EXPECT_GT(SerialRanges.size(), 10 * Bound);

  EXPECT_EQ(FL.snapshotRanges(), SerialRanges);
  EXPECT_EQ(FL.freeBytes(), SerialFree);
  EXPECT_EQ(FL.refillableFreeBytes(), SerialRefillable);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedSweeperTest,
                         ::testing::Values(1u, 2u, 8u));

// --- Exactness against a reference header walk ----------------------------
//
// The sweep walks the mark words inline, prefetches headers through a
// ring and clears dead allocation bits word-wise. Its output must be
// exactly that of the plain header walk it replaced: the same free
// ranges, byte counts and allocation bitmap.

/// A heap whose size is not a multiple of the chunk size: the last
/// chunk is partial.
constexpr size_t OracleHeapBytes = 4 * Sweeper::ChunkBytes + (300u << 10);

struct PlantedObject {
  size_t Offset;
  uint32_t Bytes;
  bool Marked;
};

enum class HeapLayout { Scattered, Warehouse };

/// A seeded object layout. Scattered: 16-512 B objects with random
/// gaps (adjacent ones, sub-64 B crumbs, wide holes), half of them live.
/// Warehouse: runs of adjacent 72/80/88 B objects, live or dead as a
/// run, with a few dead objects inside live runs. In both, a live
/// object ends exactly at the end of every odd chunk and a live 4 KB
/// object straddles into every even chunk; objects that happen to cross
/// other boundaries (live or dead) stay as drawn.
std::vector<PlantedObject> makeLayout(HeapLayout Layout, uint64_t Seed) {
  Random Rng(Seed);
  std::vector<PlantedObject> Out;
  size_t Offset = 0;
  size_t RunLeft = 0;
  bool RunLive = false;
  for (;;) {
    size_t Gap;
    uint32_t Bytes;
    bool Marked;
    if (Layout == HeapLayout::Scattered) {
      Gap = GranuleBytes * Rng.nextBelow(Rng.nextBool(0.2) ? 600 : 9);
      Bytes = static_cast<uint32_t>(GranuleBytes * Rng.nextInRange(2, 64));
      Marked = Rng.nextBool(0.5);
    } else {
      Gap = 0;
      if (RunLeft == 0) {
        RunLeft = Rng.nextInRange(3, 12);
        RunLive = Rng.nextBool(0.6);
        Gap = GranuleBytes * Rng.nextBelow(Rng.nextBool(0.5) ? 1 : 40);
      }
      --RunLeft;
      Bytes = static_cast<uint32_t>(72 + 8 * Rng.nextBelow(3));
      Marked = RunLive && !Rng.nextBool(0.1);
    }
    // The first chunk boundary after the previous object's end; the gap
    // may jump past it, and the rules below pull the object back.
    size_t PrevEnd = Offset;
    size_t Boundary = (PrevEnd / Sweeper::ChunkBytes + 1) * Sweeper::ChunkBytes;
    Offset += Gap;
    bool Odd = (Boundary / Sweeper::ChunkBytes) % 2 == 1;
    if (Boundary < OracleHeapBytes && Odd &&
        Offset + Bytes + Object::MinObjectBytes > Boundary) {
      // Ends exactly at ChunkEnd. The previous object, under this same
      // rule, ended at least MinObjectBytes before the boundary.
      Offset = std::min(Offset, Boundary - Object::MinObjectBytes);
      Bytes = static_cast<uint32_t>(Boundary - Offset);
      Marked = true;
    } else if (Boundary < OracleHeapBytes && !Odd &&
               Offset + Bytes > Boundary) {
      Offset = std::max(PrevEnd, Boundary - 64); // The chunk straddler.
      Bytes = 4096;
      Marked = true;
    }
    if (Offset + Bytes > OracleHeapBytes)
      break;
    Out.push_back({Offset, Bytes, Marked});
    Offset += Bytes;
  }
  return Out;
}

void plantLayout(HeapSpace &Heap, const std::vector<PlantedObject> &Layout) {
  for (const PlantedObject &P : Layout) {
    Object *Obj = reinterpret_cast<Object *>(Heap.base() + P.Offset);
    Obj->initialize(P.Bytes, 0, 0);
    Heap.allocBits().set(Obj);
    if (P.Marked)
      Heap.markBits().set(Obj);
  }
}

/// The reference: the header walk the word-wise sweep replaced, one
/// granule at a time through test() and clear(). Chunk by chunk in
/// address order, each chunk's ranges (window-clipped, 64 B crumbs
/// dropped) published in one addRanges call. Returns {live, bytes
/// published}.
std::pair<uint64_t, uint64_t> referenceSweep(HeapSpace &Heap, size_t XLo,
                                             size_t XHi) {
  Heap.freeList().clear();
  const BitVector8 &Marks = Heap.markBits();
  uint64_t Live = 0, Freed = 0;
  std::vector<FreeRange> Batch;
  auto reclaimRaw = [&](size_t From, size_t To) {
    if (From >= To)
      return;
    for (size_t G = From; G < To; G += GranuleBytes)
      Heap.allocBits().clear(Heap.base() + G);
    if (To - From >= 64)
      Batch.emplace_back(Heap.base() + From, To - From);
  };
  auto reclaim = [&](size_t From, size_t To) {
    if (XLo < XHi && From < XHi && To > XLo) {
      reclaimRaw(From, std::max(From, XLo));
      reclaimRaw(std::min(To, XHi), To);
      return;
    }
    reclaimRaw(From, To);
  };
  auto endOf = [&](size_t Off) {
    return Off + reinterpret_cast<Object *>(Heap.base() + Off)->sizeBytes();
  };
  for (size_t Start = 0; Start < Heap.sizeBytes();
       Start += Sweeper::ChunkBytes) {
    size_t End = std::min(Start + Sweeper::ChunkBytes, Heap.sizeBytes());
    size_t Pos = Start;
    for (size_t G = Start; G > 0;) {
      G -= GranuleBytes;
      if (Marks.test(Heap.base() + G)) {
        Pos = std::max(Pos, endOf(G));
        break;
      }
    }
    Batch.clear();
    while (Pos < End) {
      size_t Next = Pos;
      while (Next < End && !Marks.test(Heap.base() + Next))
        Next += GranuleBytes;
      reclaim(Pos, Next);
      if (Next == End)
        break;
      Live += reinterpret_cast<Object *>(Heap.base() + Next)->sizeBytes();
      Pos = endOf(Next);
    }
    if (!Batch.empty())
      Freed += Heap.freeList().addRanges(Batch);
  }
  return {Live, Freed};
}

/// What a sweep leaves behind, in heap offsets so two heaps compare.
struct SweepOutcome {
  uint64_t Live = 0;
  uint64_t Freed = 0;
  std::vector<std::pair<size_t, size_t>> Ranges;
  size_t Refillable = 0;
  std::vector<bool> AllocBits;
};

SweepOutcome captureOutcome(const HeapSpace &Heap, uint64_t Live,
                            uint64_t Freed) {
  SweepOutcome Out;
  Out.Live = Live;
  Out.Freed = Freed;
  for (auto [Start, Size] : Heap.freeList().snapshotRanges())
    Out.Ranges.emplace_back(static_cast<size_t>(Start - Heap.base()), Size);
  Out.Refillable = Heap.freeList().refillableFreeBytes();
  Out.AllocBits.resize(Heap.sizeBytes() / GranuleBytes);
  for (size_t G = 0; G < Out.AllocBits.size(); ++G)
    Out.AllocBits[G] = Heap.allocBits().test(Heap.base() + G * GranuleBytes);
  return Out;
}

enum class SweepMode { Serial, ThreeParticipants, Lazy };

const char *modeName(SweepMode Mode) {
  switch (Mode) {
  case SweepMode::Serial:
    return "Serial";
  case SweepMode::ThreeParticipants:
    return "ThreeParticipants";
  case SweepMode::Lazy:
    return "Lazy";
  }
  return "?";
}

class SweepExactnessTest
    : public ::testing::TestWithParam<std::tuple<unsigned, SweepMode>> {};

TEST_P(SweepExactnessTest, MatchesReferenceHeaderWalk) {
  auto [Shards, Mode] = GetParam();
  // Exclusion windows in heap offsets: none; one whose ends are not
  // word aligned and that crosses the chunk 1/2 boundary; one inside
  // chunk 3 cutting words at both ends.
  const std::pair<size_t, size_t> Windows[] = {
      {0, 0},
      {Sweeper::ChunkBytes + GranuleBytes * 4097,
       2 * Sweeper::ChunkBytes + GranuleBytes * 1013},
      {3 * Sweeper::ChunkBytes + GranuleBytes * 77,
       3 * Sweeper::ChunkBytes + GranuleBytes * (77 + 64 * 10 + 5)}};
  for (HeapLayout Layout : {HeapLayout::Scattered, HeapLayout::Warehouse})
    for (auto [XLo, XHi] : Windows) {
      SCOPED_TRACE(::testing::Message()
                   << "layout " << static_cast<int>(Layout) << " window ["
                   << XLo << ", " << XHi << ")");
      std::vector<PlantedObject> Planted =
          makeLayout(Layout, 0x0c1e + static_cast<uint64_t>(Layout));
      size_t LiveObjects = 0;
      bool EndsAtChunkEnd = false;
      for (const PlantedObject &P : Planted) {
        LiveObjects += P.Marked;
        EndsAtChunkEnd |= P.Marked && (P.Offset + P.Bytes) %
                                              Sweeper::ChunkBytes == 0;
      }
      ASSERT_GT(LiveObjects, 2000u);
      ASSERT_TRUE(EndsAtChunkEnd);

      HeapSpace Expected(OracleHeapBytes, Shards, nullptr,
                         /*RefillThresholdBytes=*/512);
      HeapSpace Actual(OracleHeapBytes, Shards, nullptr,
                       /*RefillThresholdBytes=*/512);
      ASSERT_EQ(Actual.sizeBytes() % Sweeper::ChunkBytes, 300u << 10);
      plantLayout(Expected, Planted);
      plantLayout(Actual, Planted);

      auto [RefLive, RefFreed] = referenceSweep(Expected, XLo, XHi);
      // What addRanges reports is what the heap gained, even where
      // a shard split drops a sliver of a range (8 shards do).
      EXPECT_EQ(RefFreed, Expected.freeBytes());
      SweepOutcome Want =
          captureOutcome(Expected, RefLive, Expected.freeBytes());

      Sweeper Sweep(Actual);
      if (XLo < XHi)
        Sweep.setEvacuationExclusion(Actual.base() + XLo, Actual.base() + XHi);
      uint64_t Live = 0;
      if (Mode == SweepMode::Lazy) {
        Sweep.armLazySweep();
        const size_t FreeBefore = Actual.freeBytes();
        uint64_t Freed = 0;
        while (Sweep.lazySweepPending())
          Freed += Sweep.sweepUntilFree(64u << 10);
        Sweep.finishLazySweep();
        Live = Sweep.liveBytes();
        // The sweep reports exactly the free bytes it published.
        EXPECT_EQ(Freed, Actual.freeBytes() - FreeBefore);
      } else if (Mode == SweepMode::ThreeParticipants) {
        WorkerPool Workers(2);
        Live = Sweep.sweepAll(&Workers);
      } else {
        Live = Sweep.sweepAll(nullptr);
      }
      SweepOutcome Got = captureOutcome(Actual, Live, Actual.freeBytes());
      EXPECT_EQ(Got.Live, Want.Live);
      EXPECT_EQ(Got.Freed, Want.Freed);
      EXPECT_EQ(Got.Ranges, Want.Ranges);
      EXPECT_EQ(Got.Refillable, Want.Refillable);
      size_t BitDiffs = 0, FirstDiff = 0;
      for (size_t G = Got.AllocBits.size(); G-- > 0;)
        if (Got.AllocBits[G] != Want.AllocBits[G]) {
          ++BitDiffs;
          FirstDiff = G;
        }
      EXPECT_EQ(BitDiffs, 0u) << "first differing granule " << FirstDiff;
    }
}

INSTANTIATE_TEST_SUITE_P(
    ShardsAndModes, SweepExactnessTest,
    ::testing::Combine(::testing::Values(1u, 2u, 8u),
                       ::testing::Values(SweepMode::Serial,
                                         SweepMode::ThreeParticipants,
                                         SweepMode::Lazy)),
    [](const auto &Info) {
      return "Shards" + std::to_string(std::get<0>(Info.param)) +
             modeName(std::get<1>(Info.param));
    });

} // namespace
