//===- Sweeper.cpp - Parallel bitwise sweep -----------------------------------//

#include "gc/Sweeper.h"

#include "gc/WorkerPool.h"
#include "observe/Observe.h"

#include <algorithm>
#include <cassert>

using namespace cgc;

/// Free ranges smaller than this stay dark (their allocation bits are
/// still cleared, so they can never be resurrected by a conservative
/// scan); they are reclaimed once a neighbouring object dies.
static constexpr size_t MinFreeRangeBytes = 64;

Sweeper::Sweeper(HeapSpace &Heap, GcObserver *Obs)
    : Heap(Heap),
      NumChunks((Heap.sizeBytes() + ChunkBytes - 1) / ChunkBytes), Obs(Obs) {
  // Deal each shard's chunks (in address order) one per round, so
  // consecutive claims land on different shards.
  const ShardedFreeList &FL = Heap.freeList();
  std::vector<std::vector<uint32_t>> PerShard(FL.numShards());
  for (size_t I = 0; I < NumChunks; ++I)
    PerShard[FL.shardIndexFor(Heap.base() + I * ChunkBytes)].push_back(
        static_cast<uint32_t>(I));
  ClaimOrder.reserve(NumChunks);
  for (size_t Round = 0; Round < NumChunks; ++Round)
    for (const auto &Chunks : PerShard)
      if (Round < Chunks.size())
        ClaimOrder.push_back(Chunks[Round]);
}

uint8_t *Sweeper::chunkSweepStart(size_t Index) const {
  uint8_t *ChunkStart = Heap.base() + Index * ChunkBytes;
  if (Index == 0)
    return ChunkStart;
  uint8_t *PrevMarked = Heap.markBits().findPrevSet(ChunkStart);
  if (!PrevMarked)
    return ChunkStart;
  Object *Prev = reinterpret_cast<Object *>(PrevMarked);
  uint8_t *PrevEnd = Prev->end();
  return PrevEnd > ChunkStart ? PrevEnd : ChunkStart;
}

Sweeper::ChunkResult Sweeper::sweepChunk(size_t Index,
                                         std::vector<FreeRange> &Batch) {
  ChunkResult Result;
  Batch.clear();
  uint8_t *ChunkStart = Heap.base() + Index * ChunkBytes;
  uint8_t *ChunkEnd = ChunkStart + ChunkBytes;
  if (ChunkEnd > Heap.limit())
    ChunkEnd = Heap.limit();
  uint8_t *Pos = chunkSweepStart(Index);
  // The span a live straddler covers is a body: no allocation bits.
  assert(!Heap.allocBits().findNextSet(ChunkStart, std::min(Pos, ChunkEnd)) &&
         "allocation bit inside a live object's body");

  auto keep = [&](uint8_t *From, uint8_t *To) {
    if (From >= To)
      return;
    size_t Size = static_cast<size_t>(To - From);
    if (Size >= MinFreeRangeBytes)
      Batch.emplace_back(From, Size);
  };
  // The compactor's armed area is excluded for the whole generation:
  // its bits and free ranges are rebuilt by the evacuation itself, and
  // re-inserting them here could hand out in-area evacuation targets or
  // double-add the rebuilt ranges (see setEvacuationExclusion).
  uint8_t *XLo = ExclLo.load(std::memory_order_relaxed);
  uint8_t *XHi = ExclHi.load(std::memory_order_relaxed);
  auto reclaim = [&](uint8_t *From, uint8_t *To) {
    if (XLo < XHi && From < XHi && To > XLo) {
      keep(From, XLo < From ? From : XLo);
      keep(XHi > To ? To : XHi, To);
      return;
    }
    keep(From, To);
  };
  // A last live object may extend past ChunkEnd; the next chunk's
  // leading-edge resolution accounts for it.
  walkLiveRuns(Heap.markBits(), Pos, ChunkEnd, reclaim, [&](Object *Live) {
    Result.LiveBytes += Live->sizeBytes();
    assert(!Heap.allocBits().findNextSet(
               reinterpret_cast<uint8_t *>(Live) + GranuleBytes,
               std::min(Live->end(), ChunkEnd)) &&
           "allocation bit inside a live object's body");
  });
  // Every gap's allocation bits (crumbs included, the exclusion window
  // excluded) in one pass over the chunk's own words; before
  // publication, so no mutator allocates in them yet.
  Heap.allocBits().retainRange(Heap.markBits(), ChunkStart, ChunkEnd, XLo,
                               XHi);
  // One publication per chunk, split across the shards owning the
  // addresses: one lock per shard touched. Freed counts what was
  // published: a shard split may drop a sliver.
  if (!Batch.empty())
    Result.FreedBytes = Heap.freeList().addRanges(Batch);
  return Result;
}

uint64_t Sweeper::sweepAll(WorkerPool *Workers) {
  Heap.freeList().clear();
  Cursor.store(0, std::memory_order_relaxed);
  LiveBytesFound.store(0, std::memory_order_relaxed);
  LazyActive.store(false, std::memory_order_relaxed);

  auto SweepJob = [this](unsigned) {
    uint64_t Live = 0;
    std::vector<FreeRange> Batch;
    for (;;) {
      size_t Claim = Cursor.fetch_add(1, std::memory_order_relaxed);
      if (Claim >= NumChunks)
        break;
      Live += sweepChunk(ClaimOrder[Claim], Batch).LiveBytes;
    }
    LiveBytesFound.fetch_add(Live, std::memory_order_relaxed);
  };

  if (Workers)
    Workers->runParallel(SweepJob);
  else
    SweepJob(0);
  return LiveBytesFound.load(std::memory_order_relaxed);
}

void Sweeper::armLazySweep() {
  Heap.freeList().clear();
  Cursor.store(0, std::memory_order_relaxed);
  LiveBytesFound.store(0, std::memory_order_relaxed);
  LazyActive.store(true, std::memory_order_release);
}

uint64_t Sweeper::sweepUntilFree(size_t FreeBytesWanted) {
  if (!LazyActive.load(std::memory_order_acquire))
    return 0;
  ActiveSweepers.fetch_add(1, std::memory_order_acquire);
  uint64_t Freed = 0;
  uint64_t Live = 0;
  std::vector<FreeRange> Batch;
  for (;;) {
    size_t Index = Cursor.fetch_add(1, std::memory_order_relaxed);
    if (Index >= NumChunks) {
      LazyActive.store(false, std::memory_order_release);
      break;
    }
    ChunkResult R = sweepChunk(Index, Batch);
    Freed += R.FreedBytes;
    Live += R.LiveBytes;
    if (Freed >= FreeBytesWanted)
      break;
  }
  LiveBytesFound.fetch_add(Live, std::memory_order_relaxed);
  ActiveSweepers.fetch_sub(1, std::memory_order_release);
  if (Freed != 0)
    CGC_OBS_EVENT_P(Obs, SweepSlice, Freed, 1);
  return Freed;
}

void Sweeper::finishLazySweep() {
  while (LazyActive.load(std::memory_order_acquire))
    sweepUntilFree(SIZE_MAX);
  // A laggard sweeper may still be mid-chunk reading mark bits; the next
  // cycle must not clear them underneath it.
  while (ActiveSweepers.load(std::memory_order_acquire) != 0)
    std::this_thread::yield();
}
