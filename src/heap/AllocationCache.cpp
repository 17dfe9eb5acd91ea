//===- AllocationCache.cpp - Per-thread allocation cache ---------------------//

#include "heap/AllocationCache.h"

#include "heap/ShardedFreeList.h"

#include <algorithm>

using namespace cgc;

size_t AllocationCache::flushClassLists(ShardedFreeList &FL) {
  std::vector<FreeRange> Chunks;
  for (unsigned Class = 0; Class < NumSizeClasses; ++Class) {
    for (uint8_t *Start : ClassChunks[Class])
      Chunks.emplace_back(Start, sizeClassBytes(Class));
    ClassChunks[Class].clear();
  }
  size_t Flushed = CachedClassBytesV.load(std::memory_order_relaxed);
  CachedClassBytesV.store(0, std::memory_order_relaxed);
  if (Chunks.empty())
    return 0;
  // Coalesce before insertion: chunks carved from one refill are
  // address-adjacent, and merged runs clear the free list's minimum
  // tracked size where individual sub-64 B chunks would be dropped. The
  // runs then go back as one batch (one lock per shard touched).
  std::sort(Chunks.begin(), Chunks.end());
  size_t NumRuns = 1;
  for (size_t I = 1; I < Chunks.size(); ++I) {
    auto &[RunStart, RunSize] = Chunks[NumRuns - 1];
    if (RunStart + RunSize == Chunks[I].first)
      RunSize += Chunks[I].second;
    else
      Chunks[NumRuns++] = Chunks[I];
  }
  Chunks.resize(NumRuns);
  FL.addRanges(Chunks);
  return Flushed;
}

void AllocationCache::retire(FreeList &FL) {
  assert(!hasUnflushedObjects() && "retiring cache with unpublished objects");
  if (!CacheStart) {
    return;
  }
  if (Cur < End)
    FL.addRange(Cur, static_cast<size_t>(End - Cur));
  CacheStart = Cur = FlushedTo = End = nullptr;
}

void AllocationCache::retire(ShardedFreeList &FL) {
  assert(!hasUnflushedObjects() && "retiring cache with unpublished objects");
  if (!CacheStart) {
    return;
  }
  if (Cur < End)
    FL.addRange(Cur, static_cast<size_t>(End - Cur));
  CacheStart = Cur = FlushedTo = End = nullptr;
}
