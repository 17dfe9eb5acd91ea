//===- AllocationCache.cpp - Per-thread allocation cache ---------------------//

#include "heap/AllocationCache.h"

#include "heap/ShardedFreeList.h"

using namespace cgc;

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
