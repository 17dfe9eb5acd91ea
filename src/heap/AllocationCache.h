//===- AllocationCache.h - Per-thread allocation cache ----------*- C++ -*-===//
///
/// \file
/// Per-thread allocation cache (TLAB) implementing the batched
/// allocation-bit protocol of Section 5.2: a mutator bump-allocates and
/// initializes small objects privately; when the cache is exhausted (or a
/// safepoint / stack scan demands it) it performs ONE fence and then sets
/// the allocation bits of all objects allocated since the previous flush.
/// Until its allocation bit is set an object is invisible to conservative
/// stack scanning and is deferred by the tracer's safety check.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_HEAP_ALLOCATIONCACHE_H
#define CGC_HEAP_ALLOCATIONCACHE_H

#include "heap/BitVector8.h"
#include "heap/ObjectModel.h"
#include "support/Annotations.h"
#include "support/FaultInjector.h"
#include "support/Fences.h"

#include <cassert>
#include <cstdint>

namespace cgc {

class FreeList;
class ShardedFreeList;

/// Bump-pointer allocation cache with deferred allocation-bit publishing.
/// It is the heap's only small-object allocation path: every object
/// below the large-object threshold is carved from the range a refill
/// took off the free list, and the objects of one range are published
/// with one fence per flush.
class AllocationCache {
public:
  /// A cache starts empty; assignRange() arms it.
  AllocationCache() = default;

  /// Arms the cache with the fresh range [Start, Start + Size).
  /// The previous range must have been retired first.
  void assignRange(uint8_t *Start, size_t Size) {
    assert(!CacheStart && "previous cache range not retired");
    CacheStart = Start;
    Cur = Start;
    FlushedTo = Start;
    End = Start + Size;
  }

  /// Whether the cache currently owns a range.
  bool hasRange() const { return CacheStart != nullptr; }

  /// Bytes still available for bump allocation.
  size_t remainingBytes() const { return static_cast<size_t>(End - Cur); }

  /// Bytes handed out since the range was assigned.
  size_t usedBytes() const { return static_cast<size_t>(Cur - CacheStart); }

  /// Allocates and header-initializes an object of \p TotalBytes with
  /// \p NumRefs reference slots. Returns nullptr when the cache cannot
  /// satisfy the request (caller refills). Does NOT set the allocation
  /// bit — that happens in batch at flushAllocBits(). Pure bump pointer:
  /// never polls, never hands control to the collector.
  CGC_NO_SAFEPOINT Object *allocate(size_t TotalBytes, uint16_t NumRefs,
                                    uint16_t ClassId) {
    assert(TotalBytes % GranuleBytes == 0 && "unaligned allocation");
    if (static_cast<size_t>(End - Cur) < TotalBytes)
      return nullptr;
    Object *Obj = reinterpret_cast<Object *>(Cur);
    Cur += TotalBytes;
    Obj->initialize(static_cast<uint32_t>(TotalBytes), NumRefs, ClassId);
    return Obj;
  }

  /// Attaches the heap's fault injector so chaos mode can stretch the
  /// window between the flush fence and the bit publication.
  void setFaultInjector(FaultInjector *Injector) { FI = Injector; }

  /// Section 5.2 mutator steps 2-3: one fence, then publish the
  /// allocation bits of every object allocated since the last flush.
  /// Returns the number of objects published.
  size_t flushAllocBits(BitVector8 &AllocBits) {
    if (FlushedTo == Cur)
      return 0;
    fence(FenceSite::AllocCacheFlush);
    if (FI)
      FI->maybePerturb(FaultSite::AllocCacheFlush);
    size_t Published = 0;
    uint8_t *P = FlushedTo;
    while (P < Cur) {
      Object *Obj = reinterpret_cast<Object *>(P);
      // Release publication (pairs with the tracer's acquire sample):
      // redundant with the batch fence above on hardware, but TSan
      // cannot see fence ordering — see BitVector8::setRelease.
      AllocBits.setRelease(Obj);
      P += Obj->sizeBytes();
      ++Published;
    }
    assert(P == Cur && "object walk overran the bump pointer");
    FlushedTo = Cur;
    return Published;
  }

  /// Releases the cache's unused tail back to \p FL and forgets the
  /// range. Allocation bits must already be flushed by the caller (the
  /// tail itself carries no bits). Used when the world stops for sweep.
  void retire(FreeList &FL);

  /// Sharded variant: the tail goes back to the shard owning its
  /// addresses (a refill never crosses a shard boundary, but the
  /// sharded insert handles splitting regardless).
  void retire(ShardedFreeList &FL);

  /// Drops the range without recycling it (sweep pause — the bitwise
  /// sweep re-derives it from the mark bits — and heap teardown).
  void reset() { CacheStart = Cur = FlushedTo = End = nullptr; }

  /// Whether there are allocated objects whose bits are not yet published.
  bool hasUnflushedObjects() const { return FlushedTo != Cur; }

private:
  uint8_t *CacheStart = nullptr;
  uint8_t *Cur = nullptr;
  uint8_t *FlushedTo = nullptr;
  uint8_t *End = nullptr;
  FaultInjector *FI = nullptr;
};

} // namespace cgc

#endif // CGC_HEAP_ALLOCATIONCACHE_H
