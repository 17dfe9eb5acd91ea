//===- FreeList.h - One shard of the segregated free-space manager -*- C++ -*-===//
///
/// \file
/// One shard of the heap's free-space manager (see ShardedFreeList.h
/// for the address partition that owns these). A shard feeds
/// allocation-cache refills and large-object allocation for its span
/// of the heap. Bitwise sweep (Section 2.2) rebuilds it every cycle
/// from the mark bit vector, which shapes the design:
///
///  - Large ranges (>= BinThresholdBytes) live in an address-ordered
///    map (coalescing with adjacent large ranges, so multi-chunk free
///    spans merge) plus a size index for O(log n) best-fit allocation.
///  - Small ranges go to segregated per-size-class bins with O(1)
///    push/pop and no coalescing: fragmentation among small ranges is
///    transient, because the next sweep re-derives maximal free runs
///    from the bitmap regardless of how this cycle's list was carved.
///
/// This keeps the parallel sweep's insertion cost near O(1) per range
/// and the refill path away from linear first-fit scans — standing in
/// for the compaction-avoidance machinery of the paper's base collector.
/// Insertion is batched: addRanges publishes an address-ordered batch
/// (a swept chunk's ranges) under one lock acquisition; addRange is its
/// one-range case.
///
/// A shard's operations are guarded by its own lock, touched only on
/// slow paths (refill, large allocation, sweep insertion). With one
/// shard this degenerates to the original design — a single lock
/// standing in for the JVM's global heap lock; with N shards the slow
/// paths of different heap spans proceed concurrently.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_HEAP_FREELIST_H
#define CGC_HEAP_FREELIST_H

#include "support/Annotations.h"
#include "support/SpinLock.h"

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

namespace cgc {

/// A free range: (start, size in bytes).
using FreeRange = std::pair<uint8_t *, size_t>;

/// Aggregate shape of the free space inside an address window; the
/// compactor's area-selection policy scores candidate areas from these
/// (many small ranges and no dominant large one = fragmented = worth
/// evacuating).
struct FreeRangeStats {
  /// Free bytes tracked inside the window (ranges clipped to it).
  size_t FreeBytes = 0;
  /// Number of tracked ranges intersecting the window.
  size_t RangeCount = 0;
  /// Largest single clipped range inside the window.
  size_t LargestRange = 0;

  void merge(const FreeRangeStats &Other) {
    FreeBytes += Other.FreeBytes;
    RangeCount += Other.RangeCount;
    if (Other.LargestRange > LargestRange)
      LargestRange = Other.LargestRange;
  }
};

/// Segregated, sweep-rebuilt free list.
class FreeList {
public:
  /// Ranges at least this big go to the coalescing address map; smaller
  /// ones go to the segregated bins.
  static constexpr size_t BinThresholdBytes = 4096;

  /// Bin granularity; bin I holds ranges of
  /// [64 * I, 64 * I + 63] bytes (I >= 1).
  static constexpr size_t BinGranuleBytes = 64;
  static constexpr size_t NumBins = BinThresholdBytes / BinGranuleBytes;

  /// \p RefillThresholdBytes tunes the refillable-bytes counter: only
  /// ranges at least this big count as refillable (able to serve any
  /// allocation-cache refill regardless of the request's MinSize). 0
  /// makes refillableFreeBytes() identical to freeBytes().
  explicit FreeList(size_t RefillThresholdBytes = 0)
      : RefillThreshold(RefillThresholdBytes) {}

  /// Inserts a batch of address-ordered, non-overlapping ranges under
  /// one lock acquisition, with one update of each byte counter — the
  /// sweep publishes a whole chunk's reclaimed ranges this way. Each
  /// range is first clipped to [ClipLo, ClipHi) (the owning shard's
  /// span; (nullptr, nullptr) clips nothing). Pieces below
  /// BinGranuleBytes are dropped, and a batch of nothing else takes no
  /// lock. Large ranges merge with adjacent large ranges; small ranges
  /// are binned unmerged. Returns the bytes added to the list (clipped,
  /// dropped pieces excluded).
  size_t addRanges(std::span<const FreeRange> Ranges,
                   uint8_t *ClipLo = nullptr, uint8_t *ClipHi = nullptr);

  /// Inserts [Start, Start + Size): the one-range case of addRanges.
  void addRange(uint8_t *Start, size_t Size) {
    FreeRange Range{Start, Size};
    addRanges({&Range, 1});
  }

  /// Allocates exactly \p Size bytes (best fit; the remainder of the
  /// chosen range stays free). Returns nullptr when no range fits.
  uint8_t *allocate(size_t Size);

  /// Allocates at least \p MinSize and at most \p MaxSize bytes,
  /// preferring the full \p MaxSize (allocation-cache refill: a nearly
  /// full heap can still hand out partial caches). On success stores
  /// the granted size in \p OutSize.
  uint8_t *allocateUpTo(size_t MinSize, size_t MaxSize, size_t &OutSize);

  /// Total free bytes currently tracked.
  size_t freeBytes() const {
    return FreeByteCount.load(std::memory_order_relaxed);
  }

  /// Free bytes sitting in ranges large enough (>= RefillThreshold) to
  /// serve an allocation-cache refill. A fragmented shard can hold many
  /// free bytes none of which are refillable — the pacer's kickoff must
  /// look at this number, not freeBytes() (DESIGN.md §9 stranding).
  size_t refillableFreeBytes() const {
    return RefillableByteCount.load(std::memory_order_relaxed);
  }

  /// Number of times a mutating operation (insert, allocate, refill,
  /// withdraw, clear) acquired this shard's lock — the contention
  /// currency of refills and sweep publication. Monotonic; benches read
  /// deltas.
  uint64_t lockAcquisitions() const {
    return LockAcquisitions.load(std::memory_order_relaxed);
  }

  /// Size of the largest single free range.
  size_t largestRange() const;

  /// Number of discrete free ranges.
  size_t numRanges() const;

  /// Drops all ranges (start of a sweep rebuild).
  void clear();

  /// Withdraws every tracked byte inside [Lo, Hi): ranges fully inside
  /// are dropped; ranges straddling a boundary keep their outside
  /// part(s). Used by the incremental compactor so evacuation targets
  /// are never allocated inside the evacuation area. Returns the bytes
  /// withdrawn.
  size_t withdrawWithin(uint8_t *Lo, uint8_t *Hi);

  /// Fragmentation statistics for [Lo, Hi): tracked ranges are clipped
  /// to the window and summarized. O(log n + ranges intersecting the
  /// window) for the large map plus O(small ranges) for the bins — the
  /// compactor calls this once per candidate area per cycle, off every
  /// hot path.
  FreeRangeStats statsWithin(uint8_t *Lo, uint8_t *Hi) const;

  /// Copies out all (start, size) ranges, address ordered (verifier and
  /// tests).
  std::vector<std::pair<uint8_t *, size_t>> snapshotRanges() const;

private:
  static size_t binIndex(size_t Size) { return Size / BinGranuleBytes; }

  /// Bytes of a \p Size range that count as refillable.
  size_t refillablePart(size_t Size) const {
    return Size >= RefillThreshold ? Size : 0;
  }

  /// Refillable accounting: called for every range entering/leaving the
  /// tracked set (the sub-granule crumbs takeLocked abandons never were
  /// tracked). Counter updates stay inside the shard lock; the relaxed
  /// atomic is only for cross-thread readers of the aggregate.
  /// addRanges tallies a whole batch locally instead and publishes once.
  void noteRangeTracked(size_t Size) {
    if (size_t Part = refillablePart(Size))
      RefillableByteCount.fetch_add(Part, std::memory_order_relaxed);
  }
  void noteRangeUntracked(size_t Size) {
    if (size_t Part = refillablePart(Size))
      RefillableByteCount.fetch_sub(Part, std::memory_order_relaxed);
  }

  /// Map-only insert/erase of a large range (both indices); the caller
  /// holds the lock, does the byte accounting and re-adds any remainder.
  void eraseLargeLocked(std::map<uint8_t *, size_t>::iterator It)
      CGC_REQUIRES(Lock);
  void insertLargeLocked(uint8_t *Start, size_t Size) CGC_REQUIRES(Lock);
  uint8_t *takeLocked(uint8_t *Start, size_t RangeSize, size_t Take)
      CGC_REQUIRES(Lock);

  mutable SpinLock Lock;
  /// Start address -> size, ranges >= BinThresholdBytes, coalesced.
  std::map<uint8_t *, size_t> Large CGC_GUARDED_BY(Lock);
  /// Size -> start address index over Large (multimap: sizes repeat).
  std::multimap<size_t, uint8_t *> LargeBySize CGC_GUARDED_BY(Lock);
  /// Segregated small ranges: (start, exact size) per size class.
  std::array<std::vector<std::pair<uint8_t *, uint32_t>>, NumBins>
      Bins CGC_GUARDED_BY(Lock);
  CGC_ATOMIC_DOC("written under Lock; relaxed cross-thread aggregate reads")
  std::atomic<size_t> FreeByteCount{0};
  CGC_ATOMIC_DOC("written under Lock; relaxed cross-thread aggregate reads")
  std::atomic<size_t> RefillableByteCount{0};
  CGC_ATOMIC_DOC("written under Lock; relaxed bench/aggregate reads")
  std::atomic<uint64_t> LockAcquisitions{0};
  size_t SmallRangeCount CGC_GUARDED_BY(Lock) = 0;
  /// Immutable after construction.
  const size_t RefillThreshold;
};

} // namespace cgc

#endif // CGC_HEAP_FREELIST_H
