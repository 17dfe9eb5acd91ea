//===- ShardedFreeList.h - Address-partitioned free-space manager -*- C++ -*-===//
///
/// \file
/// The heap's free-space manager, an address partition of independent
/// FreeList shards. The single global free-list lock was the one
/// serialization point left in an otherwise parallel collector: every
/// allocation-cache refill, large allocation and parallel-sweep
/// insertion funneled through it. Sharding removes the convoy:
///
///  - The heap is split into NumShards (a power of two) contiguous,
///    page-aligned spans; shard I owns addresses
///    [Base + I * span, Base + (I+1) * span). Each shard is a complete
///    FreeList (own lock, segregated bins, coalescing large-range map).
///  - Ranges are split at shard boundaries on insert, so a range is
///    always owned by exactly one shard and coalescing never has to
///    look across a lock boundary. Insertion takes address-ordered
///    batches: each shard a batch touches is locked once for its whole
///    share, and the parallel sweep claims chunks round-robin across
///    shards so concurrent sweepers mostly publish to different shards.
///  - Allocation is shard-affine: each mutator carries a preferred
///    shard (assigned round-robin at attach) and refills from it;
///    when the preferred shard cannot satisfy the request the search
///    steals from the other shards in ring order before declaring
///    exhaustion.
///  - Aggregate queries (freeBytes, largestRange, numRanges) combine
///    per-shard O(1)/O(log n) state — freeBytes sums the shards'
///    relaxed counters, so the pacer's kickoff and progress formulas
///    (Section 3) see the same aggregate count as with one list.
///    snapshotRanges() (address-ordered across shards) exists for the
///    verifier and tests only.
///
/// NumShards = 1 degenerates to the exact legacy single-list behavior
/// (one shard spanning the heap, every call forwarded verbatim), kept
/// as the A/B comparison baseline.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_HEAP_SHARDEDFREELIST_H
#define CGC_HEAP_SHARDEDFREELIST_H

#include "heap/FreeList.h"
#include "support/FaultInjector.h"

#include <memory>
#include <span>
#include <vector>

namespace cgc {

/// Address-partitioned collection of FreeList shards.
class ShardedFreeList {
public:
  /// Builds the partition over [Base, Base + SizeBytes). \p NumShards
  /// is resolved via resolveShardCount (0 = auto). \p FI (optional)
  /// arms the transient-allocation-failure injection sites.
  /// \p RefillThresholdBytes is forwarded to every shard: only ranges
  /// at least this big count toward refillableFreeBytes() (0 = count
  /// everything, i.e. refillable == free).
  ShardedFreeList(uint8_t *Base, size_t SizeBytes, unsigned NumShards,
                  FaultInjector *FI = nullptr,
                  size_t RefillThresholdBytes = 0);

  /// Resolves a requested shard count: 0 = auto (min(hardware
  /// concurrency, 8)); any value is rounded down to a power of two and
  /// halved until every shard spans at least \p MinShardBytes (and at
  /// least one page).
  static unsigned resolveShardCount(unsigned Requested, size_t HeapBytes,
                                    size_t MinShardBytes);

  unsigned numShards() const { return static_cast<unsigned>(Shards.size()); }

  /// Bytes spanned by each shard (the last shard may span less when the
  /// heap size is not a multiple).
  size_t shardSpanBytes() const { return ShardSpan; }

  /// Index of the shard owning \p Addr (clamped into range; only
  /// meaningful for heap addresses).
  size_t shardIndexFor(const void *Addr) const {
    size_t Offset =
        static_cast<size_t>(static_cast<const uint8_t *>(Addr) - Base);
    size_t Index = Offset / ShardSpan;
    return Index < Shards.size() ? Index : Shards.size() - 1;
  }

  /// Direct shard access (verifier, tests, benches).
  FreeList &shard(size_t I) { return *Shards[I]; }
  const FreeList &shard(size_t I) const { return *Shards[I]; }

  /// Inserts a batch of address-ordered, non-overlapping ranges, split
  /// at shard boundaries so each piece lands in the shard owning its
  /// addresses. Each shard the batch touches takes its lock once for
  /// its whole share (FreeList::addRanges), so a swept chunk costs one
  /// acquisition per shard it covers, not one per range. Returns the
  /// bytes the shards added: a piece under BinGranuleBytes that a split
  /// leaves is dropped and not counted.
  size_t addRanges(std::span<const FreeRange> Ranges);

  /// Inserts [Start, Start + Size): the one-range case of addRanges.
  void addRange(uint8_t *Start, size_t Size) {
    FreeRange Range{Start, Size};
    addRanges({&Range, 1});
  }

  /// Allocates exactly \p Size bytes, trying \p PreferredShard first
  /// and then stealing from the other shards in ring order.
  uint8_t *allocate(size_t Size, size_t PreferredShard = 0);

  /// Allocation-cache refill: at least \p MinSize, at most \p MaxSize,
  /// preferring a full-size grant. The search is two-pass so affinity
  /// never downgrades the grant: first a full MaxSize from any shard
  /// (preferred first), then the best partial grant (preferred first).
  uint8_t *allocateUpTo(size_t MinSize, size_t MaxSize, size_t &OutSize,
                        size_t PreferredShard = 0);

  /// Total free bytes: sum of the shards' relaxed per-shard counters.
  /// (Monotonic consistency is not needed: the pacer formulas tolerate
  /// the same slack a single relaxed counter already had.)
  size_t freeBytes() const;

  /// Free bytes sitting in ranges big enough to serve a refill, summed
  /// over the shards (per-shard values via shard(I).refillableFreeBytes()).
  /// This is the stranding-aware number the pacer's kickoff consumes: a
  /// fragmented shard can hold plenty of raw free bytes that cannot
  /// refill any allocation cache (DESIGN.md §9/§10).
  size_t refillableFreeBytes() const;

  /// Shard-lock acquisitions summed over all shards (relaxed per-shard
  /// counters; benches read deltas per allocation).
  uint64_t lockAcquisitions() const;

  /// Largest single free range: max over the shards' O(log n) per-shard
  /// answers. Never builds a snapshot.
  size_t largestRange() const;

  /// Number of discrete free ranges: sum of the shards' O(1) counts.
  size_t numRanges() const;

  /// Drops all ranges in every shard (start of a sweep rebuild).
  void clear();

  /// Withdraws every tracked byte inside [Lo, Hi) from the shards the
  /// window overlaps. Returns the bytes withdrawn.
  size_t withdrawWithin(uint8_t *Lo, uint8_t *Hi);

  /// Fragmentation statistics for [Lo, Hi), merged across the shards
  /// the window overlaps. A free run split at a shard boundary counts
  /// as one range per shard — consistent with how the shards actually
  /// track (and can hand out) the space, which is what the compactor's
  /// fragmentation scoring wants to see.
  FreeRangeStats statsWithin(uint8_t *Lo, uint8_t *Hi) const;

  /// Copies out all (start, size) ranges, address ordered across shards
  /// (shards are address-ordered and each shard's snapshot is sorted).
  /// Verifier and tests only — O(ranges) copy.
  std::vector<std::pair<uint8_t *, size_t>> snapshotRanges() const;

private:
  /// First byte shard \p Index owns.
  uint8_t *shardBegin(size_t Index) const { return Base + Index * ShardSpan; }

  /// One past the last byte shard \p Index owns.
  uint8_t *shardEnd(size_t Index) const {
    size_t End = (Index + 1) * ShardSpan;
    return Base + (End < Size ? End : Size);
  }

  uint8_t *Base;
  size_t Size;
  size_t ShardSpan;
  FaultInjector *FI;
  /// Heap-allocated so shards sit on separate cache lines.
  std::vector<std::unique_ptr<FreeList>> Shards;
};

} // namespace cgc

#endif // CGC_HEAP_SHARDEDFREELIST_H
