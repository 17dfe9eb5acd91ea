//===- HeapSpace.h - The managed heap region --------------------*- C++ -*-===//
///
/// \file
/// Owns the reserved heap memory and the metadata structures the
/// collector needs: the mark bit vector, the allocation bit vector (one
/// bit per 8 bytes each, as in the paper), the card table and the free
/// list. Also provides the conservative-reference validity test used for
/// stack scanning (a word is treated as a reference only if it points at
/// a granule whose allocation bit is set, Section 5.2).
///
//===----------------------------------------------------------------------===//

#ifndef CGC_HEAP_HEAPSPACE_H
#define CGC_HEAP_HEAPSPACE_H

#include "heap/BitVector8.h"
#include "heap/CardTable.h"
#include "heap/ObjectModel.h"
#include "heap/RemoteFreeQueue.h"
#include "heap/ShardedFreeList.h"

#include <memory>
#include <span>
#include <vector>

namespace cgc {

/// The managed heap: one contiguous region plus side metadata.
class HeapSpace {
public:
  /// Reserves a heap of \p SizeBytes (rounded up to the granule size) and
  /// places the whole region on the free list, partitioned into
  /// \p FreeListShards address shards (0 = auto, 1 = legacy single list;
  /// see ShardedFreeList::resolveShardCount). \p FI (optional) arms the
  /// free-space manager's fault-injection sites.
  /// \p RefillThresholdBytes is forwarded to the free-space manager's
  /// refillable-bytes accounting (0 = refillable == free).
  /// \p RouteRemoteFrees enables the fast path's ownership return:
  /// releaseRanges() parks small reclaimed runs on the owning shard's
  /// lock-free remote-free queue instead of the shared bins
  /// (DESIGN.md §16); off, releaseRanges() is plain addRanges().
  explicit HeapSpace(size_t SizeBytes, unsigned FreeListShards = 1,
                     FaultInjector *FI = nullptr,
                     size_t RefillThresholdBytes = 0,
                     bool RouteRemoteFrees = false);
  ~HeapSpace();

  HeapSpace(const HeapSpace &) = delete;
  HeapSpace &operator=(const HeapSpace &) = delete;

  /// First byte of the heap.
  uint8_t *base() const { return Base; }

  /// Total heap size in bytes.
  size_t sizeBytes() const { return Size; }

  /// One past the last byte of the heap.
  uint8_t *limit() const { return Base + Size; }

  /// Whether \p Addr lies inside the heap region.
  bool contains(const void *Addr) const {
    const uint8_t *P = static_cast<const uint8_t *>(Addr);
    return P >= Base && P < Base + Size;
  }

  /// Conservative-scan filter: true when \p Word looks like a reference
  /// to an allocated object — in range, granule aligned, allocation bit
  /// set. (A stale stack slot can still pass; that only retains garbage,
  /// never frees a live object, exactly as with the JVM's conservative
  /// stack scan.)
  bool isPlausibleObject(uintptr_t Word) const {
    if (Word % GranuleBytes != 0)
      return false;
    const void *P = reinterpret_cast<const void *>(Word);
    if (!contains(P))
      return false;
    return AllocBitsV.test(P);
  }

  BitVector8 &markBits() { return MarkBitsV; }
  const BitVector8 &markBits() const { return MarkBitsV; }
  BitVector8 &allocBits() { return AllocBitsV; }
  const BitVector8 &allocBits() const { return AllocBitsV; }
  CardTable &cards() { return CardsV; }
  const CardTable &cards() const { return CardsV; }
  ShardedFreeList &freeList() { return FreeListV; }
  const ShardedFreeList &freeList() const { return FreeListV; }

  /// Free bytes currently on the free list (aggregate over all shards,
  /// summed from the relaxed per-shard counters) plus bytes parked in
  /// the remote-free queues — queued chunks are free memory a refill
  /// can drain, so hiding them would make the pacer kick off late.
  size_t freeBytes() const {
    return FreeListV.freeBytes() + remoteQueuedBytes();
  }

  /// Free bytes in ranges big enough to serve an allocation-cache
  /// refill (the pacer's stranding-aware kickoff input; <= freeBytes()).
  /// Remote-queued chunks count: the class-refill path consumes them
  /// directly, so to the allocator they are as good as refillable
  /// (see GcCore::pacerVisibleFreeBytes for the cache-side half).
  size_t refillableFreeBytes() const {
    return FreeListV.refillableFreeBytes() + remoteQueuedBytes();
  }

  /// Bytes neither on the free list nor queued (allocated or unswept).
  size_t occupiedBytes() const { return Size - freeBytes(); }

  /// --- Remote-free ownership return (DESIGN.md §16) -------------------

  /// Whether releaseRanges() routes small runs to the remote queues.
  bool remoteRoutingEnabled() const { return RouteRemoteFreesV; }

  /// The queue collecting remote frees for shard \p Shard.
  RemoteFreeQueue &remoteQueue(size_t Shard) { return *RemoteQueuesV[Shard]; }

  /// Bytes currently parked across all remote-free queues.
  size_t remoteQueuedBytes() const {
    size_t Sum = 0;
    for (const auto &Q : RemoteQueuesV)
      Sum += Q->queuedBytes();
    return Sum;
  }

  /// Returns a batch of reclaimed, address-ordered, non-overlapping
  /// ranges to the free-space manager. With routing enabled, runs small
  /// enough for the segregated bins that sit wholly inside one shard are
  /// pushed onto that shard's remote-free queue (lock-free; drained by
  /// the shard's preferred mutator's next class refill); the rest go to
  /// ShardedFreeList::addRanges, one lock acquisition per shard touched.
  /// Sweep publishes each swept chunk's ranges this way and compaction
  /// its rebuilt area. \p Ranges is scratch: routing compacts it in
  /// place, so its contents are unspecified afterwards. Returns the
  /// bytes published (queued or listed), which freeBytes() grows by.
  size_t releaseRanges(std::span<FreeRange> Ranges) {
    size_t Kept = Ranges.size(), Queued = 0;
    if (RouteRemoteFreesV) {
      Kept = 0;
      for (FreeRange Range : Ranges) {
        if (routeToRemoteQueue(Range))
          Queued += Range.second;
        else
          Ranges[Kept++] = Range;
      }
    }
    return Queued + FreeListV.addRanges(Ranges.first(Kept));
  }

  /// Returns [Start, Start + Size): the one-range case of releaseRanges.
  void releaseRange(uint8_t *Start, size_t Size) {
    FreeRange Range{Start, Size};
    releaseRanges({&Range, 1});
  }

  /// Drains shard \p Shard's remote queue onto its free list (ladder
  /// stranded-memory reclaim; detach without a successor). Returns the
  /// bytes moved.
  size_t drainRemoteQueue(size_t Shard);

  /// Drains every remote queue onto the free lists. Returns bytes moved.
  size_t drainAllRemoteQueues();

  /// Drops all queued chunks (sweep pause only: the bitwise sweep
  /// re-derives every parked run from the mark bits, and surviving
  /// entries would be double-owned after the re-insert).
  void resetRemoteQueues() {
    for (auto &Q : RemoteQueuesV)
      Q->reset();
  }

  /// Enumerates marked objects whose header lies in [From, To): calls
  /// \p Fn(Object*) for each granule that has both its allocation bit and
  /// its mark bit set. Used by card cleaning.
  template <typename FnT>
  void forEachMarkedObjectIn(const void *From, const void *To,
                             FnT Fn) const {
    AllocBitsV.forEachSetInRange(From, To, [&](uint8_t *Granule) {
      if (MarkBitsV.test(Granule))
        Fn(reinterpret_cast<Object *>(Granule));
      return true;
    });
  }

private:
  /// Parks \p Range on its shard's remote-free queue when it is a
  /// bin-sized run inside one shard; returns whether it did.
  bool routeToRemoteQueue(FreeRange Range) {
    auto [Start, Bytes] = Range;
    if (Bytes < RemoteFreeQueue::MinChunkBytes ||
        Bytes >= FreeList::BinThresholdBytes)
      return false;
    size_t Shard = FreeListV.shardIndexFor(Start);
    if (FreeListV.shardIndexFor(Start + Bytes - 1) != Shard)
      return false;
    RemoteQueuesV[Shard]->push(Start, Bytes);
    return true;
  }

  uint8_t *Base;
  size_t Size;
  BitVector8 MarkBitsV;
  BitVector8 AllocBitsV;
  CardTable CardsV;
  ShardedFreeList FreeListV;
  /// One remote-free queue per shard (heap-owned so a queue can never
  /// outlive or predate the chunks parked on it); heap-allocated so
  /// queues sit on separate cache lines.
  std::vector<std::unique_ptr<RemoteFreeQueue>> RemoteQueuesV;
  const bool RouteRemoteFreesV;
};

} // namespace cgc

#endif // CGC_HEAP_HEAPSPACE_H
