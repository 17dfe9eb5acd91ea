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
#include "heap/ShardedFreeList.h"

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
  explicit HeapSpace(size_t SizeBytes, unsigned FreeListShards = 1,
                     FaultInjector *FI = nullptr,
                     size_t RefillThresholdBytes = 0);
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
  /// summed from the relaxed per-shard counters).
  size_t freeBytes() const { return FreeListV.freeBytes(); }

  /// Free bytes in ranges big enough to serve an allocation-cache
  /// refill (the pacer's stranding-aware kickoff input; <= freeBytes()).
  size_t refillableFreeBytes() const {
    return FreeListV.refillableFreeBytes();
  }

  /// Bytes not on the free list (allocated or unswept).
  size_t occupiedBytes() const { return Size - freeBytes(); }

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
  uint8_t *Base;
  size_t Size;
  BitVector8 MarkBitsV;
  BitVector8 AllocBitsV;
  CardTable CardsV;
  ShardedFreeList FreeListV;
};

} // namespace cgc

#endif // CGC_HEAP_HEAPSPACE_H
