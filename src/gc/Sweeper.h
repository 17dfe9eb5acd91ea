//===- Sweeper.h - Parallel bitwise sweep -----------------------*- C++ -*-===//
///
/// \file
/// Bitwise sweep (Section 2.2): reclaims unused storage in time
/// essentially proportional to the number of live objects by finding
/// ranges of unmarked memory in the mark bit vector. The heap is divided
/// into fixed chunks claimed by workers through an atomic cursor; a
/// sweeping thread resolves objects spanning its chunk's leading edge by
/// scanning the mark bits backwards. Allocation bits of reclaimed ranges
/// are cleared so conservative scanning cannot resurrect dead memory.
///
/// Publication is batched per chunk. A chunk's reclaimed ranges collect
/// in the sweeping thread's buffer (address ordered, at most one chunk's
/// worth) and go to the free-space manager in one
/// ShardedFreeList::addRanges call at the end of the chunk: one shard-lock
/// acquisition per shard the chunk covers, not one per range. Adjacent
/// chunks usually map to the same shard, so the parallel sweep claims
/// chunks round-robin across shards (an order fixed at construction):
/// concurrent sweepers then publish to different shards instead of
/// queueing on one lock. Within a shard, free ranges still coalesce
/// across chunk boundaries in the address-ordered large map.
///
/// The walk (walkLiveRuns, shared with the compactor's area rebuild)
/// alternates between the mark bits and the live objects' headers: a
/// live object's extent is only known once its header is read, and the
/// search for the next live object starts at its end. Done naively this
/// is a dependent load chain, one cache miss per live object. The mark
/// bitmap already lists every upcoming header address, so the walk
/// enumerates the mark bits ahead of itself (BitVector8::SetBitCursor,
/// a 64-bit word at a time) into a fixed ring of PrefetchDistance
/// addresses and prefetches each header as it enters the ring; by the
/// time the walk reaches it, its size is in cache. Marks the walk has
/// already passed (inside a live object's extent) are skipped, exactly
/// as a search starting at the object's end would skip them.
///
/// A chunk's dead allocation bits are cleared in one word-wise pass
/// after the walk, alloc &= mark over the chunk's own bitmap words
/// (BitVector8::retainRange), instead of one range clear per gap. This
/// clears exactly the gaps' bits because of two invariants: every mark
/// bit has its allocation bit (mark ⊆ alloc), and no allocation bit lies
/// inside a live object's body, so the only allocation bits outside the
/// gaps are live headers, which are marked. Both are asserted. A 1 MB
/// chunk is 2048 whole bitmap words that only its sweeper writes until
/// the chunk's ranges are published, so a relaxed load and store per
/// word suffices. The exclusion window is the exception: under lazy
/// sweep, mutators may already allocate from the compactor's rebuilt
/// area ranges, so a word the window cuts is edited with a masked
/// fetch_and that leaves the window's bits alone, and words wholly
/// inside the window are not touched.
///
/// Lazy sweep (the paper's future work, Section 7): the sweep is taken
/// out of the pause and performed incrementally at allocation time, with
/// completion forced before the next cycle begins.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_GC_SWEEPER_H
#define CGC_GC_SWEEPER_H

#include "heap/HeapSpace.h"
#include "support/Annotations.h"

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace cgc {

class GcObserver;
class WorkerPool;

/// Parallel / lazy bitwise sweeper over a HeapSpace.
class Sweeper {
public:
  /// Heap bytes swept as one unit.
  static constexpr size_t ChunkBytes = 1u << 20;

  /// \p Obs (optional) receives a SweepSlice event per lazy-sweep call
  /// that reclaims memory.
  explicit Sweeper(HeapSpace &Heap, GcObserver *Obs = nullptr);

  /// Full STW sweep: clears the free list and rebuilds it from the mark
  /// bit vector, in parallel on \p Workers (may be null for serial).
  /// Returns the total live bytes found.
  uint64_t sweepAll(WorkerPool *Workers);

  /// Arms lazy sweeping: clears the free list and resets the chunk
  /// cursor; chunks are swept on demand by sweepUntilFree.
  void armLazySweep();

  /// Whether lazily swept chunks remain.
  bool lazySweepPending() const {
    return LazyActive.load(std::memory_order_acquire);
  }

  /// Lazy-sweeps chunks until at least \p FreeBytesWanted have been
  /// reclaimed by this call or the heap is fully swept. Returns the
  /// bytes this call published to the free-space manager (exactly what
  /// HeapSpace::freeBytes() grew by).
  uint64_t sweepUntilFree(size_t FreeBytesWanted);

  /// Sweeps all remaining chunks (forced completion before a new cycle).
  void finishLazySweep();

  /// Latches [Lo, Hi) — the compactor's armed evacuation area — as this
  /// sweep generation's exclusion window: reclaim (bit clearing and
  /// free-list insertion) is clipped to outside it. The armed area
  /// belongs to the compactor, whose post-evacuation rebuild is the
  /// only writer of its free ranges; without the window a late lazy
  /// chunk sweep could re-insert (or double-insert) area ranges after
  /// evacuation and hand the compactor an in-area target. Call before
  /// arming the sweep (armLazySweep / sweepAll) and leave it latched
  /// until the next generation starts; (nullptr, nullptr) clears it.
  void setEvacuationExclusion(uint8_t *Lo, uint8_t *Hi) {
    ExclLo.store(Lo, std::memory_order_relaxed);
    ExclHi.store(Hi, std::memory_order_relaxed);
  }

  /// Whether the lazy sweep has not yet reached the chunk owning
  /// \p Addr (so that chunk's free ranges are still un-derived). Only
  /// meaningful while no sweeper is actively mid-chunk — i.e. inside
  /// the pause, where the compactor uses it to decide which
  /// straddler-tail pieces it must return to the free list itself.
  bool sweepPendingAt(const void *Addr) const {
    if (!LazyActive.load(std::memory_order_acquire))
      return false;
    size_t Index =
        static_cast<size_t>(static_cast<const uint8_t *>(Addr) - Heap.base()) /
        ChunkBytes;
    return Index >= Cursor.load(std::memory_order_relaxed);
  }

  /// Headers the walk prefetches ahead of the one it is reading.
  static constexpr unsigned PrefetchDistance = 16;

  /// The bitwise walk over [Pos, End): calls \p Gap(From, To) for each
  /// maximal run of memory not covered by a live object (non-empty, in
  /// address order, never crossing End) and \p Live(Object *) for each
  /// marked object whose header the walk reaches, then continues at that
  /// object's end. \p Pos must not lie inside a live object. Returns
  /// where the walk stopped: End, or the end of a last live object that
  /// extends past it. Reads headers through a prefetch ring fed by
  /// \p Marks' set-bit cursor (see the file comment).
  template <typename GapFnT, typename LiveFnT>
  static uint8_t *walkLiveRuns(const BitVector8 &Marks, uint8_t *Pos,
                               uint8_t *End, GapFnT &&Gap, LiveFnT &&Live) {
    static_assert((PrefetchDistance & (PrefetchDistance - 1)) == 0,
                  "ring index wraps with a mask");
    constexpr size_t RingMask = PrefetchDistance - 1;
    BitVector8::SetBitCursor Ahead(Marks, Pos, End);
    uint8_t *Ring[PrefetchDistance];
    // Entries [Head, Tail) are pending; the ring is full (Tail - Head ==
    // PrefetchDistance) until the cursor runs dry.
    size_t Head = 0, Tail = 0;
    for (; Tail < PrefetchDistance; ++Tail) {
      uint8_t *Next = Ahead.next();
      if (!Next)
        break;
      __builtin_prefetch(Next);
      Ring[Tail] = Next;
    }
    while (Head != Tail) {
      uint8_t *Header = Ring[Head & RingMask];
      // Refill the slot just read; with a full ring it is Tail's slot.
      if (uint8_t *Next = Ahead.next()) {
        __builtin_prefetch(Next);
        Ring[Tail++ & RingMask] = Next;
      }
      ++Head;
      if (Header < Pos)
        continue; // A mark inside the previous live object's extent.
      if (Pos < Header)
        Gap(Pos, Header);
      Object *Obj = reinterpret_cast<Object *>(Header);
      Live(Obj);
      Pos = Obj->end();
    }
    if (Pos < End)
      Gap(Pos, End);
    return Pos;
  }

  /// Live bytes found by the last completed sweep.
  uint64_t liveBytes() const {
    return LiveBytesFound.load(std::memory_order_relaxed);
  }

private:
  /// Sweeps chunk \p Index and publishes its free ranges in one batch,
  /// collected in \p Batch (the caller's reused buffer); returns
  /// {bytes published, live bytes}.
  struct ChunkResult {
    uint64_t FreedBytes = 0;
    uint64_t LiveBytes = 0;
  };
  ChunkResult sweepChunk(size_t Index, std::vector<FreeRange> &Batch);

  /// First position in chunk \p Index not covered by a live object
  /// spanning in from an earlier chunk.
  uint8_t *chunkSweepStart(size_t Index) const;

  HeapSpace &Heap;
  size_t NumChunks;
  /// sweepAll's claim order: chunk indices round-robin across the
  /// free-list shards owning their first bytes. (The lazy sweep claims
  /// in address order, which sweepPendingAt relies on.)
  std::vector<uint32_t> ClaimOrder;
  GcObserver *Obs;
  std::atomic<size_t> Cursor{0};
  std::atomic<bool> LazyActive{false};
  std::atomic<int> ActiveSweepers{0};
  std::atomic<uint64_t> LiveBytesFound{0};
  CGC_ATOMIC_DOC("evacuation-exclusion bounds; stored before the sweep "
                 "generation is armed (ordered by LazyActive's release / "
                 "runParallel's dispatch), relaxed reads per chunk")
  std::atomic<uint8_t *> ExclLo{nullptr};
  CGC_ATOMIC_DOC("see ExclLo")
  std::atomic<uint8_t *> ExclHi{nullptr};
};

} // namespace cgc

#endif // CGC_GC_SWEEPER_H
