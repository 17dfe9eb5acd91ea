//===- Compactor.cpp - Parallel fragmentation-guided compaction ---------------//

#include "gc/Compactor.h"

#include "gc/Sweeper.h"
#include "gc/WorkerPool.h"
#include "mutator/ThreadRegistry.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>
#include <unordered_map>
#include <unordered_set>

using namespace cgc;

//===----------------------------------------------------------------------===//
// Per-thread slot buffers (the GcObserver ring-cache idiom)
//===----------------------------------------------------------------------===//

namespace {

std::atomic<uint64_t> NextCompactorId{1};
std::atomic<uint64_t> NextRecorderThreadId{1};

uint64_t recorderThreadId() {
  thread_local uint64_t Id =
      NextRecorderThreadId.fetch_add(1, std::memory_order_relaxed);
  return Id;
}

/// Which compactor the cached pointer belongs to; a stale cache (other
/// instance, or table exhausted for this thread) re-resolves through
/// the slow path.
struct SlotBufferCache {
  uint64_t CompactorId = 0;
  std::vector<Compactor::SlotRecord> *Buf = nullptr;
  bool Exhausted = false;
};

thread_local SlotBufferCache Cache;

} // namespace

Compactor::Compactor(HeapSpace &Heap, size_t AreaBytes, FaultInjector *FI)
    : Heap(Heap), AreaBytes(AreaBytes), FI(FI),
      CompactorId(NextCompactorId.fetch_add(1, std::memory_order_relaxed)) {}

std::vector<Compactor::SlotRecord> *Compactor::threadSlotBuffer() {
  if (Cache.CompactorId == CompactorId)
    return Cache.Exhausted ? nullptr : Cache.Buf;
  return createSlotBufferSlow();
}

std::vector<Compactor::SlotRecord> *Compactor::createSlotBufferSlow() {
  uint64_t Owner = recorderThreadId();
  SpinLockGuard Guard(SlotsLock);
  // This thread may already own a buffer here (its cache was repointed
  // at another compactor in between); reuse it instead of burning a slot.
  uint32_t N = NumSlotBuffers.load(std::memory_order_relaxed);
  for (uint32_t I = 0; I < N; ++I)
    if (SlotBuffers[I] && SlotBuffers[I]->OwnerThread == Owner) {
      Cache = {CompactorId, &SlotBuffers[I]->Records, false};
      return Cache.Buf;
    }
  if (N >= MaxSlotBuffers) {
    Cache = {CompactorId, nullptr, true};
    return nullptr;
  }
  SlotBuffers[N] = std::make_unique<SlotBuffer>();
  SlotBuffers[N]->OwnerThread = Owner;
  Cache = {CompactorId, &SlotBuffers[N]->Records, false};
  NumSlotBuffers.store(N + 1, std::memory_order_relaxed);
  return Cache.Buf;
}

void Compactor::clearSlotsLocked() {
  uint32_t N = NumSlotBuffers.load(std::memory_order_relaxed);
  for (uint32_t I = 0; I < N; ++I)
    if (SlotBuffers[I])
      SlotBuffers[I]->Records.clear();
  OverflowSlots.clear();
}

//===----------------------------------------------------------------------===//
// Area-selection policy
//===----------------------------------------------------------------------===//

double Compactor::fragmentationScore(const FreeRangeStats &F,
                                     size_t AreaBytes) {
  // Evacuating an area turns it into one contiguous free block (minus
  // pins), so the benefit is the contiguity recovered — the gap between
  // the area size and the largest free range it holds today — plus a
  // small per-range bonus (every extra range is refill overhead the
  // area imposes). The cost is copying the live bytes out. Score =
  // benefit - cost; strictly increasing in FreeBytes and RangeCount,
  // strictly decreasing in LargestRange. An already-contiguous (e.g.
  // fully free) area scores near zero; a fully live one scores deeply
  // negative. The coefficients only need to order areas sensibly; they
  // are not tuned against a benchmark.
  double Contiguity = static_cast<double>(AreaBytes) -
                      static_cast<double>(F.LargestRange);
  double LiveBytes = F.FreeBytes < AreaBytes
                         ? static_cast<double>(AreaBytes - F.FreeBytes)
                         : 0.0;
  return Contiguity + 64.0 * static_cast<double>(F.RangeCount) -
         0.5 * LiveBytes;
}

size_t Compactor::selectArea(const std::vector<FreeRangeStats> &Candidates,
                             size_t AreaBytes, size_t SkipIndex) {
  size_t Best = SIZE_MAX;
  double BestScore = 0.0;
  for (size_t I = 0; I < Candidates.size(); ++I) {
    if (I == SkipIndex)
      continue;
    const FreeRangeStats &F = Candidates[I];
    // No tracked free range = nothing measurable to defragment (either
    // fully live, or the free list is empty this generation); leave it
    // to the rotation fallback.
    if (F.RangeCount == 0)
      continue;
    double Score = fragmentationScore(F, AreaBytes);
    if (Best == SIZE_MAX || Score > BestScore) {
      Best = I;
      BestScore = Score;
    }
  }
  return Best;
}

void Compactor::armWindow(uint8_t *Lo, uint8_t *Hi) {
  {
    SpinLockGuard Guard(SlotsLock);
    clearSlotsLocked();
  }
  // Bounds first: recordSlot is only reachable once inEvacArea sees a
  // non-null window, and Armed's release fences the whole publication.
  AreaStart.store(Lo, std::memory_order_relaxed);
  AreaEnd.store(Hi, std::memory_order_relaxed);
  Armed.store(true, std::memory_order_release);
}

void Compactor::armForCycle() {
  assert(!Armed.load(std::memory_order_relaxed) &&
         "previous evacuation not finished");
  if (Armed.load(std::memory_order_relaxed))
    disarm(); // Release builds: recover instead of corrupting state.
  if (AreaBytes == 0 || AreaBytes >= Heap.sizeBytes())
    return;

  size_t NumAreas = (Heap.sizeBytes() + AreaBytes - 1) / AreaBytes;
  std::vector<FreeRangeStats> Candidates;
  Candidates.reserve(NumAreas);
  for (size_t I = 0; I < NumAreas; ++I) {
    uint8_t *Lo = Heap.base() + I * AreaBytes;
    uint8_t *Hi = std::min(Lo + AreaBytes, Heap.limit());
    Candidates.push_back(Heap.freeList().statsWithin(Lo, Hi));
  }
  LastAreasScored = NumAreas;

  size_t Skip = LastAreaPinnedHeavy && NumAreas > 1 ? LastAreaIndex : SIZE_MAX;
  size_t Pick = selectArea(Candidates, AreaBytes, Skip);
  if (Pick == SIZE_MAX) {
    // Nothing scoreable (typically an empty free list): blind rotation,
    // as before fragmentation guidance existed.
    Pick = NextAreaOffset / AreaBytes;
    if (Pick == Skip)
      Pick = (Pick + 1) % NumAreas;
    NextAreaOffset += AreaBytes;
    if (NextAreaOffset >= Heap.sizeBytes())
      NextAreaOffset = 0;
  }
  LastAreaIndex = Pick;

  uint8_t *Start = Heap.base() + Pick * AreaBytes;
  uint8_t *End = std::min(Start + AreaBytes, Heap.limit());
  armWindow(Start, End);
}

void Compactor::armAreaForTest(uint8_t *Lo, uint8_t *Hi) {
  assert(!Armed.load(std::memory_order_relaxed) && "already armed");
  LastAreasScored = 0;
  LastAreaIndex = static_cast<size_t>(Lo - Heap.base()) /
                  (AreaBytes ? AreaBytes : Heap.sizeBytes());
  armWindow(Lo, Hi);
}

void Compactor::disarm() {
  Armed.store(false, std::memory_order_release);
  AreaStart.store(nullptr, std::memory_order_relaxed);
  AreaEnd.store(nullptr, std::memory_order_relaxed);
  SpinLockGuard Guard(SlotsLock);
  clearSlotsLocked();
}

//===----------------------------------------------------------------------===//
// Parallel evacuation
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p Job on all pool participants, or inline when no pool.
void runJob(WorkerPool *Workers, const std::function<void(unsigned)> &Job) {
  if (Workers)
    Workers->runParallel(Job);
  else
    Job(0);
}

} // namespace

Compactor::Stats Compactor::evacuate(ThreadRegistry &Registry,
                                     WorkerPool *Workers, Sweeper *Sweep) {
  Stats Result;
  Result.AreasScored = LastAreasScored;
  uint8_t *Lo = AreaStart.load(std::memory_order_relaxed);
  uint8_t *Hi = AreaEnd.load(std::memory_order_relaxed);
  if (!Lo) {
    disarm();
    return Result;
  }

  // Evacuation targets must lie outside the area. The sweeper's
  // exclusion window keeps in-area ranges out of the free list for the
  // whole sweep generation; this withdraw stays as defense in depth
  // against ranges inserted before the window was latched.
  Heap.freeList().withdrawWithin(Lo, Hi);

  unsigned Participants = Workers ? Workers->numParticipants() : 1;

  // 1. Pin every area object referenced from a (conservatively scanned)
  //    thread stack: those slots cannot be updated. Mutators are
  //    partitioned across workers by an atomic cursor.
  std::vector<MutatorContext *> Mutators;
  Registry.forEach([&](MutatorContext &Ctx) { Mutators.push_back(&Ctx); });
  std::vector<std::vector<Object *>> PinnedPer(Participants);
  std::atomic<size_t> PinCursor{0};
  runJob(Workers, [&](unsigned W) {
    for (;;) {
      size_t I = PinCursor.fetch_add(1, std::memory_order_relaxed);
      if (I >= Mutators.size())
        break;
      Mutators[I]->withRoots([&](const std::vector<uintptr_t> &Roots) {
        for (uintptr_t Word : Roots) {
          if (!Heap.isPlausibleObject(Word))
            continue;
          uint8_t *P = reinterpret_cast<uint8_t *>(Word);
          if (P >= Lo && P < Hi)
            PinnedPer[W].push_back(reinterpret_cast<Object *>(P));
        }
      });
    }
  });
  std::unordered_set<Object *> Pinned;
  for (const auto &Part : PinnedPer)
    Pinned.insert(Part.begin(), Part.end());
  Result.PinnedObjects = Pinned.size();

  // 2. Choose targets for every live (marked) unpinned object in the
  //    area. Nothing is copied yet: the recorded slots still point at
  //    the old locations, including slots inside objects that will
  //    themselves move. The area is split into one contiguous sub-range
  //    per participant (a header belongs to exactly one sub-range) and
  //    each worker allocates shard-affine, so workers evacuate into
  //    "their" free-list shards instead of convoying on one lock.
  struct Move {
    Object *Old;
    Object *New;
  };
  std::vector<std::vector<Move>> MovesPer(Participants);
  std::vector<uint64_t> FailedPer(Participants, 0);
  size_t Span = static_cast<size_t>(Hi - Lo);
  size_t SubBytes = (Span / Participants + GranuleBytes - 1) &
                    ~(size_t{GranuleBytes} - 1);
  if (SubBytes == 0)
    SubBytes = GranuleBytes;
  size_t NumShards = Heap.freeList().numShards();
  runJob(Workers, [&](unsigned W) {
    uint8_t *SubLo = Lo + W * SubBytes;
    if (SubLo >= Hi)
      return;
    uint8_t *SubHi = W + 1 == Participants ? Hi : std::min(Hi, SubLo + SubBytes);
    size_t Preferred = (static_cast<size_t>(W) * NumShards) / Participants;
    Heap.markBits().forEachSetInRange(SubLo, SubHi, [&](uint8_t *Granule) {
      Object *Obj = reinterpret_cast<Object *>(Granule);
      assert(Heap.allocBits().test(Obj) && "marked non-object in evac area");
      if (Pinned.count(Obj))
        return true;
      if (FI && FI->shouldFail(FaultSite::CompactorTargetAlloc)) {
        ++FailedPer[W]; // Simulated exhaustion: the object stays put.
        return true;
      }
      // Objects straddling the area's end still move as a whole (their
      // header is inside).
      uint8_t *Target = Heap.freeList().allocate(Obj->sizeBytes(), Preferred);
      if (!Target) {
        ++FailedPer[W];
        return true;
      }
      if (Target >= Lo && Target < Hi) {
        // Must be impossible (area withdrawn + sweep exclusion window);
        // in release builds treat it as a failed move rather than
        // corrupt the heap. The range is lost until the next sweep.
        assert(false && "evacuation target inside the area");
        ++FailedPer[W];
        return true;
      }
      MovesPer[W].push_back({Obj, reinterpret_cast<Object *>(Target)});
      return true;
    });
  });

  std::vector<Move> Moves;
  std::unordered_map<Object *, Object *> Forwarding;
  size_t NumMoves = 0;
  for (const auto &Part : MovesPer)
    NumMoves += Part.size();
  Moves.reserve(NumMoves);
  Forwarding.reserve(NumMoves);
  // A moved object whose extent crosses Hi leaves a tail beyond the
  // area; step 5 must return it to the free list (at most one exists:
  // only the last object in the area can straddle out).
  uint8_t *MovedStraddleEnd = nullptr;
  for (unsigned W = 0; W < Participants; ++W) {
    Result.FailedObjects += FailedPer[W];
    for (const Move &M : MovesPer[W]) {
      Moves.push_back(M);
      Forwarding.emplace(M.Old, M.New);
      uint8_t *OldEnd = M.Old->end();
      if (OldEnd > Hi && OldEnd > MovedStraddleEnd)
        MovedStraddleEnd = OldEnd;
    }
  }

  // 3. Merge the per-thread slot records and fix them up in place,
  //    before any copy, so moving holders copy already-fixed slot
  //    values. Fixup is idempotent (same old value maps to the same new
  //    address), so duplicate records across chunks are harmless.
  std::vector<SlotRecord> AllSlots;
  {
    SpinLockGuard Guard(SlotsLock);
    size_t Total = OverflowSlots.size();
    uint32_t N = NumSlotBuffers.load(std::memory_order_relaxed);
    for (uint32_t I = 0; I < N; ++I)
      if (SlotBuffers[I])
        Total += SlotBuffers[I]->Records.size();
    AllSlots.reserve(Total);
    AllSlots.insert(AllSlots.end(), OverflowSlots.begin(),
                    OverflowSlots.end());
    for (uint32_t I = 0; I < N; ++I)
      if (SlotBuffers[I])
        AllSlots.insert(AllSlots.end(), SlotBuffers[I]->Records.begin(),
                        SlotBuffers[I]->Records.end());
  }
  Result.SlotRecords = AllSlots.size();
  std::atomic<size_t> SlotCursor{0};
  std::atomic<uint64_t> SlotsFixed{0};
  constexpr size_t SlotChunk = 1024;
  runJob(Workers, [&](unsigned) {
    uint64_t Fixed = 0;
    for (;;) {
      size_t Begin = SlotCursor.fetch_add(SlotChunk, std::memory_order_relaxed);
      if (Begin >= AllSlots.size())
        break;
      size_t End = std::min(Begin + SlotChunk, AllSlots.size());
      for (size_t I = Begin; I < End; ++I) {
        auto [Holder, Index] = AllSlots[I];
        if (!Heap.markBits().test(Holder))
          continue; // The holder died; its memory was already swept.
        Object *Value = Holder->loadRef(Index);
        auto It = Forwarding.find(Value);
        if (It == Forwarding.end())
          continue; // Null, rewritten, pinned, or failed-to-move.
        Holder->storeRefRaw(Index, It->second);
        ++Fixed;
      }
    }
    SlotsFixed.fetch_add(Fixed, std::memory_order_relaxed);
  });
  Result.SlotsFixed = SlotsFixed.load(std::memory_order_relaxed);

  // 4. Copy the objects and transfer their bitmap bits. Targets are
  //    disjoint freshly allocated ranges and the bit vectors' ops are
  //    atomic, so moves copy in parallel without coordination.
  std::atomic<size_t> CopyCursor{0};
  std::atomic<uint64_t> CopiedObjects{0}, CopiedBytes{0};
  constexpr size_t CopyChunk = 64;
  runJob(Workers, [&](unsigned) {
    uint64_t Objects = 0, Bytes = 0;
    for (;;) {
      size_t Begin = CopyCursor.fetch_add(CopyChunk, std::memory_order_relaxed);
      if (Begin >= Moves.size())
        break;
      size_t End = std::min(Begin + CopyChunk, Moves.size());
      for (size_t I = Begin; I < End; ++I) {
        Object *Old = Moves[I].Old, *New = Moves[I].New;
        uint32_t Size = Old->sizeBytes();
        std::memcpy(New, Old, Size);
        Heap.allocBits().set(New);
        Heap.markBits().set(New);
        Heap.allocBits().clear(Old);
        Heap.markBits().clear(Old);
        Bytes += Size;
        ++Objects;
      }
    }
    CopiedObjects.fetch_add(Objects, std::memory_order_relaxed);
    CopiedBytes.fetch_add(Bytes, std::memory_order_relaxed);
  });
  Result.EvacuatedObjects = CopiedObjects.load(std::memory_order_relaxed);
  Result.EvacuatedBytes = CopiedBytes.load(std::memory_order_relaxed);

  // 5. Rebuild the area's free space: everything except the objects
  //    that stayed (pinned or failed) is free now. A mini bitwise sweep
  //    over the area (the sweep's own walk) derives the maximal runs; a
  //    live object straddling in from before the area keeps its extent.
  //    Serial: it is one area's worth of bitmap, and its runs are
  //    published in one batch (one lock acquisition per shard the area
  //    covers).
  std::vector<FreeRange> Rebuilt;
  uint8_t *Pos = Lo;
  if (uint8_t *PrevMarked = Heap.markBits().findPrevSet(Lo)) {
    uint8_t *PrevEnd = reinterpret_cast<Object *>(PrevMarked)->end();
    if (PrevEnd > Pos)
      Pos = PrevEnd;
  }
  Sweeper::walkLiveRuns(
      Heap.markBits(), Pos, Hi,
      [&](uint8_t *From, uint8_t *To) {
        Heap.allocBits().clearRange(From, To);
        Rebuilt.emplace_back(From, static_cast<size_t>(To - From));
      },
      [](Object *) {});

  // 5b. A moved straddler's tail [Hi, old end) was live when the
  //     outside sweep passed it, so nobody else returns it. Add the
  //     pieces whose owning sweep chunks are already done; chunks the
  //     lazy sweep has not reached yet will re-derive the tail from the
  //     now-clear mark bit themselves (adding those here would
  //     double-insert the range).
  if (MovedStraddleEnd) {
    uint8_t *P = Hi;
    while (P < MovedStraddleEnd) {
      uint8_t *PieceEnd = MovedStraddleEnd;
      if (Sweep) {
        uint8_t *ChunkEnd =
            Heap.base() +
            ((static_cast<size_t>(P - Heap.base()) / Sweeper::ChunkBytes) + 1) *
                Sweeper::ChunkBytes;
        PieceEnd = std::min(PieceEnd, ChunkEnd);
      }
      if (!Sweep || !Sweep->sweepPendingAt(P))
        Rebuilt.emplace_back(P, static_cast<size_t>(PieceEnd - P));
      P = PieceEnd;
    }
  }
  // One batch, as the sweep publishes a chunk: one lock per shard.
  Heap.freeList().addRanges(Rebuilt);

  // Cooldown bookkeeping: conservative stack pins rarely clear within
  // one cycle, so a pinned-heavy area is skipped on the next arm.
  LastAreaPinnedHeavy = Result.PinnedObjects >= PinnedHeavyThreshold;

  disarm();
  return Result;
}
