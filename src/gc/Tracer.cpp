//===- Tracer.cpp - Parallel marking engine ----------------------------------//

#include "gc/Tracer.h"

#include "mutator/ThreadRegistry.h"
#include "observe/Observe.h"
#include "support/Fences.h"

#include <algorithm>
#include <bitset>
#include <cstdio>
#include <cassert>

using namespace cgc;

void Tracer::beginCycle() {
  TracedBytes.store(0, std::memory_order_relaxed);
  Overflows.store(0, std::memory_order_relaxed);
  Deferred.store(0, std::memory_order_relaxed);
}

void Tracer::markAndQueue(TraceContext &Ctx, Object *Obj) {
  assert(Heap.contains(Obj) && "marking an object outside the heap");
  if (!Heap.markBits().testAndSet(Obj))
    return; // Already marked (another participant owns scanning it).
  if (Ctx.pushWork(Obj) == PushResult::Ok)
    return;
  // Overflow treatment (Section 4.3): the object stays marked; dirty its
  // card so card cleaning retraces it later.
  Heap.cards().dirty(Obj);
  uint64_t Total = Overflows.fetch_add(1, std::memory_order_relaxed) + 1;
  // Size 0: queueing never reads the object (its header may not be
  // visible yet under the Section 5.2 protocol).
  CGC_OBS_EVENT_P(Obs, Overflow, 0, Total);
}

size_t Tracer::scanObject(TraceContext &Ctx, Object *Obj) {
  if (NaiveFences)
    recordNaiveFence(FenceSite::NaivePerObjectTrace);
  unsigned NumRefs = Obj->numRefs();
  for (unsigned I = 0; I < NumRefs; ++I) {
    Object *Child = Obj->loadRef(I);
    if (!Child)
      continue;
#ifndef NDEBUG
    if (!Heap.contains(Child)) {
      std::fprintf(stderr,
                   "tracer: junk ref %p in slot %u of %p (off=%zu size=%u "
                   "refs=%u class=%u alloc=%d mark=%d)\n",
                   static_cast<void *>(Child), I, static_cast<void *>(Obj),
                   static_cast<size_t>(reinterpret_cast<uint8_t *>(Obj) -
                                       Heap.base()),
                   Obj->sizeBytes(), Obj->numRefs(), Obj->classId(),
                   Heap.allocBits().test(Obj), Heap.markBits().test(Obj));
      assert(false && "reference slot points outside the heap");
    }
#endif
    // Incremental compaction (Section 2.3): track every reference into
    // the evacuation area, during both concurrent and STW marking.
    if (Compact && Compact->inEvacArea(Child))
      Compact->recordSlot(Obj, I);
    markAndQueue(Ctx, Child);
  }
  return Obj->sizeBytes();
}

size_t Tracer::traceWork(TraceContext &Ctx, size_t BudgetBytes,
                         bool CheckAllocBits, bool AbortOnStopRequest) {
  size_t Done = 0;
  uint64_t DeferredHere = 0;
  // Safety classification of the current input packet's entries
  // (indices match the packet's LIFO positions).
  std::bitset<WorkPacket::Capacity> Safe;

  while (Done < BudgetBytes) {
    if (AbortOnStopRequest && Registry.stopRequested())
      break;
    if (FI && CheckAllocBits) {
      // Concurrent increments only (CheckAllocBits is false exactly when
      // the world is stopped, and the final drain must run to
      // completion): an injected hit ends the increment early so the
      // pacer falls behind and the watchdog/ladder paths get exercised.
      FI->maybePerturb(FaultSite::TracerStep);
      if (FI->shouldFail(FaultSite::TracerStep))
        break;
    }
    if (!Ctx.ensureInputWork())
      break;
    WorkPacket *In = Ctx.input();
    uint32_t N = In->count();
    if (CheckAllocBits) {
      // Section 5.2 tracer steps 2-3: sample every entry's allocation
      // bit, then one fence for the whole batch. The acquire sample
      // pairs with the allocator's release publication so the ordering
      // is also visible to TSan (see BitVector8::testAcquire).
      for (uint32_t I = 0; I < N; ++I)
        Safe[I] = Heap.allocBits().testAcquire(In->peek(I));
      fence(FenceSite::TracerBatch);
    }
    // Prefetch each entry PrefetchDistance pops before it is scanned:
    // prime the batch's top entries here, then one more per pop below.
    // Deferred entries are never touched, not even by a prefetch. The
    // prefetches stop with the batch (In stays the input until then).
    auto prefetch = [&](uint32_t I) {
      Object *Ahead = In->peek(I); // peek range-checks I before Safe[I].
      if (!CheckAllocBits || Safe[I])
        __builtin_prefetch(Ahead);
    };
    for (uint32_t I = N; I > N - std::min(N, PrefetchDistance);)
      prefetch(--I);
    // Consume this batch (budget permitting). scanObject can trigger the
    // swap exception, which changes which packet is the input; the
    // classification is only valid for the packet it was taken on, so
    // stop and re-classify when that happens.
    while (Ctx.input() == In && !In->empty() && In->count() <= N &&
           Done < BudgetBytes) {
      uint32_t Index = In->count() - 1;
      Object *Obj = In->pop();
      if (Index >= PrefetchDistance)
        prefetch(Index - PrefetchDistance);
#ifndef NDEBUG
      // With the world stopped every cache is flushed: a queued object
      // without its allocation bit is a stale corpse (missed live
      // object in an earlier cycle).
      if (!CheckAllocBits && !Heap.allocBits().test(Obj)) {
        uint8_t *G = reinterpret_cast<uint8_t *>(Obj);
        uint8_t *PrevAlloc = Heap.allocBits().findPrevSet(G);
        std::fprintf(
            stderr,
            "tracer: corpse %p in final drain (off=%zu hdr=%016llx "
            "mark=%d; prev alloc granule %p (delta=%td) hdr=%016llx "
            "size=%u refs=%u class=%u mark=%d)\n",
            static_cast<void *>(Obj),
            static_cast<size_t>(G - Heap.base()),
            static_cast<unsigned long long>(
                *reinterpret_cast<uint64_t *>(G)),
            Heap.markBits().test(G), static_cast<void *>(PrevAlloc),
            PrevAlloc ? G - PrevAlloc : 0,
            PrevAlloc ? static_cast<unsigned long long>(
                            *reinterpret_cast<uint64_t *>(PrevAlloc))
                      : 0ull,
            PrevAlloc ? reinterpret_cast<Object *>(PrevAlloc)->sizeBytes()
                      : 0,
            PrevAlloc ? reinterpret_cast<Object *>(PrevAlloc)->numRefs() : 0,
            PrevAlloc ? reinterpret_cast<Object *>(PrevAlloc)->classId() : 0,
            PrevAlloc ? Heap.markBits().test(PrevAlloc) : 0);
        assert(false && "unallocated object queued during the final drain");
      }
#endif
      if (CheckAllocBits && !Safe[Index]) {
        // Allocation bit not visible: the object's initializing stores
        // may not be either. Defer it (Section 5.2 step 4).
        ++DeferredHere;
        if (!Ctx.pushDeferred(Obj)) {
          // No empty packet for the deferred side: fall back to the
          // overflow treatment; the object is already marked, so a dirty
          // card gets it retraced once its bits are published.
          Heap.cards().dirty(Obj);
          uint64_t Total = Overflows.fetch_add(1, std::memory_order_relaxed) + 1;
          // Size 0: the object's header may not be visible yet (that is
          // why it was deferred), so it must not be read here.
          CGC_OBS_EVENT_P(Obs, Overflow, 0, Total);
        }
        continue;
      }
      Done += scanObject(Ctx, Obj);
    }
  }
  // Every exit of the loop above (budget spent, stop request, no input,
  // injected fault) ends here: publish this call's work once, not once
  // per object (DESIGN.md §4 hot-path rule).
  TracedBytes.fetch_add(Done, std::memory_order_relaxed);
  if (DeferredHere)
    Deferred.fetch_add(DeferredHere, std::memory_order_relaxed);
  return Done;
}
