//===- Tracer.h - Parallel marking engine -----------------------*- C++ -*-===//
///
/// \file
/// The marking engine shared by every tracing participant (mutators
/// doing increments, background threads, STW workers).
///
/// markAndQueue sets the mark bit (atomic test-and-set) and queues the
/// object on the participant's output packet; a full pool triggers the
/// overflow treatment of Section 4.3 — the object stays marked and its
/// card is dirtied so card cleaning retraces it later.
///
/// traceWork consumes input packets with the allocation-bit safety
/// protocol of Section 5.2: the entries of an input packet are first
/// classified safe/unsafe by their allocation bits, ONE fence is issued,
/// then safe objects are scanned and unsafe ones are deferred to the
/// Deferred sub-pool (their header stores may not be visible yet).
///
/// Hot-path rule: per object, a participant's only shared writes are the
/// mark bit and its packet push. Work counters are summed locally and
/// published once per traceWork call, so cycleTracedBytes() lags the
/// true total by at most each participant's in-flight call.
///
/// Header misses are hidden by prefetching: a batch's entries are the
/// next objects this participant scans, so traceWork prefetches each one
/// PrefetchDistance pops before it is popped (the top PrefetchDistance
/// entries when the batch starts, then one per pop). Under the 5.2
/// protocol only entries classified safe are prefetched; deferred ones
/// are never touched. A swap exception ends the batch, and with it the
/// prefetching over that packet. Every tracing participant (mutator
/// increments, background quanta, the final drain, card-cleaning
/// retrace) runs this one loop.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_GC_TRACER_H
#define CGC_GC_TRACER_H

#include "gc/Compactor.h"
#include "heap/HeapSpace.h"
#include "support/Annotations.h"
#include "support/FaultInjector.h"
#include "workpackets/TraceContext.h"

#include <atomic>
#include <cstdint>

namespace cgc {

class GcObserver;
class ThreadRegistry;

/// Parallel marker over a HeapSpace using a PacketPool.
class Tracer {
public:
  /// How many pops ahead traceWork prefetches a packet entry's header
  /// (DESIGN.md §4; chosen by measurement on BM_ParallelMark and the
  /// warehouse benchmark).
  static constexpr uint32_t PrefetchDistance = 8;

  /// \p FI (optional) arms the tracer-step injection site: an injected
  /// hit ends a tracing increment early (under-filling its budget), the
  /// way a mutator outrunning the tracer looks to the pacer. \p Obs
  /// (optional) receives overflow events.
  Tracer(HeapSpace &Heap, PacketPool &Pool, ThreadRegistry &Registry,
         Compactor *Compact = nullptr, bool NaiveFenceAccounting = false,
         FaultInjector *FI = nullptr, GcObserver *Obs = nullptr)
      : Heap(Heap), Pool(Pool), Registry(Registry), Compact(Compact),
        NaiveFences(NaiveFenceAccounting), FI(FI), Obs(Obs) {}

  /// Resets the per-cycle counters (call at cycle initialization).
  void beginCycle();

  /// Marks \p Obj if unmarked and queues it for scanning. Safe for any
  /// participant; \p Obj must be a real object start (callers validate
  /// conservative words first).
  void markAndQueue(TraceContext &Ctx, Object *Obj);

  /// Conservative root: treats \p Word as a reference only if it passes
  /// the heap's plausibility filter (range, alignment, allocation bit).
  void markConservativeWord(TraceContext &Ctx, uintptr_t Word) {
    if (Heap.isPlausibleObject(Word))
      markAndQueue(Ctx, reinterpret_cast<Object *>(Word));
  }

  /// Performs up to \p BudgetBytes of tracing using \p Ctx.
  ///
  /// \p CheckAllocBits enables the Section 5.2 deferral protocol (on
  /// during the concurrent phase; off during the final STW drain when
  /// every cache has been flushed).
  /// \p AbortOnStopRequest makes the loop return early when a
  /// stop-the-world has been requested (mutator increments must not
  /// delay the pause; STW workers pass false).
  /// Returns the number of object bytes scanned, which this call adds to
  /// cycleTracedBytes() (and its deferrals to deferredCount()) once, on
  /// return.
  size_t traceWork(TraceContext &Ctx, size_t BudgetBytes, bool CheckAllocBits,
                   bool AbortOnStopRequest);

  /// Total bytes traced since beginCycle (the progress formula's T).
  /// Excludes the work of traceWork calls still in flight.
  uint64_t cycleTracedBytes() const {
    return TracedBytes.load(std::memory_order_relaxed);
  }

  /// Adds externally performed tracing work to the cycle total.
  void addTracedBytes(uint64_t Bytes) {
    TracedBytes.fetch_add(Bytes, std::memory_order_relaxed);
  }

  uint64_t overflowCount() const {
    return Overflows.load(std::memory_order_relaxed);
  }
  uint64_t deferredCount() const {
    return Deferred.load(std::memory_order_relaxed);
  }

private:
  /// Scans one object's reference slots, marking and queueing children.
  /// Returns the object's size in bytes (the unit of tracing work); the
  /// caller accounts it.
  size_t scanObject(TraceContext &Ctx, Object *Obj);

  HeapSpace &Heap;
  PacketPool &Pool;
  ThreadRegistry &Registry;
  Compactor *Compact;
  const bool NaiveFences;
  FaultInjector *FI;
  GcObserver *Obs;

  CGC_ATOMIC_DOC("participant-local sum, published once per traceWork call "
                 "(plus addTracedBytes); relaxed, read by pacer and watchdog")
  std::atomic<uint64_t> TracedBytes{0};
  CGC_ATOMIC_DOC("relaxed add per overflow (rare: pool exhausted); the "
                 "running total labels the Overflow event")
  std::atomic<uint64_t> Overflows{0};
  CGC_ATOMIC_DOC("participant-local count, published once per traceWork "
                 "call; relaxed, read by the watchdog progress probe")
  std::atomic<uint64_t> Deferred{0};
};

} // namespace cgc

#endif // CGC_GC_TRACER_H
