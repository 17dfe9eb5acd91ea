//===- tracer_test.cpp - marking engine units -----------------------------------//

#include "gc/Tracer.h"

#include "gc/HeapVerifier.h"
#include "gc/WorkerPool.h"
#include "mutator/ThreadRegistry.h"
#include "support/Fences.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

using namespace cgc;

namespace {

class TracerTest : public ::testing::Test {
protected:
  TracerTest()
      : Heap(2u << 20), Pool(16), Trace(Heap, Pool, Registry), Ctx(Pool) {
    Heap.freeList().clear();
  }

  /// Plants an allocated object whose allocation bit is published.
  Object *plant(size_t Offset, uint16_t NumRefs) {
    Object *Obj = reinterpret_cast<Object *>(Heap.base() + Offset);
    Obj->initialize(
        static_cast<uint32_t>(Object::requiredSize(8, NumRefs)), NumRefs, 0);
    Heap.allocBits().set(Obj);
    return Obj;
  }

  /// Plants an object WITHOUT publishing its allocation bit (fresh cache
  /// contents, Section 5.2).
  Object *plantUnpublished(size_t Offset, uint16_t NumRefs) {
    Object *Obj = reinterpret_cast<Object *>(Heap.base() + Offset);
    Obj->initialize(
        static_cast<uint32_t>(Object::requiredSize(8, NumRefs)), NumRefs, 0);
    return Obj;
  }

  /// Plants \p Count published leaves 64 B apart from \p Offset and
  /// queues them through \p T; returns their total size.
  size_t queueLeaves(Tracer &T, TraceContext &C, size_t Offset,
                     size_t Count) {
    size_t Bytes = 0;
    for (size_t I = 0; I < Count; ++I) {
      Object *Obj = plant(Offset + I * 64, 0);
      T.markAndQueue(C, Obj);
      Bytes += Obj->sizeBytes();
    }
    return Bytes;
  }

  HeapSpace Heap;
  PacketPool Pool;
  ThreadRegistry Registry;
  Tracer Trace;
  TraceContext Ctx;
};

TEST_F(TracerTest, MarkAndQueueMarksOnce) {
  Object *Obj = plant(0, 0);
  Trace.beginCycle();
  Trace.markAndQueue(Ctx, Obj);
  EXPECT_TRUE(Heap.markBits().test(Obj));
  Trace.markAndQueue(Ctx, Obj); // Second call is a no-op.
  size_t Traced = Trace.traceWork(Ctx, SIZE_MAX, true, false);
  EXPECT_EQ(Traced, Obj->sizeBytes()); // Scanned exactly once.
  Ctx.release();
}

TEST_F(TracerTest, TransitiveMarkingThroughPackets) {
  // A chain of 100 published objects.
  std::vector<Object *> Chain;
  for (int I = 0; I < 100; ++I)
    Chain.push_back(plant(static_cast<size_t>(I) * 64, 1));
  for (int I = 0; I + 1 < 100; ++I)
    Chain[I]->storeRefRaw(0, Chain[I + 1]);
  Trace.beginCycle();
  Trace.markAndQueue(Ctx, Chain[0]);
  size_t Traced = Trace.traceWork(Ctx, SIZE_MAX, true, false);
  Ctx.release();
  EXPECT_EQ(Traced, 100u * Chain[0]->sizeBytes());
  for (Object *Obj : Chain)
    EXPECT_TRUE(Heap.markBits().test(Obj));
  EXPECT_TRUE(Pool.allPacketsEmptyAndIdle());
}

TEST_F(TracerTest, BudgetBoundsTheIncrement) {
  for (int I = 0; I < 50; ++I) {
    Object *Obj = plant(static_cast<size_t>(I) * 64, 0);
    Trace.markAndQueue(Ctx, Obj);
  }
  size_t ObjBytes = Object::requiredSize(8, 0);
  size_t Traced = Trace.traceWork(Ctx, 10 * ObjBytes, true, false);
  EXPECT_GE(Traced, 10 * ObjBytes);
  EXPECT_LT(Traced, 50 * ObjBytes);
  // The budget ran out mid-packet; that return publishes the call's work.
  EXPECT_EQ(Trace.cycleTracedBytes(), Traced);
  // The rest is still queued; a second increment finishes it.
  size_t Rest = Trace.traceWork(Ctx, SIZE_MAX, true, false);
  EXPECT_EQ(Traced + Rest, 50 * ObjBytes);
  EXPECT_EQ(Trace.cycleTracedBytes(), Traced + Rest);
  Ctx.release();
}

TEST_F(TracerTest, ConservativeWordFiltering) {
  Object *Obj = plant(0, 0);
  Trace.beginCycle();
  Trace.markConservativeWord(Ctx, reinterpret_cast<uintptr_t>(Obj));
  // Junk: misaligned, outside, unpublished granule.
  Trace.markConservativeWord(Ctx, reinterpret_cast<uintptr_t>(Obj) + 4);
  Trace.markConservativeWord(Ctx, 0x12345678);
  Trace.markConservativeWord(
      Ctx, reinterpret_cast<uintptr_t>(Heap.base() + 4096));
  size_t Traced = Trace.traceWork(Ctx, SIZE_MAX, true, false);
  Ctx.release();
  EXPECT_EQ(Traced, Obj->sizeBytes());
  EXPECT_FALSE(Heap.markBits().test(Heap.base() + 4096));
}

TEST_F(TracerTest, UnpublishedObjectsAreDeferredNotScanned) {
  // An unpublished object queued for tracing must go to the Deferred
  // pool (its header/slots may not be visible yet on weak hardware).
  Object *Fresh = plantUnpublished(0, 1);
  Trace.beginCycle();
  Trace.markAndQueue(Ctx, Fresh);
  size_t Traced = Trace.traceWork(Ctx, SIZE_MAX, /*CheckAllocBits=*/true,
                                  false);
  EXPECT_EQ(Traced, 0u);
  EXPECT_EQ(Trace.deferredCount(), 1u);
  EXPECT_EQ(Trace.cycleTracedBytes(), 0u); // Deferred objects count 0 bytes.
  Ctx.release();
  EXPECT_TRUE(Pool.hasDeferred());
  // The "cache flush" publishes the bit; redistribution makes the object
  // traceable.
  Heap.allocBits().set(Fresh);
  Pool.redistributeDeferred();
  size_t Traced2 = Trace.traceWork(Ctx, SIZE_MAX, true, false);
  EXPECT_EQ(Traced2, Fresh->sizeBytes());
  Ctx.release();
  EXPECT_TRUE(Pool.allPacketsEmptyAndIdle());
}

TEST_F(TracerTest, TracerBatchFencePerInputPacket) {
  for (int I = 0; I < 10; ++I) {
    Object *Obj = plant(static_cast<size_t>(I) * 64, 0);
    Trace.markAndQueue(Ctx, Obj);
  }
  fenceCounters().reset();
  Trace.traceWork(Ctx, SIZE_MAX, /*CheckAllocBits=*/true, false);
  // One batch fence for the whole packet of 10 objects, not one each.
  EXPECT_LE(fenceCounters().count(FenceSite::TracerBatch), 2u);
  EXPECT_GE(fenceCounters().count(FenceSite::TracerBatch), 1u);
  Ctx.release();
}

TEST_F(TracerTest, OverflowDirtiesTheCard) {
  // A pool of 2 packets: marking more than 2 * Capacity roots overflows.
  PacketPool TinyPool(2);
  Tracer TinyTrace(Heap, TinyPool, Registry);
  TraceContext TinyCtx(TinyPool);
  TinyTrace.beginCycle();
  size_t Planted = 2u * WorkPacket::Capacity + 50;
  for (size_t I = 0; I < Planted; ++I) {
    Object *Obj = plant(I * 64, 0);
    TinyTrace.markAndQueue(TinyCtx, Obj);
  }
  EXPECT_GT(TinyTrace.overflowCount(), 0u);
  // Every overflow victim is marked and sits on a dirty card.
  EXPECT_GE(Heap.cards().countDirty(), 1u);
  size_t Marked =
      Heap.markBits().countInRange(Heap.base(), Heap.base() + Planted * 64);
  EXPECT_EQ(Marked, Planted);
  while (TinyCtx.popWork())
    ;
  TinyCtx.release();
}

TEST_F(TracerTest, CycleCountersReset) {
  Object *Obj = plant(0, 0);
  Trace.beginCycle();
  Trace.markAndQueue(Ctx, Obj);
  Trace.traceWork(Ctx, SIZE_MAX, true, false);
  Ctx.release();
  EXPECT_GT(Trace.cycleTracedBytes(), 0u);
  Trace.beginCycle();
  EXPECT_EQ(Trace.cycleTracedBytes(), 0u);
  EXPECT_EQ(Trace.overflowCount(), 0u);
  EXPECT_EQ(Trace.deferredCount(), 0u);
}

TEST_F(TracerTest, ParallelDrainPublishesExactTotal) {
  // A seeded random graph drained by three participants in small
  // increments: the published total must equal both the sum of what the
  // calls returned and the bytes of every object the drain marked.
  constexpr size_t NumObjs = 6000;
  Random Rng(42);
  std::vector<Object *> Objs;
  for (size_t I = 0; I < NumObjs; ++I)
    Objs.push_back(plant(I * 256, static_cast<uint16_t>(Rng.nextBelow(5))));
  for (Object *Obj : Objs)
    for (unsigned R = 0; R < Obj->numRefs(); ++R)
      if (!Rng.nextBool(0.2))
        Obj->storeRefRaw(R, Objs[Rng.nextBelow(NumObjs)]);
  PacketPool BigPool(64);
  Tracer ParTrace(Heap, BigPool, Registry);
  ParTrace.beginCycle();
  {
    TraceContext Roots(BigPool);
    for (size_t I = 0; I < 40; ++I)
      ParTrace.markAndQueue(Roots, Objs[Rng.nextBelow(NumObjs)]);
    Roots.release();
  }

  WorkerPool Workers(2);
  ASSERT_EQ(Workers.numParticipants(), 3u);
  std::atomic<uint64_t> Returned{0};
  std::atomic<uint64_t> Calls{0};
  Workers.runParallel([&](unsigned) {
    TraceContext PCtx(BigPool);
    for (;;) {
      size_t Step = ParTrace.traceWork(PCtx, 4096, /*CheckAllocBits=*/false,
                                       /*AbortOnStopRequest=*/false);
      Returned.fetch_add(Step, std::memory_order_relaxed);
      Calls.fetch_add(1, std::memory_order_relaxed);
      if (Step != 0)
        continue;
      PCtx.release();
      if (BigPool.allPacketsEmptyAndIdle())
        return;
      std::this_thread::yield();
    }
  });

  uint64_t MarkedBytes = 0;
  for (Object *Obj : Objs)
    if (Heap.markBits().test(Obj))
      MarkedBytes += Obj->sizeBytes();
  EXPECT_GT(Calls.load(), 3u);
  EXPECT_GT(MarkedBytes, 20u * 4096) << "graph too small to need many calls";
  EXPECT_EQ(ParTrace.cycleTracedBytes(), Returned.load());
  EXPECT_EQ(ParTrace.cycleTracedBytes(), MarkedBytes);
  EXPECT_EQ(ParTrace.overflowCount(), 0u);
}

TEST_F(TracerTest, StopRequestPublishesPartialWork) {
  // Each outer tracer step stalls 50 ms; once the second stall begins
  // (one input packet traced), a stop is requested. The call then ends
  // through the stop-request exit with work done and work left over
  // (the stopper has 14 stalls' grace before the packets run out).
  FaultInjector FI(FaultPlan().perturb(FaultSite::TracerStep, 0, 50000));
  PacketPool BigPool(32);
  Tracer StopTrace(Heap, BigPool, Registry, nullptr, false, &FI);
  TraceContext SCtx(BigPool);
  StopTrace.beginCycle();
  size_t Queued = queueLeaves(StopTrace, SCtx, 0,
                              16u * WorkPacket::Capacity);
  std::thread Stopper([&] {
    while (FI.perturbed(FaultSite::TracerStep) < 2)
      std::this_thread::yield();
    Registry.stopTheWorld(nullptr, Heap.allocBits());
  });
  size_t Traced = StopTrace.traceWork(SCtx, SIZE_MAX, /*CheckAllocBits=*/true,
                                      /*AbortOnStopRequest=*/true);
  Stopper.join();
  ASSERT_TRUE(Registry.stopRequested());
  EXPECT_GE(Traced, WorkPacket::Capacity * Object::requiredSize(8, 0));
  EXPECT_LT(Traced, Queued) << "the call must end at the stop request";
  EXPECT_EQ(StopTrace.cycleTracedBytes(), Traced);
  Registry.resumeTheWorld();
  FI.disarm();
  size_t Rest = StopTrace.traceWork(SCtx, SIZE_MAX, true, true);
  EXPECT_EQ(Traced + Rest, Queued);
  EXPECT_EQ(StopTrace.cycleTracedBytes(), Queued);
  SCtx.release();
}

TEST_F(TracerTest, InjectedFaultPublishesPartialWork) {
  // The third tracer step fails: two input packets are traced first.
  FaultInjector FI(FaultPlan().failEveryNth(FaultSite::TracerStep, 3));
  PacketPool BigPool(32);
  Tracer FaultTrace(Heap, BigPool, Registry, nullptr, false, &FI);
  TraceContext FCtx(BigPool);
  FaultTrace.beginCycle();
  size_t Queued = queueLeaves(FaultTrace, FCtx, 0,
                              5u * WorkPacket::Capacity);
  size_t Traced = FaultTrace.traceWork(FCtx, SIZE_MAX, true, false);
  EXPECT_EQ(FI.injected(FaultSite::TracerStep), 1u);
  EXPECT_EQ(Traced, 2u * WorkPacket::Capacity * Object::requiredSize(8, 0));
  EXPECT_EQ(FaultTrace.cycleTracedBytes(), Traced);
  FI.disarm();
  size_t Rest = FaultTrace.traceWork(FCtx, SIZE_MAX, true, false);
  EXPECT_EQ(FaultTrace.cycleTracedBytes(), Queued);
  EXPECT_EQ(Traced + Rest, Queued);
  FCtx.release();
}

TEST_F(TracerTest, SwapExceptionKeepsAccountingExact) {
  // Four packets: one input, one taken by the deferred side for the
  // unpublished object queued last (popped first), two spare for output.
  // Twelve roots with 100 leaf children each: 1200 children cannot fit
  // the two spare packets (986 slots), so once both fill, the pushes take
  // the swap exception (input becomes output) instead of overflowing.
  // Every 7th leaf is unpublished too and must be deferred at zero bytes,
  // before and after the swap.
  PacketPool SmallPool(4);
  Tracer SwapTrace(Heap, SmallPool, Registry);
  TraceContext SwCtx(SmallPool);
  SwapTrace.beginCycle();
  constexpr size_t Roots = 12, Fanout = 100;
  size_t Offset = 0, ScannableBytes = 0, Unpublished = 0;
  std::vector<Object *> RootObjs;
  for (size_t R = 0; R < Roots; ++R) {
    Object *Root = plant(Offset, Fanout);
    Offset += Root->sizeBytes();
    ScannableBytes += Root->sizeBytes();
    for (unsigned C = 0; C < Fanout; ++C) {
      bool Publish = (R * Fanout + C) % 7 != 0;
      Object *Leaf = Publish ? plant(Offset, 0) : plantUnpublished(Offset, 0);
      Offset += 64;
      if (Publish)
        ScannableBytes += Leaf->sizeBytes();
      else
        ++Unpublished;
      Root->storeRefRaw(C, Leaf);
    }
    RootObjs.push_back(Root);
  }
  for (Object *Root : RootObjs)
    SwapTrace.markAndQueue(SwCtx, Root);
  SwapTrace.markAndQueue(SwCtx, plantUnpublished(Offset, 0));
  ++Unpublished;
  size_t Traced = SwapTrace.traceWork(SwCtx, SIZE_MAX, true, false);
  EXPECT_EQ(SwapTrace.overflowCount(), 0u)
      << "the swap exception must absorb the children, not the overflow";
  EXPECT_EQ(SwapTrace.deferredCount(), Unpublished);
  EXPECT_EQ(Traced, ScannableBytes);
  EXPECT_EQ(SwapTrace.cycleTracedBytes(), Traced);
  SwCtx.release();
}

TEST_F(TracerTest, AddTracedBytesFeedsTheFormulaT) {
  Trace.beginCycle();
  Trace.addTracedBytes(4096);
  EXPECT_EQ(Trace.cycleTracedBytes(), 4096u);
}

/// Drains \p P to empty with \p T on \p Participants threads (the
/// caller plus Participants - 1 workers), 64 KB per traceWork call as
/// background quanta trace. Returns the sum of what the calls returned.
uint64_t drainPool(Tracer &T, PacketPool &P, unsigned Participants,
                   bool CheckAllocBits) {
  WorkerPool Workers(Participants - 1);
  std::atomic<uint64_t> Returned{0};
  Workers.runParallel([&](unsigned) {
    TraceContext PCtx(P);
    for (;;) {
      size_t Step = T.traceWork(PCtx, 64u << 10, CheckAllocBits,
                                /*AbortOnStopRequest=*/false);
      Returned.fetch_add(Step, std::memory_order_relaxed);
      if (Step != 0)
        continue;
      PCtx.release();
      // Deferred packets do not circulate until the caller redistributes
      // them, so they count as idle here.
      PacketPoolOccupancy O = P.occupancy();
      if (O.Empty + O.Deferred == P.numPackets())
        return;
      std::this_thread::yield();
    }
  });
  return Returned.load(std::memory_order_relaxed);
}

/// The prefetching drain over input packets of 1, D - 1, D, D + 1 and
/// Capacity entries (D = Tracer::PrefetchDistance), serially and with
/// three participants. Every fifth root and every eleventh interior
/// object is unpublished, so the top entries of a batch mix safe and
/// deferred objects; the deferred ones are traced after the "cache
/// flush" in a final drain without the allocation-bit check.
class PrefetchDrainTest
    : public TracerTest,
      public ::testing::WithParamInterface<std::tuple<uint32_t, unsigned>> {};

TEST_P(PrefetchDrainTest, MarksExactlyTheReachableSet) {
  auto [PacketEntries, Participants] = GetParam();
  constexpr size_t NumPackets = 3, NumInterior = 4000;
  const size_t NumRoots = NumPackets * PacketEntries;
  Random Rng(PacketEntries * 31 + Participants);
  std::vector<Object *> Interior, RootObjs, Unpublished;
  size_t Offset = 0;
  auto place = [&](bool Publish, uint16_t NumRefs) {
    Object *Obj = Publish ? plant(Offset, NumRefs)
                          : plantUnpublished(Offset, NumRefs);
    Offset += 64;
    if (!Publish)
      Unpublished.push_back(Obj);
    return Obj;
  };
  for (size_t I = 0; I < NumInterior; ++I)
    Interior.push_back(
        place(I % 11 != 0, static_cast<uint16_t>(Rng.nextBelow(4))));
  for (Object *Obj : Interior)
    for (unsigned R = 0; R < Obj->numRefs(); ++R)
      Obj->storeRefRaw(R, Interior[Rng.nextBelow(NumInterior)]);
  for (size_t I = 0; I < NumRoots; ++I) {
    Object *Root = place(I % 5 != 0, 2);
    for (unsigned R = 0; R < 2; ++R)
      Root->storeRefRaw(R, Interior[Rng.nextBelow(NumInterior)]);
    RootObjs.push_back(Root);
  }
  ASSERT_LE(Offset, Heap.sizeBytes());

  // The roots, for the verifier.
  MutatorContext Mutator(Pool);
  Registry.attach(&Mutator);
  Mutator.reserveRoots(NumRoots);
  for (size_t I = 0; I < NumRoots; ++I)
    Mutator.setRoot(I, RootObjs[I]);

  // Each input packet holds exactly PacketEntries roots: the first batch
  // any participant classifies has that many entries.
  PacketPool BigPool(64);
  Tracer DrainTrace(Heap, BigPool, Registry);
  DrainTrace.beginCycle();
  for (size_t P = 0; P < NumPackets; ++P) {
    TraceContext RootCtx(BigPool);
    for (size_t I = 0; I < PacketEntries; ++I)
      DrainTrace.markAndQueue(RootCtx, RootObjs[P * PacketEntries + I]);
    RootCtx.release();
  }
  ASSERT_EQ(BigPool.approxInputPackets(), NumPackets);

  uint64_t Returned = drainPool(DrainTrace, BigPool, Participants,
                                /*CheckAllocBits=*/true);
  EXPECT_GT(DrainTrace.deferredCount(), 0u);
  for (Object *Obj : Unpublished)
    Heap.allocBits().set(Obj);
  BigPool.redistributeDeferred();
  Returned += drainPool(DrainTrace, BigPool, Participants,
                        /*CheckAllocBits=*/false);
  EXPECT_TRUE(BigPool.allPacketsEmptyAndIdle());
  EXPECT_EQ(DrainTrace.overflowCount(), 0u);

  HeapVerifier Verifier(Heap);
  VerifyResult R = Verifier.verify(Registry, /*CheckMarks=*/true);
  Registry.detach(&Mutator);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(Heap.markBits().countInRange(Heap.base(), Heap.base() + Offset),
            R.ReachableObjects);
  EXPECT_EQ(DrainTrace.cycleTracedBytes(), R.ReachableBytes);
  EXPECT_EQ(DrainTrace.cycleTracedBytes(), Returned);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndParticipants, PrefetchDrainTest,
    ::testing::Combine(::testing::Values(1u, Tracer::PrefetchDistance - 1,
                                         Tracer::PrefetchDistance,
                                         Tracer::PrefetchDistance + 1,
                                         WorkPacket::Capacity),
                       ::testing::Values(1u, 3u)),
    [](const auto &Info) {
      return "Entries" + std::to_string(std::get<0>(Info.param)) +
             "Participants" + std::to_string(std::get<1>(Info.param));
    });

/// The swap exception mid-batch under the prefetching drain. Each root
/// packet holds 12 roots with 100 leaf children each; the pool has one
/// spare packet per root packet, so the children of a packet's roots
/// (1200) outgrow its spare (493 slots) and the pushes take the swap
/// exception. Roots sit at the bottom of every packet they are in, so a
/// root is scanned with at least Capacity - 12 free slots in its own
/// packet: the swap always has room for its remaining children and
/// nothing overflows.
class PrefetchSwapTest : public TracerTest,
                         public ::testing::WithParamInterface<unsigned> {};

TEST_P(PrefetchSwapTest, SwapMidBatchMarksExactlyTheReachableSet) {
  const unsigned Participants = GetParam();
  constexpr size_t RootsPerPacket = 12, Fanout = 100;
  const size_t NumPackets = Participants;
  std::vector<Object *> RootObjs;
  size_t Offset = 0;
  for (size_t R = 0; R < NumPackets * RootsPerPacket; ++R) {
    Object *Root = plant(Offset, Fanout);
    Offset += Root->sizeBytes();
    for (unsigned C = 0; C < Fanout; ++C) {
      Root->storeRefRaw(C, plant(Offset, 0));
      Offset += 64;
    }
    RootObjs.push_back(Root);
  }
  ASSERT_LE(Offset, Heap.sizeBytes());
  MutatorContext Mutator(Pool);
  Registry.attach(&Mutator);
  Mutator.reserveRoots(RootObjs.size());
  for (size_t I = 0; I < RootObjs.size(); ++I)
    Mutator.setRoot(I, RootObjs[I]);

  PacketPool SwapPool(static_cast<uint32_t>(2 * NumPackets));
  Tracer SwapTrace(Heap, SwapPool, Registry);
  SwapTrace.beginCycle();
  for (size_t P = 0; P < NumPackets; ++P) {
    TraceContext RootCtx(SwapPool);
    for (size_t I = 0; I < RootsPerPacket; ++I)
      SwapTrace.markAndQueue(RootCtx, RootObjs[P * RootsPerPacket + I]);
    RootCtx.release();
  }
  uint64_t Returned = drainPool(SwapTrace, SwapPool, Participants,
                                /*CheckAllocBits=*/true);
  EXPECT_EQ(SwapTrace.overflowCount(), 0u);
  EXPECT_EQ(SwapTrace.deferredCount(), 0u);
  EXPECT_TRUE(SwapPool.allPacketsEmptyAndIdle());

  HeapVerifier Verifier(Heap);
  VerifyResult R = Verifier.verify(Registry, /*CheckMarks=*/true);
  Registry.detach(&Mutator);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReachableObjects, NumPackets * RootsPerPacket * (1 + Fanout));
  EXPECT_EQ(Heap.markBits().countInRange(Heap.base(), Heap.base() + Offset),
            R.ReachableObjects);
  EXPECT_EQ(SwapTrace.cycleTracedBytes(), R.ReachableBytes);
  EXPECT_EQ(SwapTrace.cycleTracedBytes(), Returned);
}

INSTANTIATE_TEST_SUITE_P(Participants, PrefetchSwapTest,
                         ::testing::Values(1u, 3u),
                         [](const auto &Info) {
                           return "Participants" +
                                  std::to_string(Info.param);
                         });

} // namespace
