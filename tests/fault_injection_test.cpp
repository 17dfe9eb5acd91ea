//===- fault_injection_test.cpp - unhappy paths under injection ----------------//
///
/// Exercises the degradation machinery the paper describes but never
/// tests deliberately: packet overflow (Section 4.3), allocation
/// outrunning the tracer, the stop-the-world fallback, and outright heap
/// exhaustion. The FaultInjector makes each path reachable on demand;
/// the chaos soak at the end runs them all together under seeded
/// probabilistic injection.
///
//===----------------------------------------------------------------------===//

#include "TestSeed.h"
#include "gc/ConcurrentCollector.h"
#include "gc/Tracer.h"
#include "mutator/ThreadRegistry.h"
#include "runtime/GcHeap.h"
#include "support/FaultInjector.h"
#include "support/Random.h"
#include "support/Timing.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

using namespace cgc;

namespace {

/// --- FaultInjector unit behavior --------------------------------------

TEST(FaultInjectorTest, EveryNthFiresExactlyOnSchedule) {
  FaultPlan Plan;
  Plan.failEveryNth(FaultSite::TracerStep, 3);
  FaultInjector Inject(Plan);
  std::vector<bool> Decisions;
  for (int I = 0; I < 9; ++I)
    Decisions.push_back(Inject.shouldFail(FaultSite::TracerStep));
  std::vector<bool> Expected = {false, false, true,  false, false,
                                true,  false, false, true};
  EXPECT_EQ(Decisions, Expected);
  EXPECT_EQ(Inject.visits(FaultSite::TracerStep), 9u);
  EXPECT_EQ(Inject.injected(FaultSite::TracerStep), 3u);
  // Other sites are untouched.
  EXPECT_EQ(Inject.visits(FaultSite::AllocCacheRefill), 0u);
}

TEST(FaultInjectorTest, SeededSequenceIsReproducible) {
  FaultPlan Plan;
  Plan.Seed = 0xfeedface;
  Plan.failWithProbability(FaultSite::AllocCacheRefill, 0.3);

  auto draw = [](const FaultPlan &P) {
    FaultInjector Inject(P);
    std::vector<bool> Decisions;
    for (int I = 0; I < 500; ++I)
      Decisions.push_back(Inject.shouldFail(FaultSite::AllocCacheRefill));
    return Decisions;
  };

  std::vector<bool> A = draw(Plan);
  std::vector<bool> B = draw(Plan);
  EXPECT_EQ(A, B) << "same seed must give an identical decision sequence";

  size_t Hits = 0;
  for (bool D : A)
    Hits += D;
  EXPECT_GT(Hits, 100u); // ~150 expected; loose bounds, deterministic seed.
  EXPECT_LT(Hits, 200u);

  Plan.Seed = 0xdecafbad;
  EXPECT_NE(draw(Plan), A) << "different seed must give a different sequence";
}

TEST(FaultInjectorTest, DisarmedInjectorIsFreeOfSideEffects) {
  FaultInjector Inject; // Default: disarmed.
  EXPECT_FALSE(Inject.enabled());
  for (int I = 0; I < 10; ++I) {
    EXPECT_FALSE(Inject.shouldFail(FaultSite::FreeListAllocate));
    Inject.maybePerturb(FaultSite::PacketCas);
  }
  // The cold path must not even count visits.
  EXPECT_EQ(Inject.visits(FaultSite::FreeListAllocate), 0u);
  EXPECT_EQ(Inject.perturbed(FaultSite::PacketCas), 0u);
  EXPECT_EQ(Inject.totalInjected(), 0u);
}

TEST(FaultInjectorTest, ReconfigurePreservesCumulativeCounters) {
  FaultPlan Always;
  Always.failEveryNth(FaultSite::CardCleanBegin, 1);
  FaultInjector Inject(Always);
  EXPECT_TRUE(Inject.shouldFail(FaultSite::CardCleanBegin));
  EXPECT_TRUE(Inject.shouldFail(FaultSite::CardCleanBegin));

  Inject.disarm();
  EXPECT_FALSE(Inject.shouldFail(FaultSite::CardCleanBegin));

  // Re-arming continues the same visit sequence (multi-phase chaos runs
  // keep cumulative totals).
  Inject.reconfigure(Always);
  EXPECT_TRUE(Inject.shouldFail(FaultSite::CardCleanBegin));
  EXPECT_EQ(Inject.injected(FaultSite::CardCleanBegin), 3u);
  EXPECT_EQ(Inject.visits(FaultSite::CardCleanBegin), 3u);
}

/// --- Section 4.3 overflow fallback under injected pool exhaustion ------

TEST(FaultInjectionTest, PacketOverflowFallsBackToMarkAndDirtyCard) {
  FaultPlan Plan;
  Plan.failEveryNth(FaultSite::PacketAcquireOutput, 1);
  Plan.failEveryNth(FaultSite::PacketAcquireEmpty, 1);
  FaultInjector Inject(Plan);

  HeapSpace Heap(2u << 20);
  Heap.freeList().clear();
  PacketPool Pool(8, &Inject);
  ThreadRegistry Registry;
  Tracer Trace(Heap, Pool, Registry);
  TraceContext Ctx(Pool);

  Object *Obj = reinterpret_cast<Object *>(Heap.base());
  Obj->initialize(static_cast<uint32_t>(Object::requiredSize(8, 0)), 0, 0);
  Heap.allocBits().set(Obj);

  Trace.beginCycle();
  Trace.markAndQueue(Ctx, Obj);

  // The object must not be lost: it stays marked and its card is dirty,
  // so a later cleaning pass retraces it (Section 4.3).
  EXPECT_TRUE(Heap.markBits().test(Obj));
  EXPECT_TRUE(Heap.cards().isDirty(Heap.cards().cardIndexFor(Obj)));
  EXPECT_EQ(Trace.overflowCount(), 1u);
  EXPECT_GT(Inject.injected(FaultSite::PacketAcquireOutput) +
                Inject.injected(FaultSite::PacketAcquireEmpty),
            0u);
  Ctx.release();
  EXPECT_TRUE(Pool.verifyAllReturned());
}

/// --- The degradation ladder -------------------------------------------

GcOptions ladderOptions() {
  GcOptions Opts;
  Opts.Kind = CollectorKind::MostlyConcurrent;
  Opts.HeapBytes = 8u << 20;
  Opts.BackgroundThreads = 1;
  Opts.GcWorkerThreads = 2;
  Opts.NumWorkPackets = 64;
  return Opts;
}

TEST(FaultInjectionTest, LadderRungsFireInOrderUnderRefillInjection) {
  GcOptions Opts = ladderOptions();
  Opts.Faults.failEveryNth(FaultSite::AllocCacheRefill, 1);
  auto Heap = GcHeap::create(Opts);
  MutatorContext &Ctx = Heap->attachThread();

  // Every refill attempt is injected to fail, so a single allocation
  // walks the whole ladder and comes back empty-handed — no abort.
  Object *Obj = Heap->allocate(Ctx, 64, 1);
  EXPECT_EQ(Obj, nullptr);

  GcStatsCollector &Stats = Heap->stats();
  EXPECT_EQ(Stats.escalationCount(EscalationRung::RefillRetry), 1u);
  EXPECT_EQ(Stats.escalationCount(EscalationRung::SweepFinish), 1u);
  // No concurrent phase was active, so the STW-finish rung is skipped.
  EXPECT_EQ(Stats.escalationCount(EscalationRung::StwFinish), 0u);
  EXPECT_EQ(Stats.escalationCount(EscalationRung::FullStw), 2u);
  EXPECT_EQ(Stats.escalationCount(EscalationRung::AllocationFailure), 1u);

  // Disarming makes the very next allocation succeed: the failure was
  // injected, not real.
  Heap->core().Inject.disarm();
  Object *Recovered = Heap->allocate(Ctx, 64, 1);
  EXPECT_NE(Recovered, nullptr);
  EXPECT_EQ(Stats.escalationCount(EscalationRung::AllocationFailure), 1u);

  Heap->detachThread(Ctx);
}

TEST(FaultInjectionTest, HappyPathRecordsZeroEscalations) {
  GcOptions Opts = ladderOptions();
  auto Heap = GcHeap::create(Opts);
  MutatorContext &Ctx = Heap->attachThread();
  Ctx.reserveRoots(1);
  for (int I = 0; I < 2000; ++I) {
    Object *Obj = Heap->allocate(Ctx, 64, 1);
    ASSERT_NE(Obj, nullptr);
    Ctx.setRoot(0, Obj);
  }
  GcStatsCollector &Stats = Heap->stats();
  for (unsigned R = 0;
       R < static_cast<unsigned>(EscalationRung::NumRungs); ++R)
    EXPECT_EQ(Stats.escalationCount(static_cast<EscalationRung>(R)), 0u)
        << escalationRungName(static_cast<EscalationRung>(R));
  EXPECT_EQ(Stats.watchdogTrips(), 0u);
  EXPECT_EQ(Heap->core().Inject.totalInjected(), 0u);
  Heap->detachThread(Ctx);
}

/// --- Cycle watchdog ----------------------------------------------------

TEST(FaultInjectionTest, WatchdogFinishesStalledConcurrentCycle) {
  GcOptions Opts = ladderOptions();
  // No background tracers and every tracing increment injected to fail:
  // once a concurrent cycle starts, nobody can make marking progress.
  // Only the watchdog can finish the cycle.
  Opts.BackgroundThreads = 0;
  Opts.WatchdogIntervalMicros = 200;
  Opts.WatchdogStallTicks = 10;
  Opts.WatchdogLagTicks = 1u << 30; // Isolate the stall trigger.
  Opts.Faults.failEveryNth(FaultSite::TracerStep, 1);
  auto Heap = GcHeap::create(Opts);
  MutatorContext &Ctx = Heap->attachThread();

  // Retained ring so the cycle has real marking work outstanding.
  constexpr size_t NumRoots = 64;
  Ctx.reserveRoots(NumRoots);
  for (size_t I = 0; I < NumRoots; ++I) {
    Object *Obj = Heap->allocate(Ctx, 4096, 1);
    ASSERT_NE(Obj, nullptr);
    Ctx.setRoot(I, Obj);
  }

  // Open a cycle explicitly (the pacer's organic kickoff would need the
  // heap driven near-empty, which is shard- and machine-dependent).
  ASSERT_TRUE(static_cast<ConcurrentCollector &>(Heap->collector())
                  .startConcurrentCycle(&Ctx));
  ASSERT_EQ(Heap->core().phase(), GcPhase::Concurrent);

  // Stop allocating; just poll safepoints so the watchdog's STW finish
  // can stop this thread. Progress is frozen, so the stall detector
  // must trip within ~StallTicks * Interval.
  // Clock-routed deadline (support/Timing.h): a test under ManualClock
  // would control this wait too, and the real-clock path is identical.
  Stopwatch Waited;
  while (Heap->stats().watchdogTrips() == 0 &&
         Waited.elapsedNanos() < 30ull * 1000 * 1000 * 1000) {
    Heap->safepointPoll(Ctx);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_GE(Heap->stats().watchdogTrips(), 1u);
  EXPECT_GE(Heap->stats().escalationCount(EscalationRung::StwFinish), 1u);

  Heap->core().Inject.disarm();
  Heap->requestGC(&Ctx);
  VerifyResult V = Heap->verifyNow(&Ctx);
  EXPECT_TRUE(V.Ok) << V.Error;
  Heap->detachThread(Ctx);
}

TEST(FaultInjectionTest, WatchdogKilledCyclesLeaveCompactorConsistent) {
  // Regression for the compactor arm/disarm lifecycle on abnormal cycle
  // endings: every cycle arms an evacuation area (CompactEveryNCycles =
  // 1), the tracer is injected to make no progress, and the watchdog
  // force-finishes each cycle through the STW escalation. A path that
  // ended a cycle without evacuating or disarming would trip
  // armForCycle's not-armed assert on the next round (debug builds) or
  // corrupt the free list (caught by the per-cycle verifier).
  GcOptions Opts = ladderOptions();
  Opts.BackgroundThreads = 0;
  Opts.CompactEveryNCycles = 1;
  Opts.EvacuationAreaBytes = 1u << 20;
  Opts.WatchdogIntervalMicros = 200;
  Opts.WatchdogStallTicks = 10;
  Opts.WatchdogLagTicks = 1u << 30; // Isolate the stall trigger.
  Opts.VerifyEachCycle = true;
  Opts.Faults.failEveryNth(FaultSite::TracerStep, 1);
  auto Heap = GcHeap::create(Opts);
  MutatorContext &Ctx = Heap->attachThread();

  constexpr size_t NumRoots = 64;
  Ctx.reserveRoots(NumRoots);
  for (size_t I = 0; I < NumRoots; ++I) {
    Object *Obj = Heap->allocate(Ctx, 4096, 1);
    ASSERT_NE(Obj, nullptr);
    Ctx.setRoot(I, Obj);
  }

  auto &Concurrent = static_cast<ConcurrentCollector &>(Heap->collector());
  for (int Round = 0; Round < 2; ++Round) {
    uint64_t TripsBefore = Heap->stats().watchdogTrips();
    uint64_t CyclesBefore = Heap->completedCycles();
    // Retry the start until it takes: the previous round's finish bumps
    // the completed count and resumes the world before it releases the
    // collection lock, so the first attempt can find the lock still
    // held. Then keep polling until the killed cycle has fully
    // completed, not just until the trip registers: the STW
    // force-finish lands at a later safepoint.
    bool Started = false;
    Stopwatch Waited;
    while ((!Started || Heap->stats().watchdogTrips() == TripsBefore ||
            Heap->completedCycles() == CyclesBefore) &&
           Waited.elapsedNanos() < 30ull * 1000 * 1000 * 1000) {
      if (!Started)
        Started = Concurrent.startConcurrentCycle(&Ctx);
      Heap->safepointPoll(Ctx);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ASSERT_TRUE(Started) << "no cycle could be started in round " << Round;
    EXPECT_GT(Heap->stats().watchdogTrips(), TripsBefore)
        << "watchdog never tripped in round " << Round;
    EXPECT_GT(Heap->completedCycles(), CyclesBefore)
        << "killed cycle never force-finished in round " << Round;
  }
  EXPECT_GE(Heap->completedCycles(), 2u);

  // A clean cycle after the chaos: arming, evacuation and verification
  // must all still work.
  Heap->core().Inject.disarm();
  Heap->requestGC(&Ctx);
  VerifyResult V = Heap->verifyNow(&Ctx);
  EXPECT_TRUE(V.Ok) << V.Error;
  Heap->detachThread(Ctx);
}

TEST(FaultInjectionTest, StartConcurrentCycleReportsWhetherItStarted) {
  // The explicit kickoff says whether it opened a cycle: false while a
  // cycle is active, and false while another thread holds the
  // collection lock (as a finishing cycle does after it has resumed the
  // world), so callers that need a cycle know to retry.
  GcOptions Opts = ladderOptions();
  Opts.BackgroundThreads = 0;
  Opts.CycleWatchdog = false;
  Opts.Faults.failEveryNth(FaultSite::TracerStep, 1);
  auto Heap = GcHeap::create(Opts);
  MutatorContext &Ctx = Heap->attachThread();
  auto &Concurrent = static_cast<ConcurrentCollector &>(Heap->collector());
  GcCore &Core = Heap->core();

  // Another thread holds the collection lock: no cycle starts.
  std::atomic<bool> Held{false}, Release{false};
  std::thread Holder([&] {
    std::lock_guard<std::mutex> Lock(Core.CollectMutex);
    Held.store(true, std::memory_order_release);
    while (!Release.load(std::memory_order_acquire))
      std::this_thread::yield();
  });
  while (!Held.load(std::memory_order_acquire))
    std::this_thread::yield();
  EXPECT_FALSE(Concurrent.startConcurrentCycle(&Ctx));
  EXPECT_EQ(Core.phase(), GcPhase::Idle);
  Release.store(true, std::memory_order_release);
  Holder.join();

  // Idle and unlocked: the cycle starts.
  ASSERT_TRUE(Concurrent.startConcurrentCycle(&Ctx));
  ASSERT_EQ(Core.phase(), GcPhase::Concurrent);
  const uint64_t Cycle = Core.CycleNumber.load(std::memory_order_relaxed);

  // A cycle is active (tracing is injected to make no progress and the
  // watchdog is off, so it stays active): no second cycle starts.
  EXPECT_FALSE(Concurrent.startConcurrentCycle(&Ctx));
  EXPECT_EQ(Core.phase(), GcPhase::Concurrent);
  EXPECT_EQ(Core.CycleNumber.load(std::memory_order_relaxed), Cycle);

  Core.Inject.disarm();
  Heap->requestGC(&Ctx);
  EXPECT_EQ(Core.phase(), GcPhase::Idle);
  VerifyResult V = Heap->verifyNow(&Ctx);
  EXPECT_TRUE(V.Ok) << V.Error;
  Heap->detachThread(Ctx);
}

/// --- Genuine exhaustion (no injection) ----------------------------------

TEST(FaultInjectionTest, ExhaustionReturnsNullThenRecovers) {
  GcOptions Opts = ladderOptions();
  Opts.HeapBytes = 2u << 20;
  auto Heap = GcHeap::create(Opts);
  MutatorContext &Ctx = Heap->attachThread();

  constexpr size_t MaxRoots = 512;
  Ctx.reserveRoots(MaxRoots);
  size_t Rooted = 0;
  // Retain everything: a real out-of-memory, no injector involved.
  while (Rooted < MaxRoots) {
    Object *Obj = Heap->allocate(Ctx, 16u << 10, 0);
    if (!Obj)
      break;
    Ctx.setRoot(Rooted++, Obj);
  }
  ASSERT_LT(Rooted, MaxRoots) << "heap never filled";
  GcStatsCollector &Stats = Heap->stats();
  EXPECT_GE(Stats.escalationCount(EscalationRung::AllocationFailure), 1u);
  EXPECT_GE(Stats.escalationCount(EscalationRung::FullStw), 1u);

  // Dropping the roots makes the memory reclaimable; the same request
  // succeeds after a collection.
  for (size_t I = 0; I < Rooted; ++I)
    Ctx.setRoot(I, nullptr);
  Heap->requestGC(&Ctx);
  EXPECT_NE(Heap->allocate(Ctx, 16u << 10, 0), nullptr);
  VerifyResult V = Heap->verifyNow(&Ctx);
  EXPECT_TRUE(V.Ok) << V.Error;
  Heap->detachThread(Ctx);
}

/// --- Chaos soak ---------------------------------------------------------

TEST(FaultInjectionTest, ChaosSoak) {
  uint64_t Seed = testSeed(0xc4a05, "FaultInjectionTest.ChaosSoak");
  ScopedSeedLog SeedLog(Seed, "FaultInjectionTest.ChaosSoak");

  // The nightly CI chaos job stretches the soak via the environment; the
  // default stays sized for the normal ctest run.
  int ItersPerThread = 5000;
  if (const char *Env = std::getenv("CGC_CHAOS_ITERS")) {
    long Iters = std::strtol(Env, nullptr, 10);
    if (Iters > 0)
      ItersPerThread = static_cast<int>(Iters);
  }

  // Small heap + many short-lived objects: the soak spends most of its
  // time in GC-triggering territory while faults land in every subsystem.
  GcOptions Opts;
  Opts.Kind = CollectorKind::MostlyConcurrent;
  Opts.HeapBytes = 16u << 20;
  Opts.BackgroundThreads = 2;
  Opts.GcWorkerThreads = 2;
  Opts.NumWorkPackets = 64;
  Opts.Faults.Seed = Seed;
  Opts.Faults.failWithProbability(FaultSite::AllocCacheRefill, 2e-2)
      .failWithProbability(FaultSite::FreeListRefill, 1e-2)
      .failWithProbability(FaultSite::FreeListAllocate, 1e-2)
      .failWithProbability(FaultSite::PacketAcquireInput, 5e-3)
      .failWithProbability(FaultSite::PacketAcquireOutput, 5e-3)
      .failWithProbability(FaultSite::PacketAcquireEmpty, 5e-3)
      .failWithProbability(FaultSite::CardCleanBegin, 1e-2)
      .failWithProbability(FaultSite::CardCleanStep, 1e-2)
      .failWithProbability(FaultSite::TracerStep, 5e-3)
      .failWithProbability(FaultSite::WorkerDispatch, 1e-2)
      // Non-cooperation chaos (DESIGN.md §13): skipped-poll bursts delay
      // handshake acks, idle transitions stretch mid-seqlock, and
      // mutators vanish mid-cycle (consulted test-side below).
      .failWithProbability(FaultSite::MutatorPollSkip, 2e-2)
      .burst(FaultSite::MutatorPollSkip, 32)
      .failWithProbability(FaultSite::MutatorDetach, 1e-2)
      .perturb(FaultSite::IdleTransitionStall, 1)
      .perturb(FaultSite::PacketCas, 1)
      .perturb(FaultSite::AllocCacheFlush, 1);
  auto Heap = GcHeap::create(Opts);
  auto &Concurrent = static_cast<ConcurrentCollector &>(Heap->collector());

  // Phase 1: three mutators churn linked rings under probabilistic
  // injection. Allocation failures are tolerated (counted, never fatal);
  // payload nonces catch corruption.
  constexpr int NumThreads = 3;
  std::atomic<uint64_t> Iterations{0};
  std::atomic<uint64_t> FailedAllocs{0};
  std::atomic<uint64_t> IntegrityFailures{0};

  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      MutatorContext *Ctx = &Heap->attachThread();
      constexpr size_t RingSize = 64;
      Ctx->reserveRoots(RingSize);
      std::vector<Object *> Ring(RingSize, nullptr);
      std::vector<uint64_t> Nonce(RingSize, 0);
      Random Rng(Seed * 41 + static_cast<uint64_t>(T));
      for (int I = 0; I < ItersPerThread; ++I) {
        // Mostly small cache allocations; every 16th goes through the
        // large path so the free list churns and cycles actually fire.
        size_t Payload = I % 16 == 0 ? 8192 + Rng.nextBelow(16384)
                                     : 16 + Rng.nextBelow(512);
        // Force extra concurrent phases: organic kickoff alone leaves
        // most of the run idle, and idle chaos tests nothing.
        if (I % 500 == 250)
          Concurrent.startConcurrentCycle(Ctx);
        // Thread 0 also runs cycles to completion so the completed-cycle
        // assertion below holds on any core count; on a single CPU an
        // open concurrent phase can outlive the whole loop otherwise.
        if (T == 0 && I % 1000 == 750)
          Heap->requestGC(Ctx);
        // MutatorDetach chaos: the thread vanishes mid-cycle and comes
        // back as a fresh context. Its roots die with the old context,
        // so the ring restarts empty (dangling Ring entries would be
        // integrity failures, not chaos).
        if (I % 64 == 0 &&
            Heap->core().Inject.shouldFail(FaultSite::MutatorDetach)) {
          Heap->detachThread(*Ctx);
          std::fill(Ring.begin(), Ring.end(), nullptr);
          std::fill(Nonce.begin(), Nonce.end(), 0);
          Ctx = &Heap->attachThread();
          Ctx->reserveRoots(RingSize);
        }
        Object *Obj = Heap->allocate(*Ctx, Payload, 2);
        if (!Obj) {
          FailedAllocs.fetch_add(1, std::memory_order_relaxed);
          Iterations.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        uint64_t Tag = Rng.next();
        std::memcpy(Obj->payload(), &Tag, sizeof(Tag));
        size_t Slot = Rng.nextBelow(RingSize);
        if (Object *Old = Ring[Slot]) {
          // Check the evicted object's nonce before dropping it.
          uint64_t Seen;
          std::memcpy(&Seen, Old->payload(), sizeof(Seen));
          if (Seen != Nonce[Slot])
            IntegrityFailures.fetch_add(1, std::memory_order_relaxed);
          // Cross-link into a survivor to exercise the write barrier on
          // old objects during concurrent phases.
          Heap->writeRef(*Ctx, Obj, 0, Old);
        }
        Ring[Slot] = Obj;
        Nonce[Slot] = Tag;
        Ctx->setRoot(Slot, Obj);
        if (I % 256 == 0)
          Heap->safepointPoll(*Ctx);
        Iterations.fetch_add(1, std::memory_order_relaxed);
      }
      Heap->detachThread(*Ctx);
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_GE(Iterations.load(), static_cast<uint64_t>(NumThreads) *
                                   static_cast<uint64_t>(ItersPerThread));
  EXPECT_EQ(IntegrityFailures.load(), 0u);
  EXPECT_GT(Heap->core().Inject.totalInjected(), 0u);
  EXPECT_GE(Heap->completedCycles(), 3u);

  // Phase 2: stall the tracer so a concurrent cycle stays open, then
  // walk in with every allocation path injected — the ladder must pass
  // through the STW-finish rung (the phase IS concurrent) on its way to
  // a clean failure.
  MutatorContext &Ctx = Heap->attachThread();
  FaultPlan Stall;
  Stall.Seed = Seed;
  Stall.failEveryNth(FaultSite::TracerStep, 1);
  Heap->core().Inject.reconfigure(Stall);

  constexpr size_t NumRoots = 64;
  Ctx.reserveRoots(NumRoots);
  size_t Rooted = 0;
  for (size_t I = 0; I < NumRoots; ++I) {
    Object *Obj = Heap->allocate(Ctx, 1024, 1);
    if (!Obj)
      break; // Post-chaos heap may be tight; the ring just needs members.
    Ctx.setRoot(Rooted++, Obj);
  }
  ASSERT_GT(Rooted, 0u);
  bool Started = false;
  for (int I = 0; I < 1000 && !Started; ++I) {
    Concurrent.startConcurrentCycle(&Ctx);
    Started = Heap->core().phase() == GcPhase::Concurrent;
    Heap->safepointPoll(Ctx);
  }
  ASSERT_TRUE(Started) << "never reached a concurrent phase";

  FaultPlan Exhaust = Stall;
  Exhaust.failEveryNth(FaultSite::AllocCacheRefill, 1)
      .failEveryNth(FaultSite::FreeListRefill, 1)
      .failEveryNth(FaultSite::FreeListAllocate, 1);
  Heap->core().Inject.reconfigure(Exhaust);
  // A large allocation bypasses the thread cache, so it must consult the
  // (fully injected) free list and walk the whole ladder.
  EXPECT_EQ(Heap->allocate(Ctx, 64u << 10, 0), nullptr);

  // Phase 3: disarm; the heap must be fully functional and consistent,
  // and by now every rung of the ladder has been observed.
  Heap->core().Inject.disarm();
  EXPECT_NE(Heap->allocate(Ctx, 64, 0), nullptr);

  GcStatsCollector &Stats = Heap->stats();
  for (unsigned R = 0;
       R < static_cast<unsigned>(EscalationRung::NumRungs); ++R)
    EXPECT_GE(Stats.escalationCount(static_cast<EscalationRung>(R)), 1u)
        << "rung never exercised: "
        << escalationRungName(static_cast<EscalationRung>(R));

  for (size_t I = 0; I < NumRoots; ++I)
    Ctx.setRoot(I, nullptr);
  Heap->requestGC(&Ctx);
  VerifyResult V = Heap->verifyNow(&Ctx);
  EXPECT_TRUE(V.Ok) << V.Error;
  Heap->detachThread(Ctx);

  Stats.printEscalations(stderr);
  std::fprintf(stderr,
               "[ cgc ] chaos: %llu iterations, %llu failed allocs, "
               "%llu faults injected, %llu cycles\n",
               static_cast<unsigned long long>(Iterations.load()),
               static_cast<unsigned long long>(FailedAllocs.load()),
               static_cast<unsigned long long>(
                   Heap->core().Inject.totalInjected()),
               static_cast<unsigned long long>(Heap->completedCycles()));
}

} // namespace
