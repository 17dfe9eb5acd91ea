//===- cooperation_stall_test.cpp - timed-handshake stall defense --------------//
///
/// \file
/// The cooperation protocols (safepoint parks, ragged fence handshakes)
/// lean entirely on mutator cooperation; DESIGN.md §13 arms them with
/// grace-period deadlines, laggard attribution, and a strike escalation
/// that aborts a wedged concurrent cycle to the STW finish. This suite
/// drives every piece with deliberately non-cooperative mutators:
///
///  * registry-level: deterministic timeout attribution (who stalled,
///    in which protocol, how stale), the TransitionSeq seqlock rule for
///    provably-quiescent threads, detach-mid-handshake, ManualClock
///    determinism, and injected per-thread poll-skip bursts;
///  * heap-level: the full containment story — a mutator refuses to
///    poll, fence handshakes time out attributing it, the watchdog
///    aborts the cycle to an STW finish without deadlocking, and the
///    next cycle completes normally (the ISSUE acceptance scenario);
///  * attach/detach churn against live concurrent cycles.
///
//===----------------------------------------------------------------------===//

#include "TestSeed.h"
#include "gc/ConcurrentCollector.h"
#include "heap/BitVector8.h"
#include "mutator/ThreadRegistry.h"
#include "runtime/GcHeap.h"
#include "support/FaultInjector.h"
#include "support/Random.h"
#include "support/Timing.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

using namespace cgc;

namespace {

constexpr uint64_t MsNs = 1000ull * 1000;

/// Real-time ceiling for "wait until X happens" loops: generous enough
/// for a loaded single-core CI host, far below the ctest timeout.
constexpr uint64_t WaitCeilingNs = 60ull * 1000 * MsNs;

class StallRegistryTest : public ::testing::Test {
protected:
  static constexpr size_t HeapBytes = 1u << 20;
  StallRegistryTest() : Pool(8) {
    Mem.reset(static_cast<uint8_t *>(std::aligned_alloc(4096, HeapBytes)));
    Bits = std::make_unique<BitVector8>(Mem.get(), HeapBytes);
  }
  struct FreeDeleter {
    void operator()(uint8_t *P) const { std::free(P); }
  };
  std::unique_ptr<uint8_t, FreeDeleter> Mem;
  std::unique_ptr<BitVector8> Bits;
  PacketPool Pool;
  ThreadRegistry Registry;
};

/// Counts recent stall reports naming \p DebugId in \p Protocol.
size_t stallsFor(const ThreadRegistry &Registry, uint32_t DebugId,
                 StallProtocol Protocol) {
  size_t N = 0;
  for (const StallReport &R : Registry.recentStalls())
    if (R.DebugId == DebugId && R.Protocol == Protocol)
      ++N;
  return N;
}

TEST_F(StallRegistryTest, FenceTimeoutAttributesExactLaggard) {
  Registry.configureStallDefense(/*StwGraceNanos=*/0,
                                 /*FenceGraceNanos=*/50 * MsNs, nullptr,
                                 nullptr);
  MutatorContext Good(Pool);
  MutatorContext Laggard(Pool);
  Registry.attach(&Good);
  Registry.attach(&Laggard);

  std::atomic<bool> Finish{false};
  // The cooperative thread polls tightly; the laggard spins without ever
  // reaching a cooperation point (yielding, like a thread wedged in a
  // syscall — non-cooperative, not CPU-hogging).
  std::thread GoodThread([&] {
    while (!Finish.load(std::memory_order_acquire))
      Registry.poll(Good, *Bits);
  });
  std::thread LaggardThread([&] {
    while (!Finish.load(std::memory_order_acquire))
      std::this_thread::yield();
  });

  EXPECT_EQ(Registry.requestFenceHandshake(nullptr, *Bits),
            CooperationResult::Timeout);
  EXPECT_EQ(Registry.fenceTimeouts(), 1u);
  EXPECT_GE(Registry.stallReportCount(), 1u);

  // Attribution names exactly the laggard, never the cooperative thread.
  EXPECT_GE(stallsFor(Registry, Laggard.debugId(),
                      StallProtocol::FenceHandshake),
            1u);
  EXPECT_EQ(stallsFor(Registry, Good.debugId(),
                      StallProtocol::FenceHandshake),
            0u);
  for (const StallReport &R : Registry.recentStalls())
    if (R.DebugId == Laggard.debugId()) {
      EXPECT_EQ(R.State, ExecState::Running);
      EXPECT_GE(R.AckLagEpochs, 1u);
    }

  Finish.store(true, std::memory_order_release);
  GoodThread.join();
  LaggardThread.join();
  Registry.detach(&Good);
  Registry.detach(&Laggard);
}

TEST_F(StallRegistryTest, ManualClockMakesTimeoutsDeterministic) {
  ManualClock Clk(/*StartNanos=*/1);
  Registry.configureStallDefense(0, /*FenceGraceNanos=*/1 * MsNs, nullptr,
                                 nullptr);
  MutatorContext Laggard(Pool); // Running; nobody ever polls it.
  Registry.attach(&Laggard);

  std::atomic<bool> Done{false};
  CooperationResult Result = CooperationResult::Ok;
  std::thread Requester([&] {
    Result = Registry.requestFenceHandshake(nullptr, *Bits);
    Done.store(true, std::memory_order_release);
  });

  // Plenty of real time passes, but the fake clock is frozen: the grace
  // deadline must not fire.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(Done.load(std::memory_order_acquire))
      << "grace deadline fired under a frozen clock";

  // One tick past the grace: the timeout is immediate and exact.
  Clk.advanceNanos(2 * MsNs);
  Requester.join();
  EXPECT_TRUE(Done.load(std::memory_order_acquire));
  EXPECT_EQ(Result, CooperationResult::Timeout);

  // Fully deterministic report: attach stamped LastPollNanos at t=1 and
  // the reporter read the clock at t=1+2ms.
  std::vector<StallReport> Stalls = Registry.recentStalls();
  ASSERT_EQ(Stalls.size(), 1u);
  EXPECT_EQ(Stalls[0].DebugId, Laggard.debugId());
  EXPECT_EQ(Stalls[0].TimeNs, 1 + 2 * MsNs);
  EXPECT_EQ(Stalls[0].PollAgeNanos, 2 * MsNs);
  EXPECT_EQ(Stalls[0].Protocol, StallProtocol::FenceHandshake);

  Registry.detach(&Laggard);
}

TEST_F(StallRegistryTest, MidTransitionThreadIsNeverQuiescent) {
  Registry.configureStallDefense(0, /*FenceGraceNanos=*/10 * MsNs, nullptr,
                                 nullptr);
  MutatorContext Idler(Pool);
  Registry.attach(&Idler);
  Registry.enterIdle(Idler);

  // Stable idle (even seqlock): provably quiescent, handshake is
  // immediate.
  EXPECT_EQ(Registry.requestFenceHandshake(nullptr, *Bits),
            CooperationResult::Ok);
  EXPECT_EQ(Registry.fenceTimeouts(), 0u);

  // Simulate a thread caught mid-transition: odd TransitionSeq. The
  // state still reads Idle, but the fence ordering is not proven — the
  // handshake must refuse to treat it as quiescent and time out.
  Idler.TransitionSeq.fetch_add(1, std::memory_order_acq_rel);
  EXPECT_EQ(Registry.requestFenceHandshake(nullptr, *Bits),
            CooperationResult::Timeout);
  EXPECT_EQ(Registry.fenceTimeouts(), 1u);
  EXPECT_GE(stallsFor(Registry, Idler.debugId(),
                      StallProtocol::FenceHandshake),
            1u);

  // Transition completes (even again): quiescent once more.
  Idler.TransitionSeq.fetch_add(1, std::memory_order_release);
  EXPECT_EQ(Registry.requestFenceHandshake(nullptr, *Bits),
            CooperationResult::Ok);

  Registry.exitIdle(Idler, *Bits);
  Registry.detach(&Idler);
}

TEST_F(StallRegistryTest, StopTheWorldWarnsButStillCompletes) {
  Registry.configureStallDefense(/*StwGraceNanos=*/20 * MsNs, 0, nullptr,
                                 nullptr);
  MutatorContext Worker(Pool);
  Registry.attach(&Worker);

  std::atomic<bool> Cooperate{false};
  std::atomic<bool> Finish{false};
  std::thread T([&] {
    while (!Finish.load(std::memory_order_acquire)) {
      if (Cooperate.load(std::memory_order_acquire))
        Registry.poll(Worker, *Bits);
      else
        std::this_thread::yield();
    }
  });

  std::atomic<bool> Stopped{false};
  std::thread Initiator([&] {
    Registry.stopTheWorld(nullptr, *Bits);
    Stopped.store(true, std::memory_order_release);
  });

  // The wait never gives up, but past each grace period it attributes
  // the stall.
  Stopwatch Waited;
  while (Registry.stwStallWarnings() < 2 &&
         Waited.elapsedNanos() < WaitCeilingNs)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GE(Registry.stwStallWarnings(), 2u);
  EXPECT_FALSE(Stopped.load(std::memory_order_acquire));
  EXPECT_GE(stallsFor(Registry, Worker.debugId(),
                      StallProtocol::StopTheWorld),
            1u);
  for (const StallReport &R : Registry.recentStalls())
    if (R.Protocol == StallProtocol::StopTheWorld) {
      EXPECT_EQ(R.DebugId, Worker.debugId());
      EXPECT_GT(R.PollAgeNanos, 0u);
      EXPECT_EQ(R.AckLagEpochs, 0u);
    }

  // The thread comes back to its polls: the stop completes normally.
  Cooperate.store(true, std::memory_order_release);
  Initiator.join();
  EXPECT_TRUE(Stopped.load(std::memory_order_acquire));
  EXPECT_EQ(Worker.state(), ExecState::AtSafepoint);
  Registry.resumeTheWorld();

  Finish.store(true, std::memory_order_release);
  T.join();
  Registry.detach(&Worker);
}

TEST_F(StallRegistryTest, DetachingLaggardUnblocksPendingHandshake) {
  // Unbounded grace (legacy behavior): the handshake blocks on the
  // laggard. Detaching it mid-handshake must complete the wait — the
  // regression this guards had the requester scan a stale thread list.
  MutatorContext Laggard(Pool);
  Registry.attach(&Laggard);

  std::atomic<bool> Done{false};
  std::thread Requester([&] {
    EXPECT_EQ(Registry.requestFenceHandshake(nullptr, *Bits),
              CooperationResult::Ok);
    Done.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(Done.load(std::memory_order_acquire))
      << "handshake completed with a non-cooperating thread attached";

  Registry.detach(&Laggard);
  Requester.join();
  EXPECT_TRUE(Done.load(std::memory_order_acquire));
}

TEST_F(StallRegistryTest, StallReportsOutliveTheLaggard) {
  Registry.configureStallDefense(0, /*FenceGraceNanos=*/10 * MsNs, nullptr,
                                 nullptr);
  uint32_t LaggardId = 0;
  {
    MutatorContext Laggard(Pool);
    Registry.attach(&Laggard);
    LaggardId = Laggard.debugId();
    EXPECT_EQ(Registry.requestFenceHandshake(nullptr, *Bits),
              CooperationResult::Timeout);
    Registry.detach(&Laggard);
  } // Context destroyed: reports carry copied data, not pointers.
  EXPECT_GE(stallsFor(Registry, LaggardId, StallProtocol::FenceHandshake),
            1u);
}

TEST_F(StallRegistryTest, InjectedPollSkipBurstDelaysAcknowledgement) {
  FaultPlan Plan;
  Plan.failEveryNth(FaultSite::MutatorPollSkip, 10)
      .burst(FaultSite::MutatorPollSkip, 5);
  FaultInjector Inject(Plan);
  Registry.configureStallDefense(0, 0, &Inject, nullptr);

  MutatorContext Worker(Pool);
  Registry.attach(&Worker);

  // Visits 1-9: cooperative.
  for (int I = 0; I < 9; ++I)
    Registry.poll(Worker, *Bits);
  EXPECT_EQ(Worker.SkipPollsRemaining, 0u);

  uint64_t AckBefore = Worker.HandshakeAck.load(std::memory_order_acquire);
  std::atomic<bool> Done{false};
  std::thread Requester([&] {
    Registry.requestFenceHandshake(nullptr, *Bits);
    Done.store(true, std::memory_order_release);
  });
  // Wait until the epoch is visibly bumped so the polls below would ack
  // if they were cooperative.
  Stopwatch Waited;
  while (Registry.handshakeEpoch() == AckBefore &&
         Waited.elapsedNanos() < WaitCeilingNs)
    std::this_thread::yield();

  // Visit 10 draws the skip and opens a 5-poll burst: this poll and the
  // five after it are non-cooperative.
  for (int I = 0; I < 6; ++I)
    Registry.poll(Worker, *Bits);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(Worker.HandshakeAck.load(std::memory_order_acquire), AckBefore)
      << "a skipped poll acknowledged the handshake";
  EXPECT_FALSE(Done.load(std::memory_order_acquire));
  EXPECT_EQ(Inject.injected(FaultSite::MutatorPollSkip), 1u);

  // Burst over: the next poll cooperates and the handshake completes.
  Registry.poll(Worker, *Bits);
  Requester.join();
  EXPECT_EQ(Worker.HandshakeAck.load(std::memory_order_acquire),
            AckBefore + 1);

  Registry.detach(&Worker);
}

/// --- Heap-level containment ---------------------------------------------

GcOptions stallOptions() {
  GcOptions Opts;
  Opts.Kind = CollectorKind::MostlyConcurrent;
  Opts.HeapBytes = 8u << 20;
  Opts.BackgroundThreads = 1;
  Opts.GcWorkerThreads = 2;
  Opts.NumWorkPackets = 64;
  return Opts;
}

TEST(CooperationStallTest, NonCooperativeMutatorIsContained) {
  // The ISSUE acceptance scenario: a mutator wedges (refuses to poll)
  // during a concurrent cycle. The collector must (1) attribute every
  // fence-handshake timeout to exactly that thread, (2) strike-escalate
  // and abort the cycle to an STW finish without deadlocking, and
  // (3) complete a subsequent cycle normally once the thread recovers.
  GcOptions Opts = stallOptions();
  Opts.FenceGraceMicros = 100000; // 100 ms: laggard detection
  Opts.StwGraceMicros = 100000;
  Opts.HandshakeStrikeLimit = 2;
  // An empty registration (no dirty cards yet) consumes a pass without
  // needing the fence the laggard refuses. An effectively unlimited
  // budget keeps the cleaner registering until the dirty cards planted
  // below are seen, whatever the scheduler does to the mutators.
  Opts.ConcurrentCleaningPasses = 1u << 20;
  Opts.WatchdogIntervalMicros = 1000;
  Opts.WatchdogStallTicks = 1u << 30; // Isolate the strike trigger.
  Opts.WatchdogLagTicks = 1u << 30;
  auto Heap = GcHeap::create(Opts);
  auto &Concurrent = static_cast<ConcurrentCollector &>(Heap->collector());

  // The observer thread (this one) stays unattached while the chaos
  // runs: an attached waiter could park inside the strike-abort's
  // pending STW and never reach the laggard's release line.
  std::atomic<bool> LaggardWedged{false};
  std::atomic<bool> LaggardRelease{false};
  std::atomic<bool> CoopReady{false};
  std::atomic<bool> Finish{false};
  std::atomic<uint32_t> LaggardId{0};
  std::atomic<uint32_t> CooperativeId{0};

  std::thread Laggard([&] {
    MutatorContext &Ctx = Heap->attachThread();
    LaggardId.store(Ctx.debugId(), std::memory_order_release);
    Ctx.reserveRoots(8);
    for (size_t I = 0; I < 8; ++I)
      if (Object *Obj = Heap->allocate(Ctx, 256, 1))
        Ctx.setRoot(I, Obj);
    LaggardWedged.store(true, std::memory_order_release);
    // Refuse every cooperation point (yield: wedged, not CPU-hogging).
    while (!LaggardRelease.load(std::memory_order_acquire))
      std::this_thread::yield();
    // Recovered: cooperate until the test ends.
    while (!Finish.load(std::memory_order_acquire)) {
      Heap->safepointPoll(Ctx);
      std::this_thread::yield();
    }
    Heap->detachThread(Ctx);
  });

  std::thread Cooperative([&] {
    MutatorContext &Ctx = Heap->attachThread();
    CooperativeId.store(Ctx.debugId(), std::memory_order_release);
    constexpr size_t WindowSize = 32;
    Ctx.reserveRoots(WindowSize);
    std::vector<Object *> Window(WindowSize, nullptr);
    for (size_t I = 0; I < WindowSize; ++I) {
      Object *Obj = Heap->allocate(Ctx, 512, 2);
      if (!Obj)
        continue;
      Window[I] = Obj;
      Ctx.setRoot(I, Obj);
      // Cross-links dirty cards BEFORE the cycle starts: the cycle's
      // first card-registration pass must find work, because only a
      // pass with registered cards needs the fence the laggard refuses.
      if (I && Window[I - 1])
        Heap->writeRef(Ctx, Window[I - 1], 0, Obj);
    }
    CoopReady.store(true, std::memory_order_release);
    // Keep allocating and cross-linking through the chaos (more dirty
    // cards, plus the polls that park inside the forced STW finish).
    // Gently: exhausting the 8 MB heap would race the strike abort
    // with the allocation-failure ladder.
    size_t Slot = 0;
    while (!Finish.load(std::memory_order_acquire)) {
      Heap->safepointPoll(Ctx);
      if (Object *Obj = Heap->allocate(Ctx, 128, 2)) {
        if (Object *Old = Window[Slot])
          Heap->writeRef(Ctx, Old, 1, Obj);
        Window[Slot] = Obj;
        Ctx.setRoot(Slot, Obj);
        Slot = (Slot + 1) % WindowSize;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    Heap->detachThread(Ctx);
  });

  while (!LaggardWedged.load(std::memory_order_acquire) ||
         !CoopReady.load(std::memory_order_acquire))
    std::this_thread::yield();

  uint64_t CyclesBefore = Heap->completedCycles();
  Concurrent.startConcurrentCycle(nullptr);
  ASSERT_EQ(Heap->core().phase(), GcPhase::Concurrent);

  // The cycle cannot finish concurrently: card cleaning needs the fence
  // the laggard refuses, so handshakes strike out and the watchdog
  // aborts to the STW finish. The wait loop re-dirties a card each
  // iteration (registration clears indicators) so a registration pass
  // always has work, independent of the cooperative thread's schedule.
  Stopwatch Waited;
  while (Heap->stats().handshakeAborts() == 0 &&
         Waited.elapsedNanos() < WaitCeilingNs) {
    Heap->core().Heap.cards().dirty(Heap->core().Heap.base());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(Heap->stats().handshakeAborts(), 1u);
  EXPECT_GE(Heap->core().Registry.fenceTimeouts(),
            Opts.HandshakeStrikeLimit);
  EXPECT_GE(Heap->stats().escalationCount(EscalationRung::StwFinish), 1u);

  // Attribution: fence stall reports name the laggard, never the
  // cooperative mutator.
  uint32_t Wedged = LaggardId.load(std::memory_order_acquire);
  ASSERT_NE(Wedged, 0u);
  EXPECT_GE(stallsFor(Heap->core().Registry, Wedged,
                      StallProtocol::FenceHandshake),
            1u);
  EXPECT_EQ(stallsFor(Heap->core().Registry,
                      CooperativeId.load(std::memory_order_acquire),
                      StallProtocol::FenceHandshake),
            0u);

  // Release the laggard: the pending STW finish must now complete —
  // no deadlock — and the killed cycle counts as completed.
  LaggardRelease.store(true, std::memory_order_release);
  Waited.restart();
  while (Heap->completedCycles() == CyclesBefore &&
         Waited.elapsedNanos() < WaitCeilingNs)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GT(Heap->completedCycles(), CyclesBefore)
      << "aborted cycle never finished";

  // A subsequent cycle with everyone cooperating completes cleanly.
  uint64_t CyclesAfterChaos = Heap->completedCycles();
  uint64_t AbortsAfterChaos = Heap->stats().handshakeAborts();
  MutatorContext &Ctx = Heap->attachThread();
  Heap->requestGC(&Ctx);
  EXPECT_GT(Heap->completedCycles(), CyclesAfterChaos);
  EXPECT_EQ(Heap->stats().handshakeAborts(), AbortsAfterChaos)
      << "a clean cycle struck out";
  VerifyResult V = Heap->verifyNow(&Ctx);
  EXPECT_TRUE(V.Ok) << V.Error;
  Heap->detachThread(Ctx);

  Finish.store(true, std::memory_order_release);
  Laggard.join();
  Cooperative.join();
}

TEST(CooperationStallTest, AttachDetachChurnDuringConcurrentCycles) {
  uint64_t Seed =
      testSeed(0xa77ac4, "CooperationStallTest.AttachDetachChurn");
  ScopedSeedLog SeedLog(Seed, "CooperationStallTest.AttachDetachChurn");

  GcOptions Opts = stallOptions();
  Opts.FenceGraceMicros = 200000;
  Opts.StwGraceMicros = 200000;
  Opts.FreeListShards = 2; // Attaches alternate their preferred shard.
  // Stretch idle transitions so attach/detach (which pass through
  // enterIdle/exitIdle) overlap in-flight handshakes mid-transition.
  Opts.Faults.Seed = Seed;
  Opts.Faults.perturb(FaultSite::IdleTransitionStall, 2);
  auto Heap = GcHeap::create(Opts);
  auto &Concurrent = static_cast<ConcurrentCollector &>(Heap->collector());

  // A long-lived driver keeps cycles running while short-lived threads
  // churn through attach -> allocate -> detach.
  std::atomic<bool> Finish{false};
  std::thread Driver([&] {
    MutatorContext &Ctx = Heap->attachThread();
    Ctx.reserveRoots(32);
    Random Rng(Seed);
    uint64_t I = 0;
    while (!Finish.load(std::memory_order_acquire)) {
      if (Object *Obj =
              Heap->allocate(Ctx, 64 + Rng.nextBelow(2048), 1))
        Ctx.setRoot(Rng.nextBelow(32), Obj);
      if (++I % 400 == 0)
        Concurrent.startConcurrentCycle(&Ctx);
      if (I % 1000 == 0)
        Heap->requestGC(&Ctx);
    }
    Heap->detachThread(Ctx);
  });

  constexpr int Waves = 12;
  constexpr int ThreadsPerWave = 3;
  for (int W = 0; W < Waves; ++W) {
    std::vector<std::thread> Wave;
    for (int T = 0; T < ThreadsPerWave; ++T)
      Wave.emplace_back([&, W, T] {
        MutatorContext &Ctx = Heap->attachThread();
        Ctx.reserveRoots(8);
        Random Rng(Seed * 31 + uint64_t(W) * 7 + uint64_t(T));
        for (int I = 0; I < 200; ++I) {
          if (Object *Obj =
                  Heap->allocate(Ctx, 32 + Rng.nextBelow(512), 1))
            Ctx.setRoot(Rng.nextBelow(8), Obj);
          if (I % 32 == 0)
            Heap->safepointPoll(Ctx);
        }
        Heap->detachThread(Ctx);
      });
    for (std::thread &T : Wave)
      T.join();
  }

  Finish.store(true, std::memory_order_release);
  Driver.join();

  // Whatever the interleavings did, the registry must be empty, the
  // heap consistent, and a clean cycle must still run.
  EXPECT_EQ(Heap->core().Registry.numThreads(), 0u);
  MutatorContext &Ctx = Heap->attachThread();
  Heap->requestGC(&Ctx);
  VerifyResult V = Heap->verifyNow(&Ctx);
  EXPECT_TRUE(V.Ok) << V.Error;
  Heap->detachThread(Ctx);
}

TEST(CooperationStallTest, HandshakeLatencyLandsInHistograms) {
  // The bench JSON's stw_entry / fence_handshake quantiles come from
  // these PauseMetric histograms; a cycle must populate both.
  GcOptions Opts = stallOptions();
  Opts.Observe = true;
  auto Heap = GcHeap::create(Opts);
  MutatorContext &Ctx = Heap->attachThread();
  Ctx.reserveRoots(16);
  for (size_t I = 0; I < 16; ++I) {
    Object *Obj = Heap->allocate(Ctx, 1024, 1);
    ASSERT_NE(Obj, nullptr);
    Ctx.setRoot(I, Obj);
  }
  static_cast<ConcurrentCollector &>(Heap->collector())
      .startConcurrentCycle(&Ctx);
  Heap->requestGC(&Ctx); // STW finish: stopTheWorld records StwEntry.

  GcObserver &Obs = Heap->core().Obs;
  EXPECT_GE(Obs.metrics().histogram(PauseMetric::StwEntry).count(), 1u);
  // Concurrent cleaning passes run fence handshakes; a full requested
  // finish may or may not have needed one, so drive one explicitly.
  EXPECT_EQ(Heap->core().Registry.requestFenceHandshake(
                &Ctx, Heap->core().Heap.allocBits()),
            CooperationResult::Ok);
  EXPECT_GE(Obs.metrics().histogram(PauseMetric::FenceHandshake).count(),
            1u);
  Heap->detachThread(Ctx);
}

} // namespace
