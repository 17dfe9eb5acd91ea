//===- ConcurrentCollector.cpp - The paper's CGC -------------------------------//

#include "gc/ConcurrentCollector.h"

#include "support/Timing.h"

#include <cassert>
#include <chrono>

using namespace cgc;

ConcurrentCollector::ConcurrentCollector(GcCore &Core)
    : CollectorBase(Core), LastPauseEndNs(nowNanos()) {
  BgThreads.reserve(C.Options.BackgroundThreads);
  for (unsigned I = 0; I < C.Options.BackgroundThreads; ++I)
    BgThreads.emplace_back([this] { backgroundLoop(); });
  if (C.Options.CycleWatchdog)
    Watchdog = std::thread([this] { watchdogLoop(); });
}

ConcurrentCollector::~ConcurrentCollector() { shutdown(); }

void ConcurrentCollector::shutdown() {
  if (ShuttingDown.exchange(true, std::memory_order_acq_rel))
    return;
  for (std::thread &T : BgThreads)
    T.join();
  BgThreads.clear();
  if (Watchdog.joinable())
    Watchdog.join();
}

void ConcurrentCollector::onAllocationSlowPath(MutatorContext &Ctx,
                                               size_t Bytes) {
  C.Pace.noteAllocation(Bytes);
  bool WasIdle = C.phase() == GcPhase::Idle;
  if (WasIdle) {
    AllocPreBytes.fetch_add(Bytes, std::memory_order_relaxed);
    // Kickoff paces off *refillable* free bytes: raw free can stay above
    // the threshold while every shard is too fragmented to refill a
    // cache (DESIGN.md §9 stranding), which would start the cycle only
    // at allocation failure.
    if (C.Pace.shouldKickoff(C.Heap.refillableFreeBytes()))
      tryStartCycle(&Ctx);
  }
  if (C.phase() == GcPhase::Concurrent) {
    if (!WasIdle)
      AllocConcurrentBytes.fetch_add(Bytes, std::memory_order_relaxed);
    mutatorAssist(Ctx, Bytes);
    if (concurrentWorkComplete())
      finishCycle(&Ctx, /*DueToFailure=*/false);
  }
}

void ConcurrentCollector::collectNow(MutatorContext *Ctx) {
  finishCycle(Ctx, /*DueToFailure=*/true);
}

bool ConcurrentCollector::tryStartCycle(MutatorContext *Ctx) {
  // try_lock: if someone is collecting or starting, our trigger is moot.
  if (!C.CollectMutex.try_lock())
    return false;
  if (C.phase() != GcPhase::Idle) {
    C.CollectMutex.unlock();
    return false;
  }

  initializeCycle(C.Options.ConcurrentCleaningPasses);

  Cur = CycleRecord();
  Cur.Concurrent = true;
  Cur.CycleNumber = C.CycleNumber.load(std::memory_order_relaxed);
  uint64_t Now = nowNanos();
  Cur.PreConcurrentMs = nanosToMillis(Now - LastPauseEndNs);
  Cur.BytesAllocatedPreConcurrent =
      AllocPreBytes.exchange(0, std::memory_order_relaxed);
  AllocConcurrentBytes.store(0, std::memory_order_relaxed);
  BgTracedBytes.store(0, std::memory_order_relaxed);
  AuxWorkBytes.store(0, std::memory_order_relaxed);
  TracingFactors.reset();
  SyncOpsAtCycleStart = C.Pool.stats().SyncOps;
  PhaseStartNs = Now;

  // Publishing the phase wakes the background threads and switches every
  // allocation slow path into assist mode.
  C.setPhase(GcPhase::Concurrent);
  CGC_OBS_EVENT(C.Obs, CycleKickoff, Cur.CycleNumber,
                C.Heap.refillableFreeBytes());
  C.CollectMutex.unlock();
  return true;
}

void ConcurrentCollector::scanRootsOf(MutatorContext &Victim,
                                      TraceContext &Ctx) {
  Victim.withRoots([&](const std::vector<uintptr_t> &Roots) {
    for (uintptr_t Word : Roots)
      C.Trace.markConservativeWord(Ctx, Word);
  });
}

void ConcurrentCollector::mutatorAssist(MutatorContext &Ctx, size_t Bytes) {
  uint64_t Cycle = C.CycleNumber.load(std::memory_order_acquire);

  // First allocation of this cycle: scan the thread's own stack
  // (Section 2.1), publishing its own allocation bits first so its own
  // fresh objects pass the conservative filter.
  uint64_t Seen = Ctx.StackScanCycle.load(std::memory_order_relaxed);
  if (Seen < Cycle &&
      Ctx.StackScanCycle.compare_exchange_strong(Seen, Cycle,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_relaxed)) {
    Ctx.cache().flushAllocBits(C.Heap.allocBits());
    scanRootsOf(Ctx, Ctx.trace());
  }

  size_t Budget = C.Pace.workFor(Bytes, C.Trace.cycleTracedBytes(),
                                 C.Heap.freeBytes());
  if (Budget == 0) {
    Ctx.trace().release();
    return;
  }

  CGC_OBS_EVENT(C.Obs, IncTraceBegin, Budget, Cycle);
  uint64_t QuantumStartNs = CGC_OBS_NOW(C.Obs);
  size_t Traced = 0;
  int DryRounds = 4;
  while (Traced < Budget) {
    size_t Step = C.Trace.traceWork(Ctx.trace(), Budget - Traced,
                                    /*CheckAllocBits=*/true,
                                    /*AbortOnStopRequest=*/true);
    Traced += Step;
    if (C.Registry.stopRequested() || C.phase() != GcPhase::Concurrent)
      break;
    if (Traced >= Budget)
      break;
    // Starved for packet work: the auxiliary tasks (stack scans, card
    // cleaning) are collection work too and count against the budget
    // (card scanning is the formula's M component). Only genuinely dry
    // rounds end the increment early, recording an underfilled tracing
    // factor (Section 6.3).
    size_t Aux = auxiliaryWork(&Ctx, Ctx.trace());
    if (Aux > 1) {
      Traced += Aux;
      AuxWorkBytes.fetch_add(Aux, std::memory_order_relaxed);
      C.Trace.addTracedBytes(Aux);
      continue;
    }
    if (Aux == 0 && Step == 0 && --DryRounds < 0)
      break;
  }
  TracingFactors.add(static_cast<double>(Traced) /
                     static_cast<double>(Budget));
  CGC_OBS_EVENT(C.Obs, IncTraceEnd, Traced, Budget);
  if (QuantumStartNs)
    CGC_OBS_PAUSE(C.Obs, IncQuantum, nowNanos() - QuantumStartNs);
  Ctx.trace().release();
}

size_t ConcurrentCollector::scanOneUnscannedStack(TraceContext &Ctx) {
  uint64_t Cycle = C.CycleNumber.load(std::memory_order_acquire);
  size_t Work = 0;
  // The scan runs inside the registry iteration: forEach holds the
  // registrar lock, which detach() must take before the context can be
  // freed, so a concurrently detaching victim stays alive until its
  // scan completes. (Letting a captured pointer escape the iteration
  // was a use-after-free against detach-during-cycle; the scan itself
  // is bounded — one roots vector — and everything it calls is
  // lock-free, so spinning waiters see only a short delay.)
  C.Registry.forEach([&](MutatorContext &M) {
    if (Work)
      return;
    uint64_t Seen = M.StackScanCycle.load(std::memory_order_relaxed);
    if (Seen < Cycle &&
        M.StackScanCycle.compare_exchange_strong(Seen, Cycle,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_relaxed)) {
      // The victim keeps running; unpublished objects it holds are
      // caught by the final rescan ("threads that never allocate").
      scanRootsOf(M, Ctx);
      CGC_OBS_EVENT(C.Obs, StackScan, M.numRoots(), Cycle);
      Work = M.numRoots() * 8 + 1;
    }
  });
  return Work;
}

bool ConcurrentCollector::allStacksScanned() {
  uint64_t Cycle = C.CycleNumber.load(std::memory_order_acquire);
  bool All = true;
  C.Registry.forEach([&](MutatorContext &M) {
    if (M.StackScanCycle.load(std::memory_order_acquire) < Cycle)
      All = false;
  });
  return All;
}

size_t ConcurrentCollector::auxiliaryWork(MutatorContext *Self,
                                          TraceContext &Ctx) {
  // 1. Stacks before cards: stack roots are tracing work, and cleaning
  //    is deferred as long as other work exists (Section 2.1).
  if (size_t Scanned = scanOneUnscannedStack(Ctx))
    return Scanned;
  // 2. Clean registered cards of the active pass. Card scanning is the
  //    progress formula's "M" work, so it is credited at card size.
  if (size_t Cards = C.Cleaner.cleanSome(Ctx, 16))
    return Cards * CardTable::CardBytes;
  // 3. Start the next cleaning pass (registration + fence handshake).
  if (C.Cleaner.tryBeginConcurrentPass(Self))
    return 1;
  // 4. Give deferred objects another chance: force the allocation bits
  //    out with a handshake, then recirculate the Deferred pool. A
  //    handshake timeout means the bits may still be unpublished —
  //    recirculating would retrace objects whose allocation bits the
  //    tracer cannot see yet, so skip; a later visit retries.
  if (C.Pool.hasDeferred() && C.Pool.approxInputPackets() == 0 &&
      !C.Registry.stopRequested()) {
    if (C.Registry.requestFenceHandshake(Self, C.Heap.allocBits()) !=
        CooperationResult::Ok)
      return 0;
    return C.Pool.redistributeDeferred() != 0 ? 1 : 0;
  }
  return 0;
}

bool ConcurrentCollector::concurrentWorkComplete() {
  if (C.phase() != GcPhase::Concurrent)
    return false;
  if (!allStacksScanned())
    return false;
  if (!C.Cleaner.concurrentCleaningComplete())
    return false;
  if (C.Pool.hasDeferred())
    return false;
  return C.Pool.allPacketsEmptyAndIdle();
}

void ConcurrentCollector::pauseBackground(MutatorContext *Self) {
  BgPause.store(true, std::memory_order_seq_cst);
  while (ActiveBg.load(std::memory_order_acquire) != 0) {
    // A background thread may be mid fence-handshake (as a registrar),
    // waiting for every mutator — including this one — to acknowledge.
    if (Self)
      C.Registry.poll(*Self, C.Heap.allocBits());
    std::this_thread::yield();
  }
}

void ConcurrentCollector::finishCycle(MutatorContext *Ctx,
                                      bool DueToFailure) {
  uint64_t Observed = C.CompletedCycles.load(std::memory_order_acquire);
  if (!acquireCollectLock(Ctx, Observed))
    return;
  if (C.CompletedCycles.load(std::memory_order_acquire) != Observed) {
    C.CollectMutex.unlock();
    return;
  }

  if (C.phase() != GcPhase::Concurrent) {
    // Allocation failure with no cycle running: degenerate full STW
    // cycle (the kickoff mispredicted). Background threads must be
    // parked like in the normal finish: the lazy-sweep soak otherwise
    // races the cycle's sweep arming and the compactor's evacuation
    // (its stop-request check is a benign TOCTOU only while no cycle
    // is inside a pause).
    pauseBackground(Ctx);
    runFullStwCycle(Ctx);
    LastPauseEndNs = nowNanos();
    AllocPreBytes.store(0, std::memory_order_relaxed);
    BgPause.store(false, std::memory_order_release);
    C.CollectMutex.unlock();
    return;
  }

  CycleRecord Record = Cur;
  Record.CompletedConcurrently = !DueToFailure;
  Record.ConcurrentPhaseMs = nanosToMillis(nowNanos() - PhaseStartNs);
  if (DueToFailure) {
    // "Cards Left": what the concurrent phase still had to clean.
    Record.CardsLeftAtFailure =
        C.Cleaner.registeredNotCleaned() +
        (C.Cleaner.concurrentCleaningComplete()
             ? 0
             : C.Heap.cards().countDirty());
  } else {
    Record.FreeAtConcurrentCompletion = C.Heap.freeBytes();
  }

  pauseBackground(Ctx);
  CGC_OBS_EVENT(C.Obs, StwBegin, Record.CycleNumber, DueToFailure ? 1 : 0);
  Stopwatch Pause;
  C.Registry.stopTheWorld(Ctx, C.Heap.allocBits());
  Record.StopMs = Pause.elapsedMillis();

  Record.BytesTracedConcurrent = C.Trace.cycleTracedBytes();

  // Publish every cache's allocation bits (quiescent world).
  C.Registry.forEach([this](MutatorContext &M) {
    M.cache().flushAllocBits(C.Heap.allocBits());
  });

  // Rescan all thread stacks (Section 2.2).
  Stopwatch ScanTimer;
  {
    TraceContext RootCtx(C.Pool);
    scanAllStacks(RootCtx);
    RootCtx.release();
  }
  Record.StackRescanMs = ScanTimer.elapsedMillis();

  parallelFinalMark(Record);
  Record.BytesTracedFinal =
      C.Trace.cycleTracedBytes() - Record.BytesTracedConcurrent;

  sweepWorld(Record);
  Record.PauseMs = Pause.elapsedMillis();

  // Fold the cycle's actual values into the predictions (Section 3.1).
  // T included the auxiliary (card-scan) work for pacing; the L sample
  // must not, since M predicts that share separately.
  uint64_t TotalTraced = C.Trace.cycleTracedBytes();
  uint64_t Aux = AuxWorkBytes.load(std::memory_order_relaxed);
  C.Pace.endCycle(TotalTraced > Aux ? TotalTraced - Aux : 0,
                  C.Cleaner.totalRegistered() * CardTable::CardBytes);

  Record.CardsCleanedConcurrent = C.Cleaner.cleanedConcurrent();
  Record.CardsCleanedFinal = C.Cleaner.cleanedFinal();
  Record.DeferredObjects = C.Trace.deferredCount();
  Record.Overflows = C.Trace.overflowCount();
  Record.SyncOps = C.Pool.stats().SyncOps - SyncOpsAtCycleStart;
  Record.BytesTracedByBackground =
      BgTracedBytes.load(std::memory_order_relaxed);
  Record.BytesAllocatedConcurrent =
      AllocConcurrentBytes.load(std::memory_order_relaxed);
  Record.TracingFactorMean = TracingFactors.mean();
  Record.TracingFactorStddev = TracingFactors.stddev();
  Record.TracingIncrements = TracingFactors.count();

  CGC_OBS_EVENT(C.Obs, StwEnd, Record.CycleNumber,
                static_cast<uint64_t>(Record.PauseMs * 1e6));
  recordCycleObservability(Record);
  C.setPhase(GcPhase::Idle);
  C.Stats.addCycle(Record);
  CGC_OBS_EVENT(C.Obs, CycleComplete, Record.CycleNumber,
                Record.CompletedConcurrently ? 1 : 0);
  C.CompletedCycles.fetch_add(1, std::memory_order_release);
  LastPauseEndNs = nowNanos();
  AllocPreBytes.store(0, std::memory_order_relaxed);
  C.Registry.resumeTheWorld();
  BgPause.store(false, std::memory_order_release);
  C.CollectMutex.unlock();
}

void ConcurrentCollector::watchdogLoop() {
  uint64_t LastProgress = 0;
  unsigned StallTicks = 0, LagTicks = 0;
  // Fence-timeout count at the start of the supervised concurrent phase
  // (UINT64_MAX = not currently supervising one).
  uint64_t FenceBase = UINT64_MAX;
  while (!ShuttingDown.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(C.Options.WatchdogIntervalMicros));
    if (C.phase() != GcPhase::Concurrent ||
        BgPause.load(std::memory_order_acquire)) {
      // No concurrent phase to supervise (BgPause means someone is
      // already finishing it): start fresh next time one runs.
      StallTicks = LagTicks = 0;
      FenceBase = UINT64_MAX;
      continue;
    }
    if (concurrentWorkComplete()) {
      // Tracing terminated but nobody noticed yet (every mutator sits in
      // think time, background threads disabled): finish it ourselves.
      finishCycle(nullptr, /*DueToFailure=*/false);
      continue;
    }
    // Strike escalation (DESIGN.md §13): a mutator refusing to fence
    // makes every handshake of this cycle time out; past the strike
    // limit, abort to the STW finish — the safepoint protocol needs no
    // acknowledgements and completes once the thread polls or blocks,
    // where the handshake protocol would wedge the cycle forever.
    if (uint64_t Limit = C.Options.HandshakeStrikeLimit) {
      uint64_t Timeouts = C.Registry.fenceTimeouts();
      if (FenceBase == UINT64_MAX)
        FenceBase = Timeouts;
      if (Timeouts - FenceBase >= Limit) {
        StallTicks = LagTicks = 0;
        LastProgress = 0;
        C.Stats.noteHandshakeAbort();
        C.Stats.noteEscalation(EscalationRung::StwFinish);
        CGC_OBS_EVENT(C.Obs, HandshakeAbort, Timeouts - FenceBase, Limit);
        FenceBase = UINT64_MAX;
        finishCycle(nullptr, /*DueToFailure=*/true);
        continue;
      }
    }
    uint64_t Traced = C.Trace.cycleTracedBytes();
    uint64_t Progress =
        Traced + C.Cleaner.cleanedConcurrent() + C.Trace.deferredCount();
    if (Progress == LastProgress) {
      ++StallTicks;
    } else {
      StallTicks = 0;
      LastProgress = Progress;
    }
    double K = C.Pace.currentRate(Traced, C.Heap.freeBytes());
    // Lag detection watches refillable free bytes for the same reason
    // the kickoff does: stranded fragmented shards count as pressure.
    bool Behind = K >= C.Options.kmax() - 1e-9 &&
                  C.Heap.refillableFreeBytes() <
                      C.Pace.kickoffThresholdBytes() / 4;
    LagTicks = Behind ? LagTicks + 1 : 0;
    if (StallTicks >= C.Options.WatchdogStallTicks ||
        LagTicks >= C.Options.WatchdogLagTicks) {
      StallTicks = LagTicks = 0;
      LastProgress = 0;
      FenceBase = UINT64_MAX;
      C.Stats.noteWatchdogTrip();
      C.Stats.noteEscalation(EscalationRung::StwFinish);
      finishCycle(nullptr, /*DueToFailure=*/true);
    }
  }
}

void ConcurrentCollector::backgroundLoop() {
  while (!ShuttingDown.load(std::memory_order_acquire)) {
    if (BgPause.load(std::memory_order_acquire) ||
        C.phase() != GcPhase::Concurrent) {
      // Section 7: lazy sweeping is spread between mutators and idle
      // low-priority background threads. Soak up pending sweep work
      // while no concurrent phase is running.
      if (!BgPause.load(std::memory_order_acquire) &&
          C.Sweep.lazySweepPending() && !C.Registry.stopRequested()) {
        ActiveBg.fetch_add(1, std::memory_order_acquire);
        if (!BgPause.load(std::memory_order_acquire) &&
            !C.Registry.stopRequested())
          C.Sweep.sweepUntilFree(256u << 10);
        ActiveBg.fetch_sub(1, std::memory_order_release);
        continue;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    ActiveBg.fetch_add(1, std::memory_order_acquire);
    if (BgPause.load(std::memory_order_acquire) ||
        C.phase() != GcPhase::Concurrent) {
      ActiveBg.fetch_sub(1, std::memory_order_release);
      continue;
    }

    size_t Traced = 0;
    size_t Aux = 0;
    {
      TraceContext Ctx(C.Pool);
      Traced = C.Trace.traceWork(Ctx, C.Options.BackgroundQuantumBytes,
                                 /*CheckAllocBits=*/true,
                                 /*AbortOnStopRequest=*/true);
      if (Traced == 0 && !C.Registry.stopRequested() &&
          !BgPause.load(std::memory_order_acquire))
        Aux = auxiliaryWork(nullptr, Ctx);
      Ctx.release();
    }
    ActiveBg.fetch_sub(1, std::memory_order_release);

    if (Aux > 1) {
      AuxWorkBytes.fetch_add(Aux, std::memory_order_relaxed);
      C.Trace.addTracedBytes(Aux);
    }
    if (Traced != 0 || Aux > 1) {
      C.Pace.noteBackgroundTrace(Traced + (Aux > 1 ? Aux : 0));
      BgTracedBytes.fetch_add(Traced, std::memory_order_relaxed);
      CGC_OBS_EVENT(C.Obs, BackgroundQuantum, Traced, Aux > 1 ? Aux : 0);
      continue;
    }
    if (Aux == 0) {
      if (concurrentWorkComplete()) {
        finishCycle(nullptr, /*DueToFailure=*/false);
        continue;
      }
      // Low priority: back off instead of burning mutator cycles.
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
}
