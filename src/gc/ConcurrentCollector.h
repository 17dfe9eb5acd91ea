//===- ConcurrentCollector.h - The paper's CGC ------------------*- C++ -*-===//
///
/// \file
/// The parallel, incremental, mostly concurrent collector (the paper's
/// contribution).
///
/// Cycle state machine: Idle → (free memory falls below the kickoff
/// threshold at an allocation slow path) Concurrent → (tracing
/// termination detected, or an allocation fails) final stop-the-world
/// phase → sweep → Idle.
///
/// During the concurrent phase:
///  - each mutator scans its own stack at its first allocation of the
///    cycle, and performs a tracing increment sized by the progress
///    formula on every cache refill / large allocation;
///  - low-priority background threads soak up idle time doing the same
///    work, accounted through the pacer's Best estimate;
///  - starved participants scan not-yet-scanned stacks, then clean
///    registered dirty cards, then start a new cleaning pass
///    (registration + mutator fence handshake), then give deferred
///    packets another chance;
///  - termination is detected when every stack is scanned, the budgeted
///    cleaning passes are drained, no deferred packets remain and the
///    Empty pool's counter equals the total packet count (Section 4.3).
///
//===----------------------------------------------------------------------===//

#ifndef CGC_GC_CONCURRENTCOLLECTOR_H
#define CGC_GC_CONCURRENTCOLLECTOR_H

#include "gc/CollectorBase.h"
#include "support/SampleSeries.h"

#include <thread>
#include <vector>

namespace cgc {

/// The mostly-concurrent collector.
class ConcurrentCollector : public CollectorBase {
public:
  explicit ConcurrentCollector(GcCore &Core);
  ~ConcurrentCollector() override;

  void onAllocationSlowPath(MutatorContext &Ctx, size_t Bytes) override;
  void collectNow(MutatorContext *Ctx) override;
  bool concurrentPhaseActive() const override {
    return C.phase() == GcPhase::Concurrent;
  }
  void shutdown() override;

  /// Termination test for the concurrent phase (public for tests).
  bool concurrentWorkComplete();

  /// Explicit kickoff: starts a concurrent cycle now if the collector is
  /// idle and returns whether it did. It returns false when a cycle is
  /// active or another thread holds the collection lock, which includes
  /// the moment after a finishing cycle has resumed the world but before
  /// it has released the lock; callers that need a cycle retry. Normal
  /// kickoff waits for free memory to cross the Section 3.1 threshold,
  /// which a fragmented or sharded free list can fail to reach before
  /// allocation fails outright; tests and benches use this to open a
  /// cycle deterministically.
  bool startConcurrentCycle(MutatorContext *Ctx) { return tryStartCycle(Ctx); }

private:
  /// Starts a cycle unless one is active or the collection lock is
  /// taken; returns whether it started one.
  bool tryStartCycle(MutatorContext *Ctx);
  void mutatorAssist(MutatorContext &Ctx, size_t Bytes);
  /// Starved-participant fallback work. Returns the bytes of collection
  /// work performed (cards scanned count at card size — the "M" work of
  /// the progress formula; stack scans at word granularity), zero when
  /// no progress was possible. \p Self may be null (background
  /// threads).
  size_t auxiliaryWork(MutatorContext *Self, TraceContext &Ctx);
  /// Returns scanned root words (0 = no unscanned stack found).
  size_t scanOneUnscannedStack(TraceContext &Ctx);
  bool allStacksScanned();
  void scanRootsOf(MutatorContext &Victim, TraceContext &Ctx);
  /// Ends the cycle with the final stop-the-world phase; runs a full
  /// degenerate STW cycle instead when no cycle is active.
  void finishCycle(MutatorContext *Ctx, bool DueToFailure);

  void backgroundLoop();
  /// Stops background tracing; \p Self (may be null) keeps acknowledging
  /// fence handshakes while waiting so a registrar background thread can
  /// finish its pass.
  void pauseBackground(MutatorContext *Self);

  /// Cycle watchdog (Options.CycleWatchdog): samples the concurrent
  /// phase every WatchdogIntervalMicros and escalates to the STW finish
  /// when (a) tracing, card cleaning and deferral counts all stay flat
  /// for WatchdogStallTicks samples (a stalled participant), or (b) the
  /// progress formula stays pegged at Kmax with free memory under a
  /// quarter of the kickoff threshold for WatchdogLagTicks samples (the
  /// tracer cannot catch up even at the clamp).
  void watchdogLoop();

  // Per-cycle accounting (mutated under the collect lock or with
  // relaxed atomics).
  std::atomic<uint64_t> AllocPreBytes{0};
  std::atomic<uint64_t> AllocConcurrentBytes{0};
  std::atomic<uint64_t> BgTracedBytes{0};
  /// Auxiliary (stack-scan / card-scan) work bytes credited into T.
  std::atomic<uint64_t> AuxWorkBytes{0};
  SampleSeries TracingFactors;
  CycleRecord Cur;
  uint64_t PhaseStartNs = 0;
  uint64_t LastPauseEndNs = 0;
  uint64_t SyncOpsAtCycleStart = 0;

  // Background threads.
  std::vector<std::thread> BgThreads;
  std::atomic<bool> ShuttingDown{false};
  std::atomic<bool> BgPause{false};
  std::atomic<int> ActiveBg{0};

  // Cycle watchdog.
  std::thread Watchdog;
};

} // namespace cgc

#endif // CGC_GC_CONCURRENTCOLLECTOR_H
