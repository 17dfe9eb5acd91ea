//===- CardCleaner.h - Dirty-card registration and cleaning -----*- C++ -*-===//
///
/// \file
/// Card cleaning (Sections 2.1 and 5.3): scanning dirty cards and
/// collecting roots for further tracing.
///
/// A cleaning pass follows the fence-free write-barrier protocol:
///   1. Register: scan the card table, record dirty cards in a side
///      list and clear their dirty indicators.
///   2. Force every mutator to execute a fence (ragged handshake), so
///      all reference stores performed before step 1 are visible.
///   3. Clean the registered cards: push every MARKED object whose
///      header lies on the card back onto the work packets for
///      retracing. (Objects are found via the mark bit vector, so a
///      marked object whose allocation bit is not yet published is still
///      re-queued; the tracer's deferral protocol handles its safety.)
///
/// Policy (Section 2.1): each card is cleaned at most once per pass,
/// cleaning is deferred while other tracing work exists, and the default
/// is a single concurrent pass (footnote 2: a second pass reduces pause
/// time further — configurable). The final stop-the-world phase runs one
/// more pass with the world stopped.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_GC_CARDCLEANER_H
#define CGC_GC_CARDCLEANER_H

#include "heap/HeapSpace.h"
#include "support/Annotations.h"
#include "support/FaultInjector.h"
#include "support/SpinLock.h"
#include "workpackets/TraceContext.h"

#include <atomic>
#include <cstdint>
#include <vector>

namespace cgc {

class GcObserver;
class MutatorContext;
class ThreadRegistry;

/// Coordinates card-cleaning passes across all tracing participants.
class CardCleaner {
public:
  /// \p FI (optional) arms the cleaner's fault-injection sites; they
  /// only ever fire during concurrent passes — the final stop-the-world
  /// pass must make progress unconditionally. \p Obs (optional)
  /// receives pass and slice events.
  CardCleaner(HeapSpace &Heap, ThreadRegistry &Registry,
              FaultInjector *FI = nullptr, GcObserver *Obs = nullptr)
      : Heap(Heap), Registry(Registry), FI(FI), Obs(Obs) {}

  /// Resets pass state for a new collection cycle allowing
  /// \p ConcurrentPasses concurrent passes.
  void beginCycle(unsigned ConcurrentPasses);

  /// Attempts to start the next concurrent pass: registers dirty cards
  /// and performs the mutator fence handshake. Returns true when a pass
  /// was started and cards are available to clean. Returns false when a
  /// pass is already active, the pass budget is exhausted, or no cards
  /// were dirty (an empty registration still consumes a pass).
  /// Never blocks on another registrar (try-lock), so spinning callers
  /// cannot stall the handshake.
  ///
  /// When the fence handshake times out (a mutator refused to
  /// cooperate), the pass is NOT started: the registered cards stay
  /// unpublished (no cleaner may scan them — the fence ordering is
  /// unproven) and pending, and later calls retry just the handshake.
  /// The cards are never lost: beginFinalPass() carries a pending
  /// registration over, and the world-stopped final pass needs no
  /// handshake.
  bool tryBeginConcurrentPass(MutatorContext *Self);

  /// Whether a registration is waiting on a timed-out fence handshake.
  bool fencePending() const {
    return PendingFence.load(std::memory_order_relaxed);
  }

  /// Registers remaining dirty cards with the world stopped (the final
  /// pass; no handshake needed, but the registrar fences for fidelity).
  /// Returns the number of cards registered.
  size_t beginFinalPass();

  /// Claims and cleans up to \p MaxCards registered cards, pushing their
  /// marked objects through \p Ctx. Returns cards cleaned (0 = pass
  /// drained or none active). The cleaned counters grow by the return
  /// value once, when the call has cleaned all of its cards.
  size_t cleanSome(TraceContext &Ctx, size_t MaxCards);

  /// Whether every registered card of the current pass has been cleaned.
  bool currentPassDrained() const {
    return Cleaned.load(std::memory_order_acquire) ==
           RegisteredCount.load(std::memory_order_acquire);
  }

  /// Whether the concurrent phase owes no more card cleaning: all
  /// budgeted passes started and the last one drained.
  bool concurrentCleaningComplete() const {
    return PassesStarted.load(std::memory_order_acquire) >=
               PassBudget.load(std::memory_order_relaxed) &&
           currentPassDrained();
  }

  /// Cards registered but not yet cleaned (the "Cards Left" ingredient).
  size_t registeredNotCleaned() const {
    return RegisteredCount.load(std::memory_order_relaxed) -
           Cleaned.load(std::memory_order_relaxed);
  }

  uint64_t cleanedConcurrent() const {
    return CleanedConcurrent.load(std::memory_order_relaxed);
  }
  uint64_t cleanedFinal() const {
    return CleanedFinal.load(std::memory_order_relaxed);
  }
  /// Total cards registered over the cycle (concurrent + final).
  uint64_t totalRegistered() const {
    return TotalRegistered.load(std::memory_order_relaxed);
  }

private:
  /// Pushes every marked object starting on card \p Index for retracing.
  void cleanCard(TraceContext &Ctx, uint32_t Index);

  HeapSpace &Heap;
  ThreadRegistry &Registry;
  FaultInjector *FI;
  GcObserver *Obs;

  SpinLock RegistrarLock;
  std::vector<uint32_t> Registered;
  CGC_ATOMIC_DOC("registrar stores once per pass (release, after the "
                 "handshake); cleaners acquire-load it before claiming")
  std::atomic<size_t> RegisteredCount{0};
  CGC_ATOMIC_DOC("per-card claim cursor: atomicClaimBelow by every cleaner, "
                 "bounded by RegisteredCount; this distributes the work")
  std::atomic<size_t> NextIndex{0};
  CGC_ATOMIC_DOC("cleaner-local count, published once per cleanSome call "
                 "after its cards are cleaned (release); acquire in "
                 "currentPassDrained")
  std::atomic<size_t> Cleaned{0};

  /// Latched by beginCycle() (under the collect lock) and read without
  /// it by the background/watchdog completeness probes; relaxed is
  /// enough — a transiently stale budget only delays one probe, the
  /// finish path re-checks under the collect lock.
  CGC_ATOMIC_DOC("stored once per cycle by beginCycle; relaxed probe reads")
  std::atomic<unsigned> PassBudget{1};
  CGC_ATOMIC_DOC("registrar adds once per started pass (release); acquire "
                 "reads in the pass-budget and completeness probes")
  std::atomic<unsigned> PassesStarted{0};
  CGC_ATOMIC_DOC("stored by beginCycle and each beginFinalPass, both under "
                 "RegistrarLock; relaxed reads")
  std::atomic<bool> FinalMode{false};
  /// Registration completed but its fence handshake timed out; the pass
  /// is unpublished (RegisteredCount still 0) and not counted against
  /// the budget until a retried handshake succeeds.
  CGC_ATOMIC_DOC("written under RegistrarLock once per registration or "
                 "handshake retry; relaxed fencePending() reads")
  std::atomic<bool> PendingFence{false};

  CGC_ATOMIC_DOC("cleaner-local count, published once per concurrent "
                 "cleanSome call; relaxed, read by the watchdog and stats")
  std::atomic<uint64_t> CleanedConcurrent{0};
  CGC_ATOMIC_DOC("cleaner-local count, published once per final-pass "
                 "cleanSome call; relaxed, read after the pause's drain")
  std::atomic<uint64_t> CleanedFinal{0};
  CGC_ATOMIC_DOC("registrar adds once per registration; relaxed stats reads")
  std::atomic<uint64_t> TotalRegistered{0};
};

} // namespace cgc

#endif // CGC_GC_CARDCLEANER_H
