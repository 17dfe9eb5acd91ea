//===- GcHeap.cpp - Public heap runtime API ------------------------------------//

#include "runtime/GcHeap.h"

#include "gc/ConcurrentCollector.h"
#include "gc/FlightRecorder.h"
#include "gc/StwCollector.h"

#include <algorithm>
#include <cassert>
#include <thread>

using namespace cgc;

GcHeap::GcHeap(const GcOptions &Options)
    : Core(Options),
      BarrierEnabled(Options.Kind == CollectorKind::MostlyConcurrent) {
  if (Options.Kind == CollectorKind::MostlyConcurrent)
    Col = std::make_unique<ConcurrentCollector>(Core);
  else
    Col = std::make_unique<StwCollector>(Core);
  if (Options.FlightRecorder)
    FlightRecorder::install(&Core, Options.FlightRecorderFd);
}

std::unique_ptr<GcHeap> GcHeap::create(const GcOptions &Options) {
  assert(Options.HeapBytes >= (1u << 20) && "heap too small");
  assert(Options.LargeObjectBytes <= Options.AllocCacheBytes &&
         "large-object threshold must fit in a cache");
  assert(Options.AllocCacheBytes < Options.HeapBytes / 4 &&
         "allocation cache too large for the heap");
  assert(Options.NumWorkPackets >= 4 && "too few work packets");
  assert((Options.FreeListShards & (Options.FreeListShards - 1)) == 0 &&
         "FreeListShards must be 0 (auto) or a power of two");
  assert(Options.FreeListShards <= 64 && "too many free-list shards");
  return std::unique_ptr<GcHeap>(new GcHeap(Options));
}

GcHeap::~GcHeap() {
  // Unregister from the crash handler FIRST: a fatal signal during
  // teardown must not walk a half-destroyed core.
  if (Core.Options.FlightRecorder)
    FlightRecorder::uninstall(&Core);
  Col->shutdown();
  assert(Core.Registry.numThreads() == 0 &&
         "threads still attached at heap teardown");
}

MutatorContext &GcHeap::attachThread() {
  auto Owned = std::make_unique<MutatorContext>(Core.Pool);
  MutatorContext *Ctx = Owned.get();
  // Shard affinity: spread threads round-robin over the free-list
  // shards so their refills rarely meet on a lock.
  Ctx->setPreferredShard(NextShard.fetch_add(1, std::memory_order_relaxed) %
                         Core.Heap.freeList().numShards());
  Ctx->cache().setFaultInjector(&Core.Inject);
  // Appear stopped while blocking on the collection lock: a running GC
  // must not wait for a thread that is not cooperating yet.
  Ctx->setState(ExecState::Idle);
  {
    std::lock_guard<std::mutex> Lock(Core.CollectMutex);
    Core.Registry.attach(Ctx);
    SpinLockGuard Guard(ContextsLock);
    Contexts.push_back(std::move(Owned));
  }
  Core.Registry.exitIdle(*Ctx, Core.Heap.allocBits());
  return *Ctx;
}

void GcHeap::detachThread(MutatorContext &Ctx) {
  Core.Registry.poll(Ctx, Core.Heap.allocBits());
  // As with attach: count as stopped while waiting for the lock.
  Core.Registry.enterIdle(Ctx);
  {
    std::lock_guard<std::mutex> Lock(Core.CollectMutex);
    Ctx.cache().flushAllocBits(Core.Heap.allocBits());
    Ctx.cache().retire(Core.Heap.freeList());
    Core.Registry.detach(&Ctx);
    SpinLockGuard Guard(ContextsLock);
    auto It = std::find_if(
        Contexts.begin(), Contexts.end(),
        [&](const std::unique_ptr<MutatorContext> &P) { return P.get() == &Ctx; });
    assert(It != Contexts.end() && "detaching a context this heap does not own");
    Contexts.erase(It);
  }
}

bool GcHeap::refillCache(MutatorContext &Ctx, size_t MinBytes) {
  auto TryOnce = [&]() -> bool {
    // Simulated transient refill failure: the attempt fails before any
    // free-list traffic, so the ladder escalates deterministically.
    if (Core.Inject.shouldFail(FaultSite::AllocCacheRefill))
      return false;
    size_t Granted = 0;
    auto AllocUpTo = [&]() {
      return Core.Heap.freeList().allocateUpTo(
          MinBytes, Core.Options.AllocCacheBytes, Granted,
          Ctx.preferredShard());
    };
    uint8_t *Range = AllocUpTo();
    if (!Range && Core.Sweep.lazySweepPending()) {
      // Sweeping at allocation time is the lazy-sweep happy path, not an
      // escalation — only a refill that still fails afterwards climbs
      // the ladder.
      Core.Sweep.sweepUntilFree(Core.Options.AllocCacheBytes);
      Range = AllocUpTo();
    }
    if (!Range)
      return false;
    // Assign BEFORE the pacing hook: the hook can run a full
    // collection, and memory not yet owned by a cache would be swept
    // back onto the free list (double ownership).
    Ctx.cache().assignRange(Range, Granted);
    // Pacing hook (Section 3): the kickoff check and the incremental
    // tracing increment are driven by the bytes actually granted — a
    // nearly full heap hands out partial caches, and each one only
    // owes tracing for its real size.
    Col->onAllocationSlowPath(Ctx, Granted);
    // A collection inside the hook may have reclaimed the fresh cache;
    // that attempt failed and the ladder retries.
    return Ctx.cache().hasRange();
  };
  return runAllocationLadder(Ctx, MinBytes, TryOnce);
}

Object *GcHeap::allocate(MutatorContext &Ctx, size_t PayloadBytes,
                         uint16_t NumRefs, uint16_t ClassId) {
  Core.Registry.poll(Ctx, Core.Heap.allocBits());
  size_t Total = Object::requiredSize(PayloadBytes, NumRefs);
  if (Core.Options.NaiveFenceAccounting)
    recordNaiveFence(FenceSite::NaivePerObjectAlloc);
  if (Total >= Core.Options.LargeObjectBytes)
    return allocateLarge(Ctx, Total, NumRefs, ClassId);

  if (Object *Obj = Ctx.cache().allocate(Total, NumRefs, ClassId)) {
    Ctx.BytesAllocated.fetch_add(Total, std::memory_order_relaxed);
    return Obj;
  }

  // Cache exhausted: publish its allocation bits (ONE fence for the
  // whole block of objects, Section 5.2), return the tail, refill.
  Ctx.cache().flushAllocBits(Core.Heap.allocBits());
  Ctx.cache().retire(Core.Heap.freeList());
  if (!refillCache(Ctx, Total))
    return nullptr; // Heap exhausted even after full collection.

  Object *Obj = Ctx.cache().allocate(Total, NumRefs, ClassId);
  assert(Obj && "fresh cache cannot satisfy the allocation it was sized for");
  Ctx.BytesAllocated.fetch_add(Total, std::memory_order_relaxed);
  return Obj;
}

Object *GcHeap::allocateLarge(MutatorContext &Ctx, size_t TotalBytes,
                              uint16_t NumRefs, uint16_t ClassId) {
  // Large allocations also drive the pacer (Section 3.1: increments run
  // "on allocations of large objects and allocation caches").
  Col->onAllocationSlowPath(Ctx, TotalBytes);
  uint8_t *Mem = nullptr;
  auto TryOnce = [&]() -> bool {
    Mem = Core.Heap.freeList().allocate(TotalBytes, Ctx.preferredShard());
    if (!Mem && Core.Sweep.lazySweepPending()) {
      Core.Sweep.sweepUntilFree(TotalBytes);
      Mem = Core.Heap.freeList().allocate(TotalBytes, Ctx.preferredShard());
    }
    return Mem != nullptr;
  };
  if (!runAllocationLadder(Ctx, TotalBytes, TryOnce))
    return nullptr;
  Object *Obj = reinterpret_cast<Object *>(Mem);
  Obj->initialize(static_cast<uint32_t>(TotalBytes), NumRefs, ClassId);
  // A large object is its own batch: one fence, then publish its bit.
  fence(FenceSite::AllocCacheFlush);
  Core.Heap.allocBits().set(Obj);
  Ctx.BytesAllocated.fetch_add(TotalBytes, std::memory_order_relaxed);
  return Obj;
}

void GcHeap::requestGC(MutatorContext *Ctx) { Col->collectNow(Ctx); }

VerifyResult GcHeap::verifyNow(MutatorContext *Ctx) {
  while (!Core.CollectMutex.try_lock()) {
    if (Ctx)
      Core.Registry.poll(*Ctx, Core.Heap.allocBits());
    std::this_thread::yield();
  }
  Core.Registry.stopTheWorld(Ctx, Core.Heap.allocBits());
  Core.Registry.forEach([this](MutatorContext &M) {
    M.cache().flushAllocBits(Core.Heap.allocBits());
  });
  HeapVerifier Verifier(Core.Heap);
  VerifyResult Result = Verifier.verify(Core.Registry, /*CheckMarks=*/false);
  Core.Registry.resumeTheWorld();
  Core.CollectMutex.unlock();
  return Result;
}
