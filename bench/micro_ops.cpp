//===- micro_ops.cpp - micro-operation costs (google-benchmark) -------------------//
///
/// Costs of the collector's hot operations: the allocation fast path,
/// the fence-free card-marking write barrier, allocation-bit flushing,
/// mark-bit test-and-set, work-packet get/put, the parallel mark rate
/// (Section 4), the bitwise sweep rate (Section 2.2), serial and
/// parallel, and the final card-cleaning pass (Section 2.1). These are
/// the per-operation overheads the paper's design minimizes (Sections
/// 1.1 and 5): the write barrier is two plain stores; the allocation
/// fast path is a bump pointer; fences are batched out of both.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "gc/CardCleaner.h"
#include "gc/Sweeper.h"
#include "gc/Tracer.h"
#include "gc/WorkerPool.h"
#include "mutator/ThreadRegistry.h"
#include "runtime/GcHeap.h"
#include "support/Random.h"
#include "support/Timing.h"
#include "workloads/Warehouse.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace cgc;
using namespace cgc::bench;

namespace {

GcOptions microOptions(CollectorKind Kind) {
  GcOptions Opts;
  Opts.Kind = Kind;
  Opts.HeapBytes = 64u << 20;
  Opts.BackgroundThreads = 0;
  return Opts;
}

void BM_AllocateSmall(benchmark::State &State) {
  auto Heap = GcHeap::create(microOptions(CollectorKind::MostlyConcurrent));
  MutatorContext &Ctx = Heap->attachThread();
  for (auto _ : State) {
    Object *Obj = Heap->allocate(Ctx, 32, 2);
    benchmark::DoNotOptimize(Obj);
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          Object::requiredSize(32, 2));
  Heap->detachThread(Ctx);
}
BENCHMARK(BM_AllocateSmall);

void BM_AllocateSmallStwNoBarrier(benchmark::State &State) {
  auto Heap = GcHeap::create(microOptions(CollectorKind::StopTheWorld));
  MutatorContext &Ctx = Heap->attachThread();
  for (auto _ : State) {
    Object *Obj = Heap->allocate(Ctx, 32, 2);
    benchmark::DoNotOptimize(Obj);
  }
  Heap->detachThread(Ctx);
}
BENCHMARK(BM_AllocateSmallStwNoBarrier);

void BM_WriteBarrier(benchmark::State &State) {
  auto Heap = GcHeap::create(microOptions(CollectorKind::MostlyConcurrent));
  MutatorContext &Ctx = Heap->attachThread();
  Ctx.reserveRoots(2);
  Object *Holder = Heap->allocate(Ctx, 0, 2);
  Object *Value = Heap->allocate(Ctx, 16, 0);
  Ctx.setRoot(0, Holder);
  Ctx.setRoot(1, Value);
  unsigned Slot = 0;
  for (auto _ : State) {
    Heap->writeRef(Ctx, Holder, Slot & 1, Value);
    ++Slot;
  }
  Heap->detachThread(Ctx);
}
BENCHMARK(BM_WriteBarrier);

void BM_RefLoad(benchmark::State &State) {
  auto Heap = GcHeap::create(microOptions(CollectorKind::MostlyConcurrent));
  MutatorContext &Ctx = Heap->attachThread();
  Ctx.reserveRoots(1);
  Object *Holder = Heap->allocate(Ctx, 0, 2);
  Heap->writeRef(Ctx, Holder, 0, Holder);
  Ctx.setRoot(0, Holder);
  for (auto _ : State)
    benchmark::DoNotOptimize(GcHeap::readRef(Holder, 0));
  Heap->detachThread(Ctx);
}
BENCHMARK(BM_RefLoad);

void BM_MarkBitTestAndSet(benchmark::State &State) {
  HeapSpace Heap(16u << 20);
  size_t NumGranules = Heap.sizeBytes() / GranuleBytes;
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(
        Heap.markBits().testAndSet(Heap.base() + (I % NumGranules) * 8));
    ++I;
  }
}
BENCHMARK(BM_MarkBitTestAndSet);

void BM_PacketGetPut(benchmark::State &State) {
  PacketPool Pool(64);
  for (auto _ : State) {
    WorkPacket *Packet = Pool.getOutput();
    Pool.put(Packet);
  }
}
BENCHMARK(BM_PacketGetPut);

void BM_PacketPushPopEntry(benchmark::State &State) {
  PacketPool Pool(64);
  TraceContext Ctx(Pool);
  Object *Fake = reinterpret_cast<Object *>(0x10000);
  size_t N = 0;
  for (auto _ : State) {
    if ((N & 255) < 128) {
      benchmark::DoNotOptimize(Ctx.pushWork(Fake));
    } else {
      benchmark::DoNotOptimize(Ctx.popWork());
    }
    ++N;
  }
  while (Ctx.popWork())
    ;
  Ctx.release();
}
BENCHMARK(BM_PacketPushPopEntry);

void BM_CacheFlushPer64Objects(benchmark::State &State) {
  HeapSpace Heap(16u << 20);
  AllocationCache Cache;
  for (auto _ : State) {
    State.PauseTiming();
    Cache.reset();
    Cache.assignRange(Heap.base(), 64u << 10);
    for (int I = 0; I < 64; ++I)
      Cache.allocate(64, 1, 0);
    State.ResumeTiming();
    benchmark::DoNotOptimize(Cache.flushAllocBits(Heap.allocBits()));
  }
}
BENCHMARK(BM_CacheFlushPer64Objects);

/// A seeded 32 MB heap (4 free-list shards) for the bitwise sweep rate,
/// packed end to end in one of two layouts. Scattered: 16-512 B objects,
/// each live with probability live_pct. Warehouse: the Warehouse
/// workload's order trees (order, line array, 8 lines: adjacent 64-80 B
/// objects), each tree live or dead as a unit with probability live_pct,
/// as orders die in that workload. The mark bits never change, so every
/// sweepAll rebuilds the same free list.
class SweepHeap {
public:
  enum Layout { Scattered = 0, Warehouse = 1 };

  SweepHeap(unsigned LivePct, Layout Shape)
      : Heap(32u << 20, /*FreeListShards=*/4), Sweep(Heap) {
    const double LiveFrac = static_cast<double>(LivePct) / 100.0;
    Random Rng(0x5ee9);
    auto place = [&](size_t Offset, size_t Bytes, bool Live) {
      Object *Obj = reinterpret_cast<Object *>(Heap.base() + Offset);
      Obj->initialize(static_cast<uint32_t>(Bytes), 0, 0);
      Heap.allocBits().set(Obj);
      if (Live)
        Heap.markBits().set(Obj);
    };
    if (Shape == Scattered) {
      for (size_t Offset = 0;;) {
        size_t Bytes = GranuleBytes * Rng.nextInRange(2, 64);
        if (Offset + Bytes > Heap.sizeBytes())
          break;
        place(Offset, Bytes, Rng.nextBool(LiveFrac));
        Offset += Bytes;
      }
      return;
    }
    WarehouseConfig Tree;
    const size_t Sizes[] = {
        Object::requiredSize(Tree.OrderPayloadBytes, 1),
        Object::requiredSize(0, static_cast<uint16_t>(Tree.LinesPerOrder)),
        Object::requiredSize(Tree.LinePayloadBytes, 1)};
    for (size_t Offset = 0; Offset + Tree.treeBytes() <= Heap.sizeBytes();) {
      bool Live = Rng.nextBool(LiveFrac);
      place(Offset, Sizes[0], Live);
      place(Offset + Sizes[0], Sizes[1], Live);
      for (unsigned L = 0; L < Tree.LinesPerOrder; ++L)
        place(Offset + Sizes[0] + Sizes[1] + L * Sizes[2], Sizes[2], Live);
      Offset += Tree.treeBytes();
    }
  }

  HeapSpace Heap;
  Sweeper Sweep;
};

/// Bitwise sweep rate on SweepHeap, swept serially (workers=0) or on a
/// 2-worker pool. Reports heap bytes swept per second and shard-lock
/// acquisitions per sweep (the clear plus one per chunk and shard it
/// publishes to).
void BM_SweepAll(benchmark::State &State) {
  SweepHeap Swept(static_cast<unsigned>(State.range(0)),
                  static_cast<SweepHeap::Layout>(State.range(2)));
  HeapSpace &Heap = Swept.Heap;
  const auto NumWorkers = static_cast<unsigned>(State.range(1));
  std::unique_ptr<WorkerPool> Pool;
  if (NumWorkers)
    Pool = std::make_unique<WorkerPool>(NumWorkers);
  const uint64_t LocksBefore = Heap.freeList().lockAcquisitions();
  for (auto _ : State)
    benchmark::DoNotOptimize(Swept.Sweep.sweepAll(Pool.get()));
  const auto Sweeps = static_cast<double>(State.iterations());
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Heap.sizeBytes()));
  State.counters["shard_locks_per_sweep"] =
      static_cast<double>(Heap.freeList().lockAcquisitions() - LocksBefore) /
      Sweeps;
  State.counters["free_ranges"] =
      static_cast<double>(Heap.freeList().numRanges());
}
BENCHMARK(BM_SweepAll)
    ->ArgsProduct({{10, 50, 90}, {0, 2}, {0, 1}})
    ->ArgNames({"live_pct", "workers", "warehouse"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The sweep rate for the machine-readable output: the median of nine
/// sweepAll runs per (layout, live_pct, workers), as heap MB swept per
/// second. Scattered rows are labelled sweep_all,live_pct=N,workers=W;
/// warehouse rows carry layout=warehouse first.
void emitSweepRateRows(BenchJsonWriter &Json) {
  for (auto Layout : {SweepHeap::Scattered, SweepHeap::Warehouse})
    for (unsigned LivePct : {10u, 50u, 90u}) {
      SweepHeap Swept(LivePct, Layout);
      for (unsigned NumWorkers : {0u, 2u}) {
        std::unique_ptr<WorkerPool> Pool;
        if (NumWorkers)
          Pool = std::make_unique<WorkerPool>(NumWorkers);
        std::vector<double> Rates;
        for (int Rep = 0; Rep < 9; ++Rep) {
          Stopwatch Timer;
          benchmark::DoNotOptimize(Swept.Sweep.sweepAll(Pool.get()));
          Rates.push_back(
              static_cast<double>(Swept.Heap.sizeBytes()) / (1u << 20) /
              (static_cast<double>(Timer.elapsedNanos()) * 1e-9));
        }
        std::nth_element(Rates.begin(), Rates.begin() + 4, Rates.end());
        Json.beginRow(std::string("sweep_all,") +
                      (Layout == SweepHeap::Warehouse ? "layout=warehouse,"
                                                      : "") +
                      "live_pct=" + std::to_string(LivePct) +
                      ",workers=" + std::to_string(NumWorkers));
        Json.addConfig("live_pct", LivePct);
        Json.addConfig("workers", NumWorkers);
        Json.addConfig("warehouse", Layout == SweepHeap::Warehouse ? 1 : 0);
        Json.addMetric("sweep_mb_per_s", Rates[4], "MB/s");
      }
    }
}

/// Card-cleaning cost for the machine-readable output: a final pass
/// (register, then clean on one thread) over 4096 seeded dirty cards of
/// a 32 MB heap densely packed with marked 64-88 B objects. Cleaning a
/// card pushes its marked objects onto the work packets; the loop pops
/// them back off between cleanSome calls so the pool never overflows.
/// Reports the median of nine passes as ns per card.
void emitCardCleanRow(BenchJsonWriter &Json) {
  HeapSpace Heap(32u << 20);
  ThreadRegistry Registry;
  CardCleaner Cleaner(Heap, Registry);
  PacketPool Pool(64);
  Random Rng(0xca4d);
  for (size_t Offset = 0;;) {
    size_t Bytes = GranuleBytes * Rng.nextInRange(8, 11);
    if (Offset + Bytes > Heap.sizeBytes())
      break;
    Object *Obj = reinterpret_cast<Object *>(Heap.base() + Offset);
    Obj->initialize(static_cast<uint32_t>(Bytes), 0, 0);
    Heap.allocBits().set(Obj);
    Heap.markBits().set(Obj);
    Offset += Bytes;
  }
  constexpr size_t NumDirty = 4096;
  std::vector<uint8_t *> Cards;
  for (size_t I = 0; I < NumDirty; ++I)
    Cards.push_back(Heap.cards().cardStart(
        Rng.nextBelow(Heap.cards().numCards())));
  std::vector<double> NsPerCard;
  size_t Cleaned = 0;
  for (int Rep = 0; Rep < 9; ++Rep) {
    Cleaner.beginCycle(0);
    for (uint8_t *Card : Cards)
      Heap.cards().dirty(Card);
    TraceContext Ctx(Pool);
    Stopwatch Timer;
    Cleaned = Cleaner.beginFinalPass();
    while (Cleaner.cleanSome(Ctx, 16) != 0)
      while (Ctx.popWork())
        ;
    NsPerCard.push_back(static_cast<double>(Timer.elapsedNanos()) /
                        static_cast<double>(Cleaned));
    Ctx.release();
  }
  std::nth_element(NsPerCard.begin(), NsPerCard.begin() + 4, NsPerCard.end());
  Json.beginRow("card_clean,final_pass");
  Json.addConfig("dirty_cards", static_cast<double>(Cleaned));
  Json.addMetric("card_clean_ns_per_card", NsPerCard[4], "ns");
}

/// A seeded, warehouse-shaped live graph for the mark rate: about 24 MB
/// of order trees (order -> line array -> 8 lines, the WarehouseConfig
/// defaults) in a 32 MB heap, the trees shuffled in address order and
/// each line's reference pointing at a random line anywhere in the
/// graph. Every order is a root. markAll() marks all of it afresh.
class MarkGraph {
public:
  MarkGraph() : Heap(32u << 20), Pool(512), Trace(Heap, Pool, Registry) {
    WarehouseConfig Shape;
    const size_t OrderBytes =
        Object::requiredSize(Shape.OrderPayloadBytes, 1);
    const size_t ArrayBytes = Object::requiredSize(
        0, static_cast<uint16_t>(Shape.LinesPerOrder));
    const size_t LineBytes = Object::requiredSize(Shape.LinePayloadBytes, 1);
    const size_t TreeBytes = Shape.treeBytes();
    const size_t NumTrees = (24u << 20) / TreeBytes;
    std::vector<size_t> Slots(NumTrees);
    for (size_t I = 0; I < NumTrees; ++I)
      Slots[I] = I;
    Random Rng(0x3a4c);
    for (size_t I = NumTrees - 1; I > 0; --I)
      std::swap(Slots[I], Slots[Rng.nextBelow(I + 1)]);
    auto place = [&](size_t Offset, size_t Bytes, uint16_t Refs) {
      Object *Obj = reinterpret_cast<Object *>(Heap.base() + Offset);
      Obj->initialize(static_cast<uint32_t>(Bytes), Refs, 0);
      Heap.allocBits().set(Obj);
      return Obj;
    };
    std::vector<Object *> Lines;
    for (size_t Slot : Slots) {
      size_t Offset = Slot * TreeBytes;
      Object *Order = place(Offset, OrderBytes, 1);
      Object *Array = place(Offset + OrderBytes, ArrayBytes,
                            static_cast<uint16_t>(Shape.LinesPerOrder));
      Order->storeRefRaw(0, Array);
      for (unsigned L = 0; L < Shape.LinesPerOrder; ++L) {
        Object *Line =
            place(Offset + OrderBytes + ArrayBytes + L * LineBytes,
                  LineBytes, 1);
        Array->storeRefRaw(L, Line);
        Lines.push_back(Line);
      }
      Roots.push_back(Order);
    }
    for (Object *Line : Lines)
      Line->storeRefRaw(0, Lines[Rng.nextBelow(Lines.size())]);
  }

  /// Clears the mark bits (untimed in BM_ParallelMark).
  void reset() {
    Heap.markBits().clearAll();
    Trace.beginCycle();
  }

  /// Marks from the roots and drains the packets on \p Workers' caller
  /// plus workers, as the final pause does. Returns the bytes traced.
  uint64_t markAll(WorkerPool &Workers) {
    TraceContext RootCtx(Pool);
    for (Object *Root : Roots)
      Trace.markAndQueue(RootCtx, Root);
    RootCtx.release();
    Workers.runParallel([this](unsigned) {
      TraceContext Ctx(Pool);
      for (;;) {
        if (Trace.traceWork(Ctx, 256u << 10, /*CheckAllocBits=*/false,
                            /*AbortOnStopRequest=*/false) != 0)
          continue;
        Ctx.release();
        if (Pool.allPacketsEmptyAndIdle())
          return;
        std::this_thread::yield();
      }
    });
    return Trace.cycleTracedBytes();
  }

private:
  HeapSpace Heap;
  PacketPool Pool;
  ThreadRegistry Registry;
  Tracer Trace;
  std::vector<Object *> Roots;
};

/// Parallel mark rate on MarkGraph, serially (workers=0) or on a
/// 2-worker pool. Reports bytes traced per second.
void BM_ParallelMark(benchmark::State &State) {
  MarkGraph Graph;
  WorkerPool Workers(static_cast<unsigned>(State.range(0)));
  uint64_t Traced = 0;
  for (auto _ : State) {
    State.PauseTiming();
    Graph.reset();
    State.ResumeTiming();
    Traced = Graph.markAll(Workers);
    benchmark::DoNotOptimize(Traced);
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Traced));
  State.counters["traced_mb"] = static_cast<double>(Traced) / (1u << 20);
}
BENCHMARK(BM_ParallelMark)
    ->Arg(0)
    ->Arg(2)
    ->ArgName("workers")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The mark rate for the machine-readable output: the median of nine
/// markAll runs per worker count, as MB traced per second.
void emitMarkRateRows(BenchJsonWriter &Json) {
  MarkGraph Graph;
  for (unsigned NumWorkers : {0u, 2u}) {
    WorkerPool Workers(NumWorkers);
    std::vector<double> Rates;
    uint64_t Traced = 0;
    for (int Rep = 0; Rep < 9; ++Rep) {
      Graph.reset();
      Stopwatch Timer;
      Traced = Graph.markAll(Workers);
      Rates.push_back(static_cast<double>(Traced) / (1u << 20) /
                      (static_cast<double>(Timer.elapsedNanos()) * 1e-9));
    }
    std::nth_element(Rates.begin(), Rates.begin() + 4, Rates.end());
    Json.beginRow("parallel_mark,workers=" + std::to_string(NumWorkers));
    Json.addConfig("workers", NumWorkers);
    Json.addMetric("mark_mb_per_s", Rates[4], "MB/s");
    Json.addMetric("traced_mb", static_cast<double>(Traced) / (1u << 20),
                   "MB");
  }
}

/// Manual allocation-cost measurement for the machine-readable output:
/// a fixed count of small allocations, reporting cycles per allocation
/// and shard-lock acquisitions per allocation as a validated
/// cgc-bench-v1 row (google-benchmark's own numbers stay on stdout for
/// humans).
void emitAllocCostRow(BenchJsonWriter &Json) {
  const uint64_t NumAllocs = envKnobU64("CGC_BENCH_ALLOC_OPS", 400000);
  GcOptions Opts = microOptions(CollectorKind::StopTheWorld);
  Opts.HeapBytes = 32u << 20;
  auto Heap = GcHeap::create(Opts);
  MutatorContext &Ctx = Heap->attachThread();
  Ctx.reserveRoots(256);

  const uint64_t LockBefore = Heap->core().Heap.freeList().lockAcquisitions();
  const uint64_t C0 = costClock();
  for (uint64_t I = 0; I < NumAllocs; ++I) {
    Object *Obj = Heap->allocate(Ctx, 16 + (I % 16) * 56, 0);
    benchmark::DoNotOptimize(Obj);
    if (Obj && (I & 3) == 0) // Rolling survivor window: sweeps fragment.
      Ctx.setRoot((I >> 2) % 256, Obj);
  }
  const uint64_t Cost = costClock() - C0;
  const uint64_t Locks =
      Heap->core().Heap.freeList().lockAcquisitions() - LockBefore;
  Heap->detachThread(Ctx);

  Json.beginRow("alloc_small");
  Json.addConfig("alloc_ops", static_cast<double>(NumAllocs));
  Json.addMetric("cycles_per_alloc",
                 static_cast<double>(Cost) / static_cast<double>(NumAllocs),
                 costClockUnit());
  Json.addMetric("shard_lock_acquisitions_per_alloc",
                 static_cast<double>(Locks) / static_cast<double>(NumAllocs),
                 "count");
  Json.addMetric("gc_cycles", static_cast<double>(Heap->completedCycles()),
                 "count");
}

} // namespace

// Custom main instead of BENCHMARK_MAIN(): the google-benchmark suite
// runs exactly as before (all flags honored, argless run included),
// then the allocation-cost, mark-rate, sweep-rate and card-cleaning rows
// are emitted as a cgc-bench-v1 document.
// CI's observe job shortens the gbench half with --benchmark_filter.
int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  BenchJsonWriter Json("micro_ops");
  emitAllocCostRow(Json);
  emitMarkRateRows(Json);
  emitSweepRateRows(Json);
  emitCardCleanRow(Json);
  emitBenchJson(Json);
  return 0;
}
