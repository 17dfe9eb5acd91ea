//===- freelist_contention.cpp - sharded free-list scalability -----------------//
//
// Measures the tentpole of the sharded free-space manager: multi-thread
// refill + sweep-insert throughput against the shard count. Each worker
// runs the two slow-path operations that used to serialize on the one
// global free-list lock:
//
//   refill       allocateUpTo(4 KB, 32 KB) with the worker's affine shard
//   sweep-insert addRange of the granted range back (what a sweep worker
//                does when it reclaims a dead run in that span)
//
// Workers have disjoint affinity (tid mod shards), so at 8 shards the
// eight workers touch eight different locks; at 1 shard they convoy on
// one, exactly like the legacy FreeList. Reported: million op-pairs/s
// per (shards, threads) cell and the speedup of each shard count over
// the 1-shard baseline at the same thread count.
//
// The second section moves up a layer: a full GcHeap small-object churn
// on 8 shards, reporting allocations/s, cycles per allocation and
// shard-lock acquisitions per allocation (cache refills plus the sweep's
// per-chunk batch publication). Both sections land in one cgc-bench-v1
// document.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "heap/ShardedFreeList.h"
#include "support/TablePrinter.h"
#include "support/Timing.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

using namespace cgc;
using namespace cgc::bench;

namespace {

constexpr size_t RegionBytes = 64u << 20;
constexpr size_t RefillMin = 4u << 10;
constexpr size_t RefillMax = 32u << 10;

/// One (shards, threads) cell: op-pairs per second.
double runCell(uint8_t *Region, unsigned Shards, unsigned Threads,
               uint64_t RunMillis) {
  ShardedFreeList List(Region, RegionBytes, Shards);
  List.addRange(Region, RegionBytes);

  std::atomic<bool> Start{false}, Stop{false};
  std::vector<uint64_t> Ops(Threads, 0);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      size_t Affine = T % List.numShards();
      while (!Start.load(std::memory_order_acquire))
        std::this_thread::yield();
      uint64_t Mine = 0;
      while (!Stop.load(std::memory_order_relaxed)) {
        size_t Granted = 0;
        uint8_t *P = List.allocateUpTo(RefillMin, RefillMax, Granted, Affine);
        if (P)
          List.addRange(P, Granted);
        ++Mine;
      }
      Ops[T] = Mine;
    });

  Stopwatch Timer;
  Start.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(RunMillis));
  Stop.store(true, std::memory_order_relaxed);
  for (auto &W : Workers)
    W.join();
  double Seconds = Timer.elapsedMillis() / 1000.0;

  uint64_t Total = 0;
  for (uint64_t N : Ops)
    Total += N;
  return static_cast<double>(Total) / Seconds;
}

/// --- GcHeap section: small-object churn --------------------------------

struct GcCellResult {
  double AllocsPerSec = 0;
  double CostPerAlloc = 0;    // costClock units (cycles on x86-64)
  double LockAcqPerAlloc = 0; // shard-lock acquisitions per allocation
  uint64_t Cycles = 0;        // completed GC cycles during the run
};

/// Small-object churn with a rolling rooted window: survivors pepper
/// the heap so each sweep reclaims many sub-bin-threshold runs — the
/// fragmented steady state.
GcCellResult runGcCell(unsigned Threads, uint64_t RunMillis) {
  GcOptions Opts;
  Opts.Kind = CollectorKind::StopTheWorld;
  Opts.HeapBytes = 32u << 20;
  Opts.FreeListShards = 8;
  Opts.BackgroundThreads = 0;
  auto Heap = GcHeap::create(Opts);

  const uint64_t LockBefore = Heap->core().Heap.freeList().lockAcquisitions();
  std::atomic<bool> Start{false}, Stop{false};
  std::vector<uint64_t> Allocs(Threads, 0), Cost(Threads, 0);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      constexpr size_t NumRoots = 512;
      MutatorContext &Ctx = Heap->attachThread();
      Ctx.reserveRoots(NumRoots);
      while (!Start.load(std::memory_order_acquire))
        std::this_thread::yield();
      uint64_t Mine = 0;
      uint64_t C0 = costClock();
      while (!Stop.load(std::memory_order_relaxed)) {
        // 24..920 total bytes: all served by the allocation cache.
        size_t Payload = 16 + (Mine % 16) * 56;
        Object *Obj = Heap->allocate(Ctx, Payload, 0);
        if (Obj && (Mine & 3) == 0) // Every 4th survives one window.
          Ctx.setRoot((Mine >> 2) % NumRoots, Obj);
        ++Mine;
      }
      Cost[T] = costClock() - C0;
      Allocs[T] = Mine;
      Heap->detachThread(Ctx);
    });

  Stopwatch Timer;
  Start.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(RunMillis));
  Stop.store(true, std::memory_order_relaxed);
  for (auto &W : Workers)
    W.join();
  double Seconds = Timer.elapsedMillis() / 1000.0;

  uint64_t TotalAllocs = 0, TotalCost = 0;
  for (unsigned T = 0; T < Threads; ++T) {
    TotalAllocs += Allocs[T];
    TotalCost += Cost[T];
  }
  const uint64_t LockAfter = Heap->core().Heap.freeList().lockAcquisitions();

  GcCellResult R;
  if (TotalAllocs) {
    R.AllocsPerSec = static_cast<double>(TotalAllocs) / Seconds;
    R.CostPerAlloc =
        static_cast<double>(TotalCost) / static_cast<double>(TotalAllocs);
    R.LockAcqPerAlloc = static_cast<double>(LockAfter - LockBefore) /
                        static_cast<double>(TotalAllocs);
  }
  R.Cycles = Heap->completedCycles();
  return R;
}

} // namespace

int main() {
  const uint64_t RunMillis = benchMillis(250);
  std::printf("== free-list contention: refill + sweep-insert ==\n");
  std::printf("region %zu MB, refill %zu..%zu KB, %llu ms per cell; "
              "host has %u hardware thread(s).\n",
              RegionBytes >> 20, RefillMin >> 10, RefillMax >> 10,
              static_cast<unsigned long long>(RunMillis),
              std::thread::hardware_concurrency());
  std::printf("host note: single-core hosts show the convoy-avoidance "
              "effect only; the parallel win needs real cores.\n\n");

  uint8_t *Region =
      static_cast<uint8_t *>(std::aligned_alloc(4096, RegionBytes));
  if (!Region) {
    std::fprintf(stderr, "region allocation failed\n");
    return 1;
  }

  BenchJsonWriter Json("freelist_contention");

  const unsigned ShardCounts[] = {1, 2, 4, 8};
  const unsigned ThreadCounts[] = {1, 2, 4, 8};

  // Baseline row (1 shard) first so speedups can be reported per cell.
  double Baseline[9] = {0};

  TablePrinter Table({"shards", "1 thr Mops", "2 thr Mops", "4 thr Mops",
                      "8 thr Mops", "8 thr speedup vs 1 shard"});
  for (unsigned Shards : ShardCounts) {
    std::vector<std::string> Row{std::to_string(Shards)};
    double EightThr = 0;
    for (unsigned Threads : ThreadCounts) {
      double OpsPerSec = runCell(Region, Shards, Threads, RunMillis);
      if (Shards == 1)
        Baseline[Threads] = OpsPerSec;
      if (Threads == 8)
        EightThr = OpsPerSec;
      Row.push_back(TablePrinter::num(OpsPerSec / 1e6, 2));
      Json.beginRow("raw,shards=" + std::to_string(Shards) +
                    ",threads=" + std::to_string(Threads));
      Json.addConfig("shards", Shards);
      Json.addConfig("threads", Threads);
      Json.addMetric("op_pairs_per_s", OpsPerSec, "per_s");
    }
    Row.push_back(Baseline[8] > 0
                      ? TablePrinter::num(EightThr / Baseline[8], 2) + "x"
                      : "-");
    Table.addRow(Row);
  }
  Table.print();
  std::free(Region);

  std::printf("\n== GcHeap small-object churn ==\n");
  const unsigned HwThreads = std::thread::hardware_concurrency();
  const unsigned GcThreads = HwThreads >= 4 ? 4 : (HwThreads ? HwThreads : 1);
  TablePrinter GcTable({"threads", "allocs/s", "cost/alloc",
                        "shard-lock acq/alloc", "gc cycles"});
  GcCellResult R = runGcCell(GcThreads, RunMillis * 4);
  GcTable.addRow({std::to_string(GcThreads),
                  TablePrinter::num(R.AllocsPerSec / 1e6, 2) + "M",
                  TablePrinter::num(R.CostPerAlloc, 1),
                  TablePrinter::num(R.LockAcqPerAlloc, 5),
                  TablePrinter::num(static_cast<double>(R.Cycles), 0)});
  Json.beginRow("gcheap");
  Json.addConfig("threads", GcThreads);
  Json.addConfig("heap_mb", 32);
  Json.addMetric("allocs_per_s", R.AllocsPerSec, "per_s");
  Json.addMetric("cycles_per_alloc", R.CostPerAlloc, costClockUnit());
  Json.addMetric("shard_lock_acquisitions_per_alloc", R.LockAcqPerAlloc,
                 "count");
  Json.addMetric("gc_cycles", static_cast<double>(R.Cycles), "count");
  GcTable.print();

  emitBenchJson(Json);
  return 0;
}
