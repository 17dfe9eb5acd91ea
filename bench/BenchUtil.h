//===- BenchUtil.h - shared harness helpers ---------------------*- C++ -*-===//
///
/// \file
/// Helpers shared by the table/figure reproduction harnesses: run a
/// workload on a configured heap and collect the workload result, the
/// per-cycle records and their aggregates.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_BENCH_BENCHUTIL_H
#define CGC_BENCH_BENCHUTIL_H

#include "observe/BenchJsonWriter.h"
#include "observe/ChromeTraceExporter.h"
#include "runtime/GcHeap.h"
#include "support/EnvKnob.h"
#include "support/TablePrinter.h"
#include "workloads/Compiler.h"
#include "workloads/Warehouse.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace cgc::bench {

/// Pause quantiles from the observer's TotalPause histogram (all ms).
struct PauseQuantiles {
  double P50Ms = 0;
  double P95Ms = 0;
  double P99Ms = 0;
  double MaxMs = 0;
  uint64_t Samples = 0;
};

/// Quantiles of one cooperation-latency histogram (StwEntry /
/// FenceHandshake), all ms.
struct CooperationQuantiles {
  double P50Ms = 0;
  double P99Ms = 0;
  double MaxMs = 0;
  uint64_t Samples = 0;
};

/// Everything a table row needs from one run.
struct RunOutcome {
  WorkloadResult Workload;
  std::vector<CycleRecord> Cycles;
  GcAggregates Agg;
  PacketPoolStats Pool;
  size_t HeapBytes = 0;
  /// From the observability layer (runs always enable GcOptions::Observe;
  /// zeros when the tree is built with CGC_OBSERVE=OFF).
  PauseQuantiles Pauses;
  /// Cooperation-protocol health: stop-the-world entry latency and
  /// fence-handshake completion latency distributions (DESIGN.md §13),
  /// plus the stall counters. A mutator drifting away from its polls
  /// regresses these long before a grace-period timeout fires.
  CooperationQuantiles StwEntry;
  CooperationQuantiles FenceHandshake;
  uint64_t StwStallWarnings = 0;
  uint64_t FenceTimeouts = 0;
  /// Mean achieved tracing rate over concurrent cycles (Table 1's K).
  double KActualAvg = 0;
  /// Mean estimated floating garbage as a fraction of the heap.
  double FloatingGarbageFrac = 0;
  /// Events overwritten before export (ring too small for the run).
  uint64_t DroppedEvents = 0;
};

/// Chrome-trace dump directory (env CGC_BENCH_TRACE_DIR), empty = off.
inline const char *traceDir() {
  const char *Dir = std::getenv("CGC_BENCH_TRACE_DIR");
  return Dir && *Dir ? Dir : nullptr;
}

namespace detail {

inline CooperationQuantiles
cooperationQuantiles(const GcObserver &Obs, PauseMetric Metric) {
  const PauseHistogram &H = Obs.metrics().histogram(Metric);
  CooperationQuantiles Q;
  Q.Samples = H.count();
  Q.P50Ms = static_cast<double>(H.quantile(0.50)) / 1e6;
  Q.P99Ms = static_cast<double>(H.quantile(0.99)) / 1e6;
  Q.MaxMs = static_cast<double>(H.max()) / 1e6;
  return Q;
}

inline void harvestObservability(GcHeap &Heap, RunOutcome &Out) {
  GcObserver &Obs = Heap.core().Obs;
  const PauseHistogram &H =
      Obs.metrics().histogram(PauseMetric::TotalPause);
  Out.Pauses.Samples = H.count();
  Out.Pauses.P50Ms = static_cast<double>(H.quantile(0.50)) / 1e6;
  Out.Pauses.P95Ms = static_cast<double>(H.quantile(0.95)) / 1e6;
  Out.Pauses.P99Ms = static_cast<double>(H.quantile(0.99)) / 1e6;
  Out.Pauses.MaxMs = static_cast<double>(H.max()) / 1e6;

  Out.StwEntry = cooperationQuantiles(Obs, PauseMetric::StwEntry);
  Out.FenceHandshake = cooperationQuantiles(Obs, PauseMetric::FenceHandshake);
  Out.StwStallWarnings = Heap.core().Registry.stwStallWarnings();
  Out.FenceTimeouts = Heap.core().Registry.fenceTimeouts();

  std::vector<CycleGauges> Gauges = Obs.metrics().cycleGauges();
  uint64_t NumConcurrent = 0;
  for (const CycleGauges &G : Gauges) {
    if (G.Concurrent) {
      Out.KActualAvg += G.KActual;
      ++NumConcurrent;
    }
    if (G.HeapBytes)
      Out.FloatingGarbageFrac += static_cast<double>(G.FloatingGarbageBytes) /
                                 static_cast<double>(G.HeapBytes);
  }
  if (NumConcurrent)
    Out.KActualAvg /= static_cast<double>(NumConcurrent);
  if (!Gauges.empty())
    Out.FloatingGarbageFrac /= static_cast<double>(Gauges.size());

  if (const char *Dir = traceDir()) {
    static unsigned RunSeq = 0; // Benches are single-threaded mains.
    std::vector<EventRecord> Events = Obs.drainAll();
    std::string Path =
        std::string(Dir) + "/trace_run" + std::to_string(RunSeq++) + ".json";
    if (ChromeTraceExporter::writeFile(Path, Events))
      std::fprintf(stderr, "chrome trace: %s (%zu events)\n", Path.c_str(),
                   Events.size());
  }
  Out.DroppedEvents = Obs.droppedEvents();
}

} // namespace detail

/// Runs the warehouse workload on a fresh heap with \p Options
/// (observability is always enabled so pause quantiles are collected).
inline RunOutcome runWarehouse(const GcOptions &Options,
                               const WarehouseConfig &Config) {
  GcOptions Opts = Options;
  Opts.Observe = true;
  auto Heap = GcHeap::create(Opts);
  WarehouseWorkload Workload(*Heap, Config);
  RunOutcome Out;
  Out.Workload = Workload.run();
  Out.Cycles = Heap->stats().snapshot();
  Out.Agg = GcAggregates::compute(Out.Cycles);
  Out.Pool = Heap->core().Pool.stats();
  Out.HeapBytes = Heap->core().Heap.sizeBytes();
  detail::harvestObservability(*Heap, Out);
  return Out;
}

/// Runs the compiler workload on a fresh heap with \p Options.
inline RunOutcome runCompiler(const GcOptions &Options,
                              const CompilerConfig &Config) {
  GcOptions Opts = Options;
  Opts.Observe = true;
  auto Heap = GcHeap::create(Opts);
  CompilerWorkload Workload(*Heap, Config);
  RunOutcome Out;
  Out.Workload = Workload.run();
  Out.Cycles = Heap->stats().snapshot();
  Out.Agg = GcAggregates::compute(Out.Cycles);
  Out.Pool = Heap->core().Pool.stats();
  Out.HeapBytes = Heap->core().Heap.sizeBytes();
  detail::harvestObservability(*Heap, Out);
  return Out;
}

/// Per-thread cost clock for per-operation cost metrics: raw TSC where
/// available (cycles), a monotonic-nanosecond stand-in elsewhere. Pair
/// with costClockUnit() when reporting.
inline uint64_t costClock() {
#if defined(__x86_64__)
  unsigned Lo, Hi;
  __asm__ __volatile__("rdtsc" : "=a"(Lo), "=d"(Hi));
  return (static_cast<uint64_t>(Hi) << 32) | Lo;
#else
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

inline const char *costClockUnit() {
#if defined(__x86_64__)
  return "cycles";
#else
  return "ns";
#endif
}

/// Workload duration override: env CGC_BENCH_MILLIS (for quick CI runs)
/// or \p Default. Malformed or zero values are a hard error (EnvKnob) —
/// a mistyped duration must not silently run the full-length sweep.
inline uint64_t benchMillis(uint64_t Default) {
  uint64_t Millis = envKnobU64("CGC_BENCH_MILLIS", Default);
  if (Millis == 0) {
    std::fprintf(stderr,
                 "error: invalid CGC_BENCH_MILLIS=0: duration must be > 0\n");
    std::exit(2);
  }
  return Millis;
}

/// Series-length override: env CGC_BENCH_MAX_SERIES caps the number of
/// series points (warehouse counts, tracing rates, ...) a bench sweeps.
/// Malformed or zero values are a hard error; values above \p Default
/// leave the sweep unchanged (the knob only shortens).
inline unsigned benchMaxSeries(unsigned Default) {
  uint64_t Max = envKnobU64("CGC_BENCH_MAX_SERIES", Default);
  if (Max == 0) {
    std::fprintf(stderr, "error: invalid CGC_BENCH_MAX_SERIES=0: a sweep "
                         "needs at least one point\n");
    std::exit(2);
  }
  return Max < Default ? static_cast<unsigned>(Max) : Default;
}

/// Adds the standard observability metrics every bench row reports.
inline void addCommonMetrics(BenchJsonWriter &Json, const RunOutcome &Run) {
  Json.addMetric("pause_p50_ms", Run.Pauses.P50Ms, "ms");
  Json.addMetric("pause_p95_ms", Run.Pauses.P95Ms, "ms");
  Json.addMetric("pause_p99_ms", Run.Pauses.P99Ms, "ms");
  Json.addMetric("pause_max_ms", Run.Pauses.MaxMs, "ms");
  Json.addMetric("pause_avg_ms", Run.Agg.AvgPauseMs, "ms");
  Json.addMetric("mark_avg_ms", Run.Agg.AvgMarkMs, "ms");
  Json.addMetric("sweep_avg_ms", Run.Agg.AvgSweepMs, "ms");
  Json.addMetric("throughput_per_s", Run.Workload.throughput(), "per_s");
  Json.addMetric("gc_cycles_count",
                 static_cast<double>(Run.Agg.NumCycles), "count");
  Json.addMetric("k_actual_ratio", Run.KActualAvg, "ratio");
  Json.addMetric("floating_garbage_ratio", Run.FloatingGarbageFrac, "ratio");
  Json.addMetric("dropped_events_count",
                 static_cast<double>(Run.DroppedEvents), "count");
  Json.addMetric("stw_entry_p50_ms", Run.StwEntry.P50Ms, "ms");
  Json.addMetric("stw_entry_p99_ms", Run.StwEntry.P99Ms, "ms");
  Json.addMetric("stw_entry_max_ms", Run.StwEntry.MaxMs, "ms");
  Json.addMetric("fence_handshake_p50_ms", Run.FenceHandshake.P50Ms, "ms");
  Json.addMetric("fence_handshake_p99_ms", Run.FenceHandshake.P99Ms, "ms");
  Json.addMetric("fence_handshake_max_ms", Run.FenceHandshake.MaxMs, "ms");
  Json.addMetric("fence_handshake_count",
                 static_cast<double>(Run.FenceHandshake.Samples), "count");
  Json.addMetric("stw_stall_warnings_count",
                 static_cast<double>(Run.StwStallWarnings), "count");
  Json.addMetric("fence_timeouts_count",
                 static_cast<double>(Run.FenceTimeouts), "count");
}

/// Writes `BENCH_<name>.json` into CGC_BENCH_OUT_DIR (default ".") and
/// reports the result on stdout.
inline void emitBenchJson(const BenchJsonWriter &Json) {
  const char *Dir = std::getenv("CGC_BENCH_OUT_DIR");
  std::string Path = Json.writeFile(Dir && *Dir ? Dir : ".");
  if (Path.empty())
    std::fprintf(stderr, "bench json: WRITE FAILED\n");
  else
    std::printf("\nbench json: %s\n", Path.c_str());
}

/// Warehouse config sized for ~\p Occupancy of \p Options' heap.
inline WarehouseConfig warehouseFor(const GcOptions &Options,
                                    unsigned Threads, uint64_t Millis,
                                    double Occupancy = 0.6) {
  WarehouseConfig Config;
  Config.Threads = Threads;
  Config.DurationMs = Millis;
  Config.sizeLiveSet(
      static_cast<size_t>(Occupancy * static_cast<double>(Options.HeapBytes)));
  return Config;
}

/// Prints the standard bench banner.
inline void banner(const char *Title, const char *PaperRef) {
  std::printf("== %s ==\n", Title);
  std::printf("reproduces: %s\n", PaperRef);
  std::printf("host note: shared multi-core VM with variable CPU steal; "
              "shapes (who wins, ratios), not absolute ms, are the "
              "comparison.\n\n");
}

} // namespace cgc::bench

#endif // CGC_BENCH_BENCHUTIL_H
