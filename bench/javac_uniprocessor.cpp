//===- javac_uniprocessor.cpp - the paper's javac experiment ----------------------//
///
/// Section 6.1's uniprocessor experiment: javac (single-threaded, 25 MB
/// heap, ~70% occupancy) with a single background collector thread.
/// The paper: CGC max/avg pause 41/34 ms vs STW 167/138 ms, with a 12%
/// throughput reduction. This reproduction runs the toy-compiler
/// workload — a real expression compiler allocating its token lists,
/// ASTs and code objects on the GC heap. (On a single-core host this is
/// the paper's native configuration; on a multi-core host the background
/// thread gets a CPU of its own.)
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

using namespace cgc;
using namespace cgc::bench;

int main() {
  banner("javac-like uniprocessor run",
         "Section 6.1 text: javac, 25 MB heap, 70% occupancy, one "
         "background collector thread");

  constexpr size_t HeapBytes = 25u << 20;
  constexpr uint64_t Millis = 8000;

  CompilerConfig Config;
  Config.Threads = 1;
  Config.DurationMs = Millis;
  // Retained units sized to roughly 70% occupancy.
  Config.RetainedUnits = 180000;
  Config.FunctionsPerUnit = 12;

  GcOptions Stw;
  Stw.Kind = CollectorKind::StopTheWorld;
  Stw.HeapBytes = HeapBytes;
  Stw.GcWorkerThreads = 0; // Uniprocessor.
  RunOutcome StwRun = runCompiler(Stw, Config);

  GcOptions Cgc = Stw;
  Cgc.Kind = CollectorKind::MostlyConcurrent;
  Cgc.BackgroundThreads = 1; // The paper's single background thread.
  RunOutcome CgcRun = runCompiler(Cgc, Config);

  TablePrinter Table({"collector", "max pause ms", "avg pause ms",
                      "units/s", "GCs"});
  Table.addRow({"STW", TablePrinter::num(StwRun.Agg.MaxPauseMs, 1),
                TablePrinter::num(StwRun.Agg.AvgPauseMs, 1),
                TablePrinter::num(StwRun.Workload.throughput(), 0),
                TablePrinter::num(static_cast<uint64_t>(
                    StwRun.Agg.NumCycles))});
  Table.addRow({"CGC", TablePrinter::num(CgcRun.Agg.MaxPauseMs, 1),
                TablePrinter::num(CgcRun.Agg.AvgPauseMs, 1),
                TablePrinter::num(CgcRun.Workload.throughput(), 0),
                TablePrinter::num(static_cast<uint64_t>(
                    CgcRun.Agg.NumCycles))});
  Table.print();

  if (StwRun.Agg.NumCycles && CgcRun.Agg.NumCycles)
    std::printf("\npause reduction: max %.0f%%, avg %.0f%%; throughput "
                "cost %.0f%% (paper: 41/34 ms vs 167/138 ms, -12%% "
                "throughput)\n",
                100.0 * (1 - CgcRun.Agg.MaxPauseMs / StwRun.Agg.MaxPauseMs),
                100.0 * (1 - CgcRun.Agg.AvgPauseMs / StwRun.Agg.AvgPauseMs),
                100.0 * (1 - CgcRun.Workload.throughput() /
                                 StwRun.Workload.throughput()));
  if (StwRun.Workload.IntegrityFailure || CgcRun.Workload.IntegrityFailure) {
    std::printf("INTEGRITY FAILURE: compiled code disagreed with the "
                "oracle\n");
    return 1;
  }
  return 0;
}
