//===- Compiler.h - javac-like toy compiler workload ------------*- C++ -*-===//
///
/// \file
/// A single-threaded (by default) compiler workload standing in for
/// javac (Section 6.1's uniprocessor experiment): a real, if small,
/// expression-language compiler whose intermediate structures live on
/// the GC heap.
///
/// Each "compilation unit" generates random source text for a handful of
/// functions, lexes and recursive-descent parses it into a GC-allocated
/// AST (one heap object per node), folds constants, and emits a
/// stack-machine code object with a GC-allocated constant pool. The last
/// few compiled units are retained (like javac's symbol tables), so the
/// heap carries both a churning young population (tokens, ASTs) and a
/// steadier old one (code objects) — the occupancy shape the paper's 25
/// MB / 70% javac configuration exercises.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_WORKLOADS_COMPILER_H
#define CGC_WORKLOADS_COMPILER_H

#include "workloads/WorkloadResult.h"

#include <cstddef>
#include <cstdint>
#include <string>

namespace cgc {

class GcHeap;
class MutatorContext;

/// Configuration of the compiler workload.
struct CompilerConfig {
  /// Compiler threads (1 = the paper's javac setup).
  unsigned Threads = 1;
  /// Run length (wall clock).
  uint64_t DurationMs = 2000;
  /// Maximum expression nesting depth of generated functions.
  unsigned MaxExprDepth = 7;
  /// Functions per compilation unit.
  unsigned FunctionsPerUnit = 12;
  /// Compiled units retained per thread (the long-lived set).
  size_t RetainedUnits = 32;
  /// PRNG seed.
  uint64_t Seed = 0xc0de;
};

/// Runs compile transactions on a GcHeap.
class CompilerWorkload {
public:
  CompilerWorkload(GcHeap &Heap, const CompilerConfig &Config)
      : Heap(Heap), Config(Config) {}

  /// Spawns the threads, compiles until the deadline, returns the
  /// aggregate result. Transactions = compilation units completed.
  /// Sets IntegrityFailure if any compiled program, when interpreted,
  /// disagrees with direct evaluation of its AST.
  WorkloadResult run();

private:
  void threadMain(unsigned Index, uint64_t DeadlineNs,
                  WorkloadResult &Result);

  GcHeap &Heap;
  CompilerConfig Config;
};

/// The result of compiling one expression with the workload's pipeline.
struct CompiledExpression {
  /// False on heap exhaustion (the other fields are then 0).
  bool Compiled = false;
  /// Direct evaluation of the folded AST (the workload's oracle).
  int64_t Evaluated = 0;
  /// The compiled stack-machine program's result.
  int64_t Interpreted = 0;
};

/// Lexes, parses, constant-folds and compiles \p Source on \p Ctx's
/// thread, then evaluates it both ways. The language: decimal literals up
/// to INT64_MAX, variables x0..x7 bound to \p Vars, binary + - *, unary
/// minus and parentheses. Arithmetic wraps in two's complement.
CompiledExpression compileExpression(GcHeap &Heap, MutatorContext &Ctx,
                                     const std::string &Source,
                                     const int64_t (&Vars)[8]);

} // namespace cgc

#endif // CGC_WORKLOADS_COMPILER_H
