//===- workload_test.cpp - workload end-to-end integrity -----------------------//

#include "workloads/BinaryTrees.h"
#include "workloads/Compiler.h"
#include "workloads/GraphChurn.h"
#include "workloads/KvServer.h"
#include "workloads/Warehouse.h"

#include "runtime/GcHeap.h"

#include <gtest/gtest.h>

using namespace cgc;

namespace {

GcOptions smallHeap(CollectorKind Kind) {
  GcOptions Opts;
  Opts.Kind = Kind;
  Opts.HeapBytes = 12u << 20;
  Opts.GcWorkerThreads = 2;
  Opts.BackgroundThreads = 1;
  Opts.NumWorkPackets = 128;
  Opts.VerifyEachCycle = true;
  return Opts;
}

class WorkloadOnBothCollectors
    : public ::testing::TestWithParam<CollectorKind> {};

TEST_P(WorkloadOnBothCollectors, WarehouseRunsAndCollects) {
  auto Heap = GcHeap::create(smallHeap(GetParam()));
  WarehouseConfig Config;
  Config.Threads = 3;
  Config.DurationMs = 800;
  Config.sizeLiveSet(6u << 20); // ~50% occupancy.
  WarehouseWorkload Workload(*Heap, Config);
  WorkloadResult Result = Workload.run();
  EXPECT_GT(Result.Transactions, 100u);
  EXPECT_GT(Result.BytesAllocated, Heap->options().HeapBytes)
      << "workload must outlive one heap's worth of allocation";
  EXPECT_GE(Heap->completedCycles(), 1u);
  EXPECT_FALSE(Result.IntegrityFailure);
}

TEST_P(WorkloadOnBothCollectors, WarehouseWithThinkTime) {
  auto Heap = GcHeap::create(smallHeap(GetParam()));
  WarehouseConfig Config;
  Config.Threads = 4;
  Config.DurationMs = 500;
  Config.ThinkMicros = 200; // pBOB-style idle time.
  Config.sizeLiveSet(4u << 20);
  WarehouseWorkload Workload(*Heap, Config);
  WorkloadResult Result = Workload.run();
  EXPECT_GT(Result.Transactions, 10u);
}

TEST_P(WorkloadOnBothCollectors, CompilerProducesCorrectCode) {
  auto Heap = GcHeap::create(smallHeap(GetParam()));
  CompilerConfig Config;
  Config.Threads = 1;
  Config.DurationMs = 800;
  CompilerWorkload Workload(*Heap, Config);
  WorkloadResult Result = Workload.run();
  EXPECT_GT(Result.Transactions, 5u);
  EXPECT_FALSE(Result.IntegrityFailure)
      << "compiled code disagreed with the AST oracle";
}

TEST(CompilerArithmeticTest, OverflowWrapsInFoldEvalAndInterpreter) {
  // Constants whose product (or negation) overflows int64: folding, the
  // AST oracle and the interpreter must all wrap in two's complement,
  // without signed-overflow UB (checked by the UBSan build).
  GcOptions Opts;
  Opts.HeapBytes = 4u << 20;
  auto Heap = GcHeap::create(Opts);
  MutatorContext &Ctx = Heap->attachThread();
  auto wrapMul = [](uint64_t A, uint64_t B) {
    return static_cast<int64_t>(A * B);
  };
  int64_t Vars[8] = {1, INT64_MIN, 0, 0, 0, 0, 0, 0};
  struct Case {
    const char *Source;
    int64_t Want;
  } Cases[] = {
      // Folded at compile time.
      {"3037000500*3037000500", wrapMul(3037000500u, 3037000500u)},
      {"-(0-9223372036854775807-1)", INT64_MIN},
      {"9223372036854775807+1", INT64_MIN},
      // Evaluated at run time (x0 = 1 keeps the AST unfolded).
      {"x0*3037000500*3037000500", wrapMul(3037000500u, 3037000500u)},
      {"-x1", INT64_MIN},
      {"x1-x0", INT64_MAX},
      {"x0*4611686018427387904*4", 0},
  };
  for (const Case &C : Cases) {
    CompiledExpression R = compileExpression(*Heap, Ctx, C.Source, Vars);
    ASSERT_TRUE(R.Compiled) << C.Source;
    EXPECT_EQ(R.Evaluated, C.Want) << C.Source;
    EXPECT_EQ(R.Interpreted, C.Want) << C.Source;
  }
  Heap->detachThread(Ctx);
}

TEST_P(WorkloadOnBothCollectors, BinaryTreesChecksumsStable) {
  auto Heap = GcHeap::create(smallHeap(GetParam()));
  BinaryTreesConfig Config;
  Config.Threads = 2;
  Config.DurationMs = 800;
  Config.LongLivedDepth = 12;
  BinaryTreesWorkload Workload(*Heap, Config);
  WorkloadResult Result = Workload.run();
  EXPECT_GT(Result.Transactions, 10u);
  EXPECT_FALSE(Result.IntegrityFailure)
      << "a tree checksum changed under collection";
  EXPECT_GE(Heap->completedCycles(), 1u);
}

TEST_P(WorkloadOnBothCollectors, BinaryTreesUnderCompaction) {
  GcOptions Opts = smallHeap(GetParam());
  Opts.CompactEveryNCycles = 1;
  Opts.EvacuationAreaBytes = 1u << 20;
  auto Heap = GcHeap::create(Opts);
  BinaryTreesConfig Config;
  Config.Threads = 2;
  Config.DurationMs = 800;
  Config.LongLivedDepth = 12;
  BinaryTreesWorkload Workload(*Heap, Config);
  WorkloadResult Result = Workload.run();
  EXPECT_FALSE(Result.IntegrityFailure)
      << "compaction broke a tree (moved node or stale reference)";
  uint64_t Evacuated = 0;
  for (const CycleRecord &R : Heap->stats().snapshot())
    Evacuated += R.EvacuatedObjects;
  EXPECT_GT(Evacuated, 0u);
}

TEST_P(WorkloadOnBothCollectors, GraphChurnStaysConsistent) {
  auto Heap = GcHeap::create(smallHeap(GetParam()));
  GraphChurnConfig Config;
  Config.Threads = 3;
  Config.DurationMs = 800;
  GraphChurnWorkload Workload(*Heap, Config);
  WorkloadResult Result = Workload.run();
  EXPECT_GT(Result.Transactions, 1000u);
  EXPECT_FALSE(Result.IntegrityFailure)
      << "an edge nonce mismatched: live object was reclaimed";
}

TEST_P(WorkloadOnBothCollectors, KvServerServesWithIntegrity) {
  auto Heap = GcHeap::create(smallHeap(GetParam()));
  KvWorkloadConfig Config;
  Config.Threads = 3;
  Config.DurationMs = 800;
  KvWorkload Workload(*Heap, Config);
  WorkloadResult Result = Workload.run();
  EXPECT_GT(Result.Transactions, 1000u);
  EXPECT_FALSE(Result.IntegrityFailure)
      << "a KV value stamp mismatched: live object reclaimed or corrupted";
  EXPECT_GE(Heap->completedCycles(), 1u);
}

INSTANTIATE_TEST_SUITE_P(BothCollectors, WorkloadOnBothCollectors,
                         ::testing::Values(CollectorKind::StopTheWorld,
                                           CollectorKind::MostlyConcurrent),
                         [](const auto &Info) {
                           return Info.param == CollectorKind::StopTheWorld
                                      ? "Stw"
                                      : "Concurrent";
                         });

TEST(WorkloadConfigTest, WarehouseLiveSetSizing) {
  WarehouseConfig Config;
  Config.Threads = 4;
  Config.sizeLiveSet(8u << 20);
  size_t Estimate = Config.estimatedLiveBytes();
  EXPECT_GT(Estimate, 6u << 20);
  EXPECT_LT(Estimate, 9u << 20);
  // Tiny targets clamp to the minimum ring.
  Config.sizeLiveSet(0);
  EXPECT_EQ(Config.LiveTreesPerThread, 4u);
}

TEST(WorkloadConfigTest, ThroughputMath) {
  WorkloadResult R;
  R.Transactions = 500;
  R.DurationMs = 250;
  EXPECT_DOUBLE_EQ(R.throughput(), 2000.0);
  WorkloadResult Zero;
  EXPECT_DOUBLE_EQ(Zero.throughput(), 0.0);
}

} // namespace
