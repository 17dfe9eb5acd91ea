//===- lazy_sweep_test.cpp - lazy sweep option end-to-end ----------------------//

#include "gc/Sweeper.h"
#include "runtime/GcHeap.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

using namespace cgc;

namespace {

GcOptions lazyOptions(CollectorKind Kind) {
  GcOptions Opts;
  Opts.Kind = Kind;
  Opts.HeapBytes = 8u << 20;
  Opts.LazySweep = true;
  Opts.GcWorkerThreads = 2;
  Opts.BackgroundThreads = 1;
  Opts.NumWorkPackets = 64;
  return Opts;
}

class LazySweepTest : public ::testing::TestWithParam<CollectorKind> {};

TEST_P(LazySweepTest, AllocationDrivesTheSweep) {
  auto Heap = GcHeap::create(lazyOptions(GetParam()));
  MutatorContext &Ctx = Heap->attachThread();
  Ctx.reserveRoots(16);
  // Retain a few objects, churn a lot; lazy sweeping must keep
  // allocation alive across many cycles.
  for (int I = 0; I < 16; ++I)
    Ctx.setRoot(I, Heap->allocate(Ctx, 2000, 0, 5));
  size_t Total = 0;
  while (Total < 48u << 20) {
    Object *G = Heap->allocate(Ctx, 700, 1, 0);
    ASSERT_NE(G, nullptr) << "lazy sweep failed to feed the allocator";
    Total += G->sizeBytes();
  }
  EXPECT_GE(Heap->completedCycles(), 2u);
  for (int I = 0; I < 16; ++I) {
    ASSERT_NE(Ctx.getRoot(I), nullptr);
    EXPECT_EQ(Ctx.getRoot(I)->classId(), 5u);
  }
  Heap->detachThread(Ctx);
}

TEST_P(LazySweepTest, SweepPhaseLeavesThePause) {
  auto Heap = GcHeap::create(lazyOptions(GetParam()));
  MutatorContext &Ctx = Heap->attachThread();
  Ctx.reserveRoots(64);
  for (int I = 0; I < 64; ++I)
    Ctx.setRoot(I, Heap->allocate(Ctx, 4000, 0, 0));
  size_t Total = 0;
  while (Total < 32u << 20) {
    Object *G = Heap->allocate(Ctx, 512, 0, 0);
    ASSERT_NE(G, nullptr);
    Total += G->sizeBytes();
  }
  auto Records = Heap->stats().snapshot();
  ASSERT_GE(Records.size(), 1u);
  for (const auto &R : Records) {
    // Arming lazy sweep is (nearly) instantaneous compared with an
    // eager parallel sweep of an 8 MB heap.
    EXPECT_LT(R.SweepMs, R.PauseMs + 0.001);
  }
  Heap->detachThread(Ctx);
}

TEST_P(LazySweepTest, BackToBackCyclesFinishTheSweepFirst) {
  auto Heap = GcHeap::create(lazyOptions(GetParam()));
  MutatorContext &Ctx = Heap->attachThread();
  Ctx.reserveRoots(1);
  Object *Keep = Heap->allocate(Ctx, 128, 0, 3);
  Ctx.setRoot(0, Keep);
  // Two immediate forced collections: the second must complete the
  // first's lazy sweep before reusing the mark bits.
  Heap->requestGC(&Ctx);
  Heap->requestGC(&Ctx);
  ASSERT_EQ(Ctx.getRoot(0), Keep);
  EXPECT_EQ(Keep->classId(), 3u);
  VerifyResult V = Heap->verifyNow(&Ctx);
  EXPECT_TRUE(V.Ok) << V.Error;
  Heap->detachThread(Ctx);
}

TEST(LazySweepBackgroundTest, BackgroundThreadsSweepWhileMutatorIdles) {
  GcOptions Opts = lazyOptions(CollectorKind::MostlyConcurrent);
  Opts.BackgroundThreads = 2;
  auto Heap = GcHeap::create(Opts);
  MutatorContext &Ctx = Heap->attachThread();
  Ctx.reserveRoots(1);
  // Create garbage and force a cycle: the sweep is armed lazily.
  for (int I = 0; I < 2000; ++I)
    Heap->allocate(Ctx, 512, 0, 0);
  Heap->requestGC(&Ctx);
  ASSERT_TRUE(Heap->core().Sweep.lazySweepPending());
  // The mutator goes idle; only background threads can finish the sweep
  // (Section 7: sweeping spread between mutators and background threads).
  Heap->enterIdle(Ctx);
  for (int I = 0; I < 2000 && Heap->core().Sweep.lazySweepPending(); ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  Heap->exitIdle(Ctx);
  EXPECT_FALSE(Heap->core().Sweep.lazySweepPending())
      << "background threads never finished the lazy sweep";
  EXPECT_GT(Heap->freeBytes(), 0u);
  Heap->detachThread(Ctx);
}

/// A mutator allocates from an already-swept chunk's ranges and from
/// the compactor's published exclusion-window range while another thread
/// lazily sweeps the chunks around them, including the two whose words
/// the window's unaligned ends cut. The sweep's word-wise allocation-bit
/// clear must not lose one of the mutator's bits.
TEST(LazySweepConcurrencyTest, MutatorAllocationBitsSurviveChunkSweeps) {
  constexpr size_t Chunk = Sweeper::ChunkBytes;
  HeapSpace Heap(6 * Chunk, /*FreeListShards=*/2);
  uint8_t *Base = Heap.base();
  // Window ends cut bitmap words: 27 and 45 granules into their words.
  uint8_t *XLo = Base + 2 * Chunk + Chunk / 2 + 27 * GranuleBytes;
  uint8_t *XHi = Base + 3 * Chunk + (40 * 64 + 45) * GranuleBytes;
  // Dead and live objects everywhere outside the window.
  Random Rng(0x1a2e);
  for (size_t Offset = 0;;) {
    Offset += GranuleBytes * Rng.nextBelow(16);
    size_t Bytes = GranuleBytes * Rng.nextInRange(2, 32);
    if (Offset + Bytes > Heap.sizeBytes())
      break;
    uint8_t *At = Base + Offset;
    if (At + Bytes > XLo && At < XHi) {
      Offset = static_cast<size_t>(XHi - Base);
      continue;
    }
    reinterpret_cast<Object *>(At)->initialize(static_cast<uint32_t>(Bytes),
                                               0, 0);
    Heap.allocBits().set(At);
    if (Rng.nextBool(0.5))
      Heap.markBits().set(At);
    Offset += Bytes;
  }

  Sweeper Sweep(Heap);
  Sweep.setEvacuationExclusion(XLo, XHi);
  Sweep.armLazySweep();
  ASSERT_GT(Sweep.sweepUntilFree(1), 0u); // Claims chunk 0 only.
  ASSERT_FALSE(Sweep.sweepPendingAt(Base));
  ASSERT_TRUE(Sweep.sweepPendingAt(Base + Chunk));
  // The mutator takes chunk 0's ranges and the window (as the
  // compactor's rebuild would publish it) as its own allocation ranges.
  std::vector<FreeRange> Ranges = Heap.freeList().snapshotRanges();
  Heap.freeList().clear();
  Ranges.emplace_back(XLo, static_cast<size_t>(XHi - XLo));

  std::vector<uint8_t *> Allocated;
  auto allocateIn = [&](uint8_t *From, uint8_t *To) {
    for (uint8_t *P = From; P + 16 <= To; P += 16) {
      reinterpret_cast<Object *>(P)->initialize(16, 0, 0);
      Heap.allocBits().setRelease(P);
      Allocated.push_back(P);
    }
  };
  // The window's two cut words first, half of each, before the sweep
  // reaches them: a clear of the whole word would drop these for sure.
  uint8_t *LoWordEnd = XLo + (64 - 27) * GranuleBytes;
  uint8_t *HiWordStart = XHi - 45 * GranuleBytes;
  allocateIn(XLo, XLo + 16 * GranuleBytes);
  allocateIn(HiWordStart, HiWordStart + 22 * GranuleBytes);

  std::thread Sweeping([&] {
    while (Sweep.lazySweepPending())
      Sweep.sweepUntilFree(64u << 10);
  });
  // The rest of each cut word, then everything else, while the other
  // thread sweeps.
  allocateIn(XLo + 16 * GranuleBytes, LoWordEnd);
  allocateIn(HiWordStart + 22 * GranuleBytes, XHi);
  allocateIn(LoWordEnd, HiWordStart);
  for (size_t I = 0; I + 1 < Ranges.size(); ++I)
    allocateIn(Ranges[I].first, Ranges[I].first + Ranges[I].second);
  Sweeping.join();
  Sweep.finishLazySweep();

  size_t Lost = 0;
  for (uint8_t *P : Allocated)
    Lost += !Heap.allocBits().test(P);
  EXPECT_EQ(Lost, 0u) << "of " << Allocated.size() << " allocation bits";
  // The window holds the mutator's bits and nothing else.
  size_t InWindow = 0;
  for (uint8_t *P : Allocated)
    InWindow += P >= XLo && P < XHi;
  EXPECT_EQ(Heap.allocBits().countInRange(XLo, XHi), InWindow);
}

INSTANTIATE_TEST_SUITE_P(BothCollectors, LazySweepTest,
                         ::testing::Values(CollectorKind::StopTheWorld,
                                           CollectorKind::MostlyConcurrent),
                         [](const auto &Info) {
                           return Info.param == CollectorKind::StopTheWorld
                                      ? "Stw"
                                      : "Concurrent";
                         });

} // namespace
