//===- pacer_test.cpp - kickoff/progress formula units --------------------------//

#include "gc/Pacer.h"

#include <gtest/gtest.h>

using namespace cgc;

namespace {

GcOptions baseOptions() {
  GcOptions Opts;
  Opts.HeapBytes = 100 << 20;
  Opts.TracingRate = 8.0;   // K0
  Opts.KmaxFactor = 2.0;    // Kmax = 16
  Opts.CorrectiveC = 2.0;
  Opts.SmoothingAlpha = 0.5;
  Opts.SeedLFraction = 0.30;
  Opts.SeedMFraction = 0.02;
  return Opts;
}

TEST(PacerTest, KickoffThresholdFromSeeds) {
  GcOptions Opts = baseOptions();
  Pacer P(Opts, Opts.HeapBytes);
  double L = 0.30 * Opts.HeapBytes;
  double M = 0.02 * Opts.HeapBytes;
  EXPECT_EQ(P.kickoffThresholdBytes(),
            static_cast<size_t>((L + M) / 8.0));
}

TEST(PacerTest, KickoffHeadroomScalesThreshold) {
  GcOptions Opts = baseOptions();
  Pacer Base(Opts, Opts.HeapBytes);
  Opts.KickoffHeadroom = 2.0;
  Pacer Early(Opts, Opts.HeapBytes);
  // Headroom 2 starts the cycle at twice the free-memory threshold:
  // earlier kickoff buys request-latency headroom in the SLO benches.
  EXPECT_EQ(Early.kickoffThresholdBytes(), 2 * Base.kickoffThresholdBytes());
  size_t Between =
      Base.kickoffThresholdBytes() + (Base.kickoffThresholdBytes() / 2);
  EXPECT_FALSE(Base.shouldKickoff(Between));
  EXPECT_TRUE(Early.shouldKickoff(Between));
  // Zero/negative headroom is nonsense; the pacer normalizes it to 1.
  Opts.KickoffHeadroom = 0.0;
  Pacer Degenerate(Opts, Opts.HeapBytes);
  EXPECT_EQ(Degenerate.kickoffThresholdBytes(), Base.kickoffThresholdBytes());
}

TEST(PacerTest, ProgressFormulaBasic) {
  GcOptions Opts = baseOptions();
  Pacer P(Opts, Opts.HeapBytes);
  double L = P.estimateL(), M = P.estimateM();
  uint64_t Traced = 0;
  uint64_t Free = static_cast<uint64_t>((L + M) / 8.0); // At kickoff.
  // K = (M + L - T) / F = K0 at the kickoff point.
  EXPECT_NEAR(P.currentRate(Traced, Free), 8.0, 1e-6);
  // Halfway through tracing with the same free memory, K halves.
  EXPECT_NEAR(P.currentRate(static_cast<uint64_t>((L + M) / 2), Free), 4.0,
              1e-6);
  // All predicted work done: no more tracing required.
  EXPECT_DOUBLE_EQ(P.currentRate(static_cast<uint64_t>(L + M), Free), 0.0);
}

TEST(PacerTest, NegativeNumeratorClampsToKmax) {
  GcOptions Opts = baseOptions();
  Pacer P(Opts, Opts.HeapBytes);
  double L = P.estimateL(), M = P.estimateM();
  // Traced more than predicted: underestimation; K = Kmax.
  uint64_t Traced = static_cast<uint64_t>(L + M) + 1000;
  EXPECT_DOUBLE_EQ(P.currentRate(Traced, 1 << 20), 16.0);
}

TEST(PacerTest, CorrectiveTermWhenBehindSchedule) {
  GcOptions Opts = baseOptions();
  Pacer P(Opts, Opts.HeapBytes);
  double L = P.estimateL(), M = P.estimateM();
  // Free memory is half of what the kickoff point assumed: K = 2 K0 > K0,
  // so the corrective term applies: K + (K - K0) * C = 16 + 8*2 = 32,
  // clamped to Kmax = 16.
  uint64_t Free = static_cast<uint64_t>((L + M) / 16.0);
  EXPECT_DOUBLE_EQ(P.currentRate(0, Free), 16.0);
  // Mildly behind (K = 1.25 K0 = 10): 10 + 2*2 = 14, under Kmax.
  uint64_t Free2 = static_cast<uint64_t>((L + M) / 10.0);
  EXPECT_NEAR(P.currentRate(0, Free2), 14.0, 0.01);
}

TEST(PacerTest, BackgroundRateSubtracted) {
  GcOptions Opts = baseOptions();
  Pacer P(Opts, Opts.HeapBytes);
  // Feed a Best window: background traced 3 bytes per allocated byte.
  P.noteBackgroundTrace(3u << 20);
  P.noteAllocation(1u << 20); // Window (256 KB) closes during this call.
  EXPECT_NEAR(P.estimateBest(), 3.0, 1e-6);
  double L = P.estimateL(), M = P.estimateM();
  uint64_t Free = static_cast<uint64_t>((L + M) / 8.0);
  // Raw K = 8, minus Best 3 -> 5.
  EXPECT_NEAR(P.currentRate(0, Free), 5.0, 1e-6);
  // Background covering everything: zero mutator tracing.
  P.noteBackgroundTrace(40u << 20);
  P.noteAllocation(1u << 20);
  EXPECT_GT(P.estimateBest(), 8.0);
  EXPECT_DOUBLE_EQ(P.currentRate(0, Free), 0.0);
}

TEST(PacerTest, EndCycleFoldsSmoothedSamples) {
  GcOptions Opts = baseOptions();
  Pacer P(Opts, Opts.HeapBytes);
  P.endCycle(10 << 20, 1 << 20);
  // First sample replaces the seed.
  EXPECT_DOUBLE_EQ(P.estimateL(), static_cast<double>(10 << 20));
  EXPECT_DOUBLE_EQ(P.estimateM(), static_cast<double>(1 << 20));
  P.endCycle(20 << 20, 3 << 20);
  EXPECT_DOUBLE_EQ(P.estimateL(), static_cast<double>(15 << 20));
  EXPECT_DOUBLE_EQ(P.estimateM(), static_cast<double>(2 << 20));
  // Threshold tracks the new estimates.
  EXPECT_EQ(P.kickoffThresholdBytes(),
            static_cast<size_t>((15.0 + 2.0) * (1 << 20) / 8.0));
}

TEST(PacerTest, WorkForScalesWithAllocation) {
  GcOptions Opts = baseOptions();
  Pacer P(Opts, Opts.HeapBytes);
  double L = P.estimateL(), M = P.estimateM();
  uint64_t Free = static_cast<uint64_t>((L + M) / 8.0);
  EXPECT_EQ(P.workFor(1000, 0, Free), 8000u);
  EXPECT_EQ(P.workFor(0, 0, Free), 0u);
}

TEST(PacerTest, TracingRateOneStartsImmediately) {
  // At tracing rate 1 the threshold is L + M, which exceeds the free
  // space right after a collection on a 60%-occupied heap — the paper's
  // observation that TR1 starts the concurrent phase immediately.
  GcOptions Opts = baseOptions();
  Opts.TracingRate = 1.0;
  Pacer P(Opts, Opts.HeapBytes);
  P.endCycle(60 << 20, 2 << 20); // Live 60 MB of 100 MB heap.
  EXPECT_GE(P.kickoffThresholdBytes(), 40u << 20);
}

TEST(PacerTest, RateNeverNegative) {
  GcOptions Opts = baseOptions();
  Pacer P(Opts, Opts.HeapBytes);
  P.noteBackgroundTrace(100u << 20);
  P.noteAllocation(1u << 20);
  for (uint64_t Traced : {0ull, 1ull << 20, 100ull << 20})
    for (uint64_t Free : {1ull << 10, 1ull << 20, 50ull << 20})
      EXPECT_GE(P.currentRate(Traced, Free), 0.0);
}

//===----------------------------------------------------------------------===//
// Shard-stranding awareness: kickoff keys off refillable free bytes
//===----------------------------------------------------------------------===//

TEST(PacerTest, ShouldKickoffComparesAgainstThreshold) {
  GcOptions Opts = baseOptions();
  Pacer P(Opts, Opts.HeapBytes);
  size_t T = P.kickoffThresholdBytes();
  ASSERT_GT(T, 0u);
  EXPECT_FALSE(P.shouldKickoff(T + 1));
  EXPECT_TRUE(P.shouldKickoff(T));
  EXPECT_TRUE(P.shouldKickoff(0));
}

TEST(PacerTest, FragmentationKicksOffWhileRawFreeLooksHealthy) {
  // The regression the refillable counter exists for: a heap whose free
  // bytes sit in sub-refill fragments. Judged by raw free space the
  // pacer would wait; judged by refillable space it must start now,
  // because mutators cannot refill their caches from fragments and
  // would otherwise slam into allocation failure before tracing ends.
  GcOptions Opts = baseOptions();
  Pacer P(Opts, Opts.HeapBytes);
  size_t T = P.kickoffThresholdBytes();
  size_t RawFree = 2 * T + (1u << 20); // comfortably above threshold
  size_t Refillable = T / 2;           // but almost none of it usable
  EXPECT_FALSE(P.shouldKickoff(RawFree))
      << "sanity: raw free alone would not trigger";
  EXPECT_TRUE(P.shouldKickoff(Refillable))
      << "fragmented heap must trigger kickoff";
}

} // namespace
