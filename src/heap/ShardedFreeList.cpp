//===- ShardedFreeList.cpp - Address-partitioned free-space manager ----------//

#include "heap/ShardedFreeList.h"

#include <algorithm>
#include <cassert>
#include <thread>

using namespace cgc;

unsigned ShardedFreeList::resolveShardCount(unsigned Requested,
                                            size_t HeapBytes,
                                            size_t MinShardBytes) {
  if (Requested == 0) {
    unsigned Hw = std::thread::hardware_concurrency();
    Requested = Hw == 0 ? 1 : (Hw < 8 ? Hw : 8);
  }
  // Round down to a power of two (clears the lowest set bit until only
  // the highest remains).
  while (Requested & (Requested - 1))
    Requested &= Requested - 1;
  size_t Floor = MinShardBytes > 4096 ? MinShardBytes : 4096;
  while (Requested > 1 && HeapBytes / Requested < Floor)
    Requested >>= 1;
  return Requested;
}

ShardedFreeList::ShardedFreeList(uint8_t *Base, size_t SizeBytes,
                                 unsigned NumShards, FaultInjector *FI,
                                 size_t RefillThresholdBytes)
    : Base(Base), Size(SizeBytes), FI(FI) {
  NumShards = resolveShardCount(NumShards, SizeBytes, /*MinShardBytes=*/4096);
  // Page-aligned spans: shard boundaries never split a granule, and the
  // last shard absorbs the (page-rounded) remainder.
  ShardSpan = (Size + NumShards - 1) / NumShards;
  ShardSpan = (ShardSpan + 4095) & ~size_t{4095};
  Shards.reserve(NumShards);
  for (unsigned I = 0; I < NumShards; ++I)
    Shards.push_back(std::make_unique<FreeList>(RefillThresholdBytes));
}

size_t ShardedFreeList::addRanges(std::span<const FreeRange> Ranges) {
  // The batch is address ordered, so each shard's share is a contiguous
  // run of it; only a run's last range can cross into the next shard,
  // and it then also opens that shard's run. The shard clips every
  // range to its own span.
  size_t Added = 0;
  size_t I = 0;
  size_t Shard = Ranges.empty() ? 0 : shardIndexFor(Ranges[0].first);
  while (I < Ranges.size()) {
    uint8_t *End = shardEnd(Shard);
    size_t J = I + 1;
    while (J < Ranges.size() && Ranges[J].first < End) {
      assert(Ranges[J].first >= shardBegin(Shard) &&
             "batch not address ordered");
      ++J;
    }
    Added += Shards[Shard]->addRanges(Ranges.subspan(I, J - I),
                                      shardBegin(Shard), End);
    auto [LastStart, LastSize] = Ranges[J - 1];
    if (LastStart + LastSize > End && Shard + 1 < Shards.size()) {
      I = J - 1; // The straddler continues in the next shard.
      ++Shard;
      continue;
    }
    I = J;
    if (I < Ranges.size())
      Shard = shardIndexFor(Ranges[I].first);
  }
  return Added;
}

uint8_t *ShardedFreeList::allocate(size_t Bytes, size_t PreferredShard) {
  if (FI && FI->shouldFail(FaultSite::FreeListAllocate))
    return nullptr; // Simulated transient exhaustion; callers escalate.
  size_t N = Shards.size();
  for (size_t I = 0; I < N; ++I) {
    FreeList &S = *Shards[(PreferredShard + I) % N];
    // Relaxed pre-check: a shard whose total free count cannot cover the
    // request has no single range that can either. Racing inserts are
    // covered by the caller's collect-and-retry loop.
    if (S.freeBytes() < Bytes)
      continue;
    if (uint8_t *P = S.allocate(Bytes))
      return P;
  }
  return nullptr;
}

uint8_t *ShardedFreeList::allocateUpTo(size_t MinSize, size_t MaxSize,
                                       size_t &OutSize,
                                       size_t PreferredShard) {
  if (FI && FI->shouldFail(FaultSite::FreeListRefill))
    return nullptr; // Simulated transient exhaustion; callers escalate.
  size_t N = Shards.size();
  if (N == 1) // Exact legacy single-list behavior.
    return Shards[0]->allocateUpTo(MinSize, MaxSize, OutSize);
  // Pass 1: a full-size grant from any shard beats a partial grant from
  // the preferred one — otherwise affinity would shrink caches while
  // other shards still hold whole spans.
  for (size_t I = 0; I < N; ++I) {
    FreeList &S = *Shards[(PreferredShard + I) % N];
    if (S.freeBytes() < MaxSize)
      continue;
    if (uint8_t *P = S.allocateUpTo(MaxSize, MaxSize, OutSize))
      return P;
  }
  // Pass 2: partial grants, preferred shard first.
  for (size_t I = 0; I < N; ++I) {
    FreeList &S = *Shards[(PreferredShard + I) % N];
    if (S.freeBytes() < MinSize)
      continue;
    if (uint8_t *P = S.allocateUpTo(MinSize, MaxSize, OutSize))
      return P;
  }
  return nullptr;
}

size_t ShardedFreeList::freeBytes() const {
  size_t Sum = 0;
  for (const auto &S : Shards)
    Sum += S->freeBytes();
  return Sum;
}

size_t ShardedFreeList::refillableFreeBytes() const {
  size_t Sum = 0;
  for (const auto &S : Shards)
    Sum += S->refillableFreeBytes();
  return Sum;
}

uint64_t ShardedFreeList::lockAcquisitions() const {
  uint64_t Sum = 0;
  for (const auto &S : Shards)
    Sum += S->lockAcquisitions();
  return Sum;
}

size_t ShardedFreeList::largestRange() const {
  size_t Largest = 0;
  for (const auto &S : Shards)
    Largest = std::max(Largest, S->largestRange());
  return Largest;
}

size_t ShardedFreeList::numRanges() const {
  size_t Sum = 0;
  for (const auto &S : Shards)
    Sum += S->numRanges();
  return Sum;
}

void ShardedFreeList::clear() {
  for (const auto &S : Shards)
    S->clear();
}

size_t ShardedFreeList::withdrawWithin(uint8_t *Lo, uint8_t *Hi) {
  if (Lo < Base)
    Lo = Base;
  if (Hi > Base + Size)
    Hi = Base + Size;
  if (Lo >= Hi)
    return 0;
  // Per-shard ranges never extend outside their shard, so each shard
  // overlapping the window handles it (and re-adds straddling outside
  // parts) independently.
  size_t First = shardIndexFor(Lo);
  size_t Last = shardIndexFor(Hi - 1);
  size_t Withdrawn = 0;
  for (size_t I = First; I <= Last; ++I)
    Withdrawn += Shards[I]->withdrawWithin(Lo, Hi);
  return Withdrawn;
}

FreeRangeStats ShardedFreeList::statsWithin(uint8_t *Lo, uint8_t *Hi) const {
  FreeRangeStats Stats;
  if (Lo < Base)
    Lo = Base;
  if (Hi > Base + Size)
    Hi = Base + Size;
  if (Lo >= Hi)
    return Stats;
  size_t First = shardIndexFor(Lo);
  size_t Last = shardIndexFor(Hi - 1);
  for (size_t I = First; I <= Last; ++I)
    Stats.merge(Shards[I]->statsWithin(Lo, Hi));
  return Stats;
}

std::vector<std::pair<uint8_t *, size_t>>
ShardedFreeList::snapshotRanges() const {
  std::vector<std::pair<uint8_t *, size_t>> Result;
  for (const auto &S : Shards) {
    auto Part = S->snapshotRanges();
    Result.insert(Result.end(), Part.begin(), Part.end());
  }
  return Result;
}
