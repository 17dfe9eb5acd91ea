//===- FreeList.cpp - Segregated free-space manager ----------------------------//

#include "heap/FreeList.h"

#include <algorithm>
#include <cassert>

using namespace cgc;

void FreeList::insertLargeLocked(uint8_t *Start, size_t Size) {
  [[maybe_unused]] bool Inserted = Large.emplace(Start, Size).second;
  assert(Inserted && "duplicate large range");
  LargeBySize.emplace(Size, Start);
}

void FreeList::eraseLargeLocked(std::map<uint8_t *, size_t>::iterator It) {
  auto Range = LargeBySize.equal_range(It->second);
  for (auto SizeIt = Range.first; SizeIt != Range.second; ++SizeIt)
    if (SizeIt->second == It->first) {
      LargeBySize.erase(SizeIt);
      break;
    }
  Large.erase(It);
}

size_t FreeList::addRanges(std::span<const FreeRange> Ranges,
                           uint8_t *ClipLo, uint8_t *ClipHi) {
  auto clip = [ClipLo, ClipHi](FreeRange R) -> FreeRange {
    uint8_t *Start = R.first, *End = R.first + R.second;
    if (ClipLo && Start < ClipLo)
      Start = ClipLo;
    if (ClipHi && End > ClipHi)
      End = ClipHi;
    return {Start, End > Start ? static_cast<size_t>(End - Start) : 0};
  };
  // Below the bin granularity a range is not worth tracking (no object
  // fits anyway); the next sweep reclaims it from the bitmap.
  size_t Added = 0;
  for (FreeRange R : Ranges)
    if (size_t Size = clip(R).second; Size >= BinGranuleBytes)
      Added += Size;
  if (Added == 0)
    return 0;

  SpinLockGuard Guard(Lock);
  LockAcquisitions.fetch_add(1, std::memory_order_relaxed);
  // Refillable bytes entering and leaving the tracked set (coalescing
  // retires merged large neighbours), published once for the batch.
  size_t Tracked = 0, Untracked = 0;
  [[maybe_unused]] uint8_t *PrevEnd = nullptr;
  for (FreeRange R : Ranges) {
    auto [Start, Size] = clip(R);
    if (Size < BinGranuleBytes)
      continue;
    assert(Start >= PrevEnd && "batch not address ordered");
    PrevEnd = Start + Size;
    if (Size < BinThresholdBytes) {
      Bins[binIndex(Size)].emplace_back(Start, static_cast<uint32_t>(Size));
      ++SmallRangeCount;
      Tracked += refillablePart(Size);
      continue;
    }

    // Coalesce with adjacent LARGE ranges (small neighbours stay
    // separate; the next sweep re-derives maximal runs from the bitmap
    // anyway).
    auto Next = Large.lower_bound(Start);
    if (Next != Large.begin()) {
      auto Prev = std::prev(Next);
      assert(Prev->first + Prev->second <= Start && "overlapping free ranges");
      if (Prev->first + Prev->second == Start) {
        Start = Prev->first;
        Size += Prev->second;
        Untracked += refillablePart(Prev->second);
        eraseLargeLocked(Prev);
      }
    }
    if (Next != Large.end()) {
      assert(Start + Size <= Next->first && "overlapping free ranges");
      if (Start + Size == Next->first) {
        Size += Next->second;
        Untracked += refillablePart(Next->second);
        eraseLargeLocked(Next);
      }
    }
    insertLargeLocked(Start, Size);
    Tracked += refillablePart(Size);
  }
  FreeByteCount.fetch_add(Added, std::memory_order_relaxed);
  // Tracked >= Untracked: every merged neighbour is re-tracked inside
  // the (at least as large) coalesced range.
  if (Tracked != Untracked)
    RefillableByteCount.fetch_add(Tracked - Untracked,
                                  std::memory_order_relaxed);
  return Added;
}

uint8_t *FreeList::takeLocked(uint8_t *Start, size_t RangeSize,
                              size_t Take) {
  assert(Take <= RangeSize && "taking more than the range holds");
  FreeByteCount.fetch_sub(Take, std::memory_order_relaxed);
  size_t Remainder = RangeSize - Take;
  if (Remainder == 0)
    return Start;
  if (Remainder < BinGranuleBytes) {
    // Too small to track: grant it with the block (the caller's object
    // headers don't cover it, so the next sweep reclaims it).
    FreeByteCount.fetch_sub(Remainder, std::memory_order_relaxed);
    return Start;
  }
  uint8_t *Rest = Start + Take;
  if (Remainder < BinThresholdBytes) {
    Bins[binIndex(Remainder)].emplace_back(
        Rest, static_cast<uint32_t>(Remainder));
    ++SmallRangeCount;
    noteRangeTracked(Remainder);
  } else {
    insertLargeLocked(Rest, Remainder);
    noteRangeTracked(Remainder);
  }
  return Start;
}

uint8_t *FreeList::allocate(size_t Size) {
  assert(Size > 0 && "empty allocation");
  SpinLockGuard Guard(Lock);
  LockAcquisitions.fetch_add(1, std::memory_order_relaxed);
  // Best fit among the large ranges.
  auto BySize = LargeBySize.lower_bound(Size);
  if (BySize != LargeBySize.end()) {
    auto It = Large.find(BySize->second);
    uint8_t *Start = It->first;
    size_t RangeSize = It->second;
    eraseLargeLocked(It);
    noteRangeUntracked(RangeSize);
    return takeLocked(Start, RangeSize, Size);
  }
  // Then the bins: the first class guaranteed to satisfy Size.
  if (Size < BinThresholdBytes) {
    for (size_t Class = (Size + BinGranuleBytes - 1) / BinGranuleBytes;
         Class < NumBins; ++Class) {
      auto &Bin = Bins[Class];
      if (Bin.empty())
        continue;
      auto [Start, RangeSize] = Bin.back();
      Bin.pop_back();
      --SmallRangeCount;
      noteRangeUntracked(RangeSize);
      return takeLocked(Start, RangeSize, Size);
    }
    // The floor class may still hold a large-enough entry.
    auto &Bin = Bins[binIndex(Size)];
    for (size_t I = 0; I < Bin.size(); ++I)
      if (Bin[I].second >= Size) {
        auto [Start, RangeSize] = Bin[I];
        Bin[I] = Bin.back();
        Bin.pop_back();
        --SmallRangeCount;
        noteRangeUntracked(RangeSize);
        return takeLocked(Start, RangeSize, Size);
      }
  }
  return nullptr;
}

uint8_t *FreeList::allocateUpTo(size_t MinSize, size_t MaxSize,
                                size_t &OutSize) {
  assert(MinSize > 0 && MinSize <= MaxSize && "bad refill bounds");
  SpinLockGuard Guard(Lock);
  LockAcquisitions.fetch_add(1, std::memory_order_relaxed);

  // Prefer a full-size grant from the large ranges (best fit).
  auto BySize = LargeBySize.lower_bound(MaxSize);
  if (BySize != LargeBySize.end()) {
    auto It = Large.find(BySize->second);
    uint8_t *Start = It->first;
    size_t RangeSize = It->second;
    eraseLargeLocked(It);
    noteRangeUntracked(RangeSize);
    OutSize = MaxSize;
    return takeLocked(Start, RangeSize, MaxSize);
  }
  // Otherwise the largest range that still satisfies MinSize, whole.
  if (!LargeBySize.empty()) {
    auto Last = std::prev(LargeBySize.end());
    if (Last->first >= MinSize) {
      auto It = Large.find(Last->second);
      uint8_t *Start = It->first;
      size_t RangeSize = It->second;
      eraseLargeLocked(It);
      noteRangeUntracked(RangeSize);
      OutSize = RangeSize;
      return takeLocked(Start, RangeSize, RangeSize);
    }
  }
  // Finally the bins, largest class first: grant the whole entry.
  for (size_t Class = NumBins; Class-- > 0;) {
    auto &Bin = Bins[Class];
    if (Bin.empty())
      continue;
    if (Class * BinGranuleBytes + (BinGranuleBytes - 1) < MinSize)
      break; // No smaller class can satisfy MinSize either.
    // Sizes within a class span BinGranuleBytes; find any entry that
    // satisfies MinSize (all do except in the boundary class).
    for (size_t I = Bin.size(); I-- > 0;) {
      if (Bin[I].second < MinSize)
        continue;
      auto [Start, RangeSize] = Bin[I];
      Bin[I] = Bin.back();
      Bin.pop_back();
      --SmallRangeCount;
      noteRangeUntracked(RangeSize);
      OutSize = RangeSize;
      return takeLocked(Start, RangeSize, RangeSize);
    }
  }
  return nullptr;
}

size_t FreeList::withdrawWithin(uint8_t *Lo, uint8_t *Hi) {
  std::vector<std::pair<uint8_t *, size_t>> Outside;
  size_t Withdrawn = 0;
  {
    SpinLockGuard Guard(Lock);
    LockAcquisitions.fetch_add(1, std::memory_order_relaxed);
    // Large ranges: the first candidate may straddle Lo from below.
    auto It = Large.lower_bound(Lo);
    if (It != Large.begin() && std::prev(It)->first + std::prev(It)->second > Lo)
      --It;
    while (It != Large.end() && It->first < Hi) {
      uint8_t *Start = It->first;
      size_t Size = It->second;
      auto Next = std::next(It);
      eraseLargeLocked(It);
      noteRangeUntracked(Size);
      FreeByteCount.fetch_sub(Size, std::memory_order_relaxed);
      uint8_t *End = Start + Size;
      uint8_t *CutLo = std::max(Start, Lo);
      uint8_t *CutHi = std::min(End, Hi);
      Withdrawn += static_cast<size_t>(CutHi - CutLo);
      if (Start < Lo)
        Outside.emplace_back(Start, static_cast<size_t>(Lo - Start));
      if (End > Hi)
        Outside.emplace_back(Hi, static_cast<size_t>(End - Hi));
      It = Next;
    }
    // Bins: drop any entry intersecting the window (entries are small;
    // straddling pieces are abandoned until the next sweep).
    for (auto &Bin : Bins) {
      for (size_t I = 0; I < Bin.size();) {
        auto [Start, Size] = Bin[I];
        if (Start < Hi && Start + Size > Lo) {
          Withdrawn += Size;
          FreeByteCount.fetch_sub(Size, std::memory_order_relaxed);
          noteRangeUntracked(Size);
          Bin[I] = Bin.back();
          Bin.pop_back();
          --SmallRangeCount;
        } else {
          ++I;
        }
      }
    }
  }
  addRanges(Outside);
  return Withdrawn;
}

FreeRangeStats FreeList::statsWithin(uint8_t *Lo, uint8_t *Hi) const {
  FreeRangeStats Stats;
  if (Lo >= Hi)
    return Stats;
  SpinLockGuard Guard(Lock);
  auto Note = [&Stats, Lo, Hi](uint8_t *Start, size_t Size) {
    uint8_t *End = Start + Size;
    if (Start >= Hi || End <= Lo)
      return;
    size_t Clipped =
        static_cast<size_t>(std::min(End, Hi) - std::max(Start, Lo));
    Stats.FreeBytes += Clipped;
    ++Stats.RangeCount;
    if (Clipped > Stats.LargestRange)
      Stats.LargestRange = Clipped;
  };
  // Large ranges: the first candidate may straddle Lo from below.
  auto It = Large.lower_bound(Lo);
  if (It != Large.begin() && std::prev(It)->first + std::prev(It)->second > Lo)
    --It;
  for (; It != Large.end() && It->first < Hi; ++It)
    Note(It->first, It->second);
  // Bins are unordered; scan them all (they are small by construction).
  for (const auto &Bin : Bins)
    for (const auto &[Start, Size] : Bin)
      Note(Start, Size);
  return Stats;
}

size_t FreeList::largestRange() const {
  SpinLockGuard Guard(Lock);
  if (!LargeBySize.empty())
    return std::prev(LargeBySize.end())->first;
  for (size_t Class = NumBins; Class-- > 0;) {
    size_t Largest = 0;
    for (const auto &[Start, Size] : Bins[Class])
      if (Size > Largest)
        Largest = Size;
    if (Largest)
      return Largest;
  }
  return 0;
}

size_t FreeList::numRanges() const {
  SpinLockGuard Guard(Lock);
  return Large.size() + SmallRangeCount;
}

void FreeList::clear() {
  SpinLockGuard Guard(Lock);
  LockAcquisitions.fetch_add(1, std::memory_order_relaxed);
  Large.clear();
  LargeBySize.clear();
  for (auto &Bin : Bins)
    Bin.clear();
  SmallRangeCount = 0;
  FreeByteCount.store(0, std::memory_order_relaxed);
  RefillableByteCount.store(0, std::memory_order_relaxed);
}

std::vector<std::pair<uint8_t *, size_t>> FreeList::snapshotRanges() const {
  SpinLockGuard Guard(Lock);
  std::vector<std::pair<uint8_t *, size_t>> Result;
  Result.reserve(Large.size() + SmallRangeCount);
  for (const auto &[Start, Size] : Large)
    Result.emplace_back(Start, Size);
  for (const auto &Bin : Bins)
    for (const auto &[Start, Size] : Bin)
      Result.emplace_back(Start, Size);
  std::sort(Result.begin(), Result.end());
  return Result;
}
