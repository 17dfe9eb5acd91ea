//===- BitVector8.cpp - One bit per 8-byte granule --------------------------//

#include "heap/BitVector8.h"

#include <algorithm>
#include <bit>

using namespace cgc;

BitVector8::BitVector8(const void *BaseAddr, size_t SizeBytes)
    : Base(static_cast<const uint8_t *>(BaseAddr)),
      NumGranules(SizeBytes / GranuleBytes),
      NumWords((NumGranules + 63) / 64),
      Words(new std::atomic<uint64_t>[NumWords]) {
  assert(SizeBytes % GranuleBytes == 0 && "heap size not granular");
  clearAll();
}

void BitVector8::clearAll() {
  for (size_t I = 0; I < NumWords; ++I)
    Words[I].store(0, std::memory_order_relaxed);
}

void BitVector8::clearRange(const void *From, const void *To) {
  if (From >= To)
    return;
  size_t First = granuleIndex(From);
  // To is exclusive; the last granule cleared starts at To - GranuleBytes.
  size_t Last = granuleIndex(static_cast<const uint8_t *>(To) - GranuleBytes);
  size_t FirstWord = First >> 6, LastWord = Last >> 6;
  // Bits at or above First's position, and at or below Last's (2 << 63
  // wraps to 0, so the tail mask of a word-final Last is all ones).
  uint64_t HeadMask = ~0ull << (First & 63);
  uint64_t TailMask = (2ull << (Last & 63)) - 1;
  if (FirstWord == LastWord) {
    Words[FirstWord].fetch_and(~(HeadMask & TailMask),
                               std::memory_order_relaxed);
    return;
  }
  Words[FirstWord].fetch_and(~HeadMask, std::memory_order_relaxed);
  for (size_t W = FirstWord + 1; W < LastWord; ++W)
    Words[W].store(0, std::memory_order_relaxed);
  Words[LastWord].fetch_and(~TailMask, std::memory_order_relaxed);
}

void BitVector8::retainRange(const BitVector8 &Keep, const void *From,
                             const void *To, const void *GuardLo,
                             const void *GuardHi) {
  assert(Keep.Base == Base && Keep.NumWords == NumWords &&
         "retainRange needs a bitmap over the same heap range");
  const uint8_t *FromP = static_cast<const uint8_t *>(From);
  const uint8_t *ToP = static_cast<const uint8_t *>(To);
  if (FromP >= ToP)
    return;
  size_t FirstWord = granuleIndex(FromP) >> 6;
  size_t EndGranule = static_cast<size_t>(ToP - Base) / GranuleBytes;
  assert((granuleIndex(FromP) & 63) == 0 && "range must start a word");
  assert(((EndGranule & 63) == 0 || EndGranule == NumGranules) &&
         "range must end a word or the bitmap");
  size_t EndWord = (EndGranule + 63) >> 6;
  // The guard window in granules, clipped to the range, is [GLo, GHi);
  // words [GLoWord, GHiWord) meet it (none when it is empty).
  size_t GLo = 0, GHi = 0, GLoWord = EndWord, GHiWord = EndWord;
  const uint8_t *GLoP = static_cast<const uint8_t *>(GuardLo);
  const uint8_t *GHiP = static_cast<const uint8_t *>(GuardHi);
  if (GLoP < GHiP && GLoP < ToP && GHiP > FromP) {
    GLo = granuleIndex(std::max(GLoP, FromP));
    GHi = static_cast<size_t>(std::min(GHiP, ToP) - Base) / GranuleBytes;
    assert(Base + GHi * GranuleBytes == std::min(GHiP, ToP) &&
           "guard window not granule aligned");
    GLoWord = GLo >> 6;
    GHiWord = (GHi + 63) >> 6;
  }
  // Words wholly outside the window: only the caller writes them.
  auto retainWord = [&](size_t W) {
    uint64_t Mark = Keep.Words[W].load(std::memory_order_relaxed);
    uint64_t Alloc = Words[W].load(std::memory_order_relaxed);
    assert((Mark & ~Alloc) == 0 && "Keep bit without a bit in this vector");
    Words[W].store(Alloc & Mark, std::memory_order_relaxed);
  };
  for (size_t W = FirstWord; W < GLoWord; ++W)
    retainWord(W);
  // Words the window touches: bits inside it are kept whatever Keep
  // says, and the word is edited atomically since other threads may be
  // setting those bits. Words wholly inside the window are left alone.
  for (size_t W = GLoWord; W < GHiWord; ++W) {
    size_t Lo = std::max(GLo, W << 6), Hi = std::min(GHi, (W + 1) << 6);
    uint64_t Guard = (~0ull << (Lo & 63)) & ((2ull << ((Hi - 1) & 63)) - 1);
    if (Guard == ~0ull)
      continue;
    uint64_t Mark = Keep.Words[W].load(std::memory_order_relaxed);
    assert((Mark & ~Guard & ~Words[W].load(std::memory_order_relaxed)) == 0 &&
           "Keep bit without a bit in this vector");
    Words[W].fetch_and(Mark | Guard, std::memory_order_relaxed);
  }
  for (size_t W = GHiWord; W < EndWord; ++W)
    retainWord(W);
}

size_t BitVector8::countInRange(const void *From, const void *To) const {
  const uint8_t *FromP = static_cast<const uint8_t *>(From);
  const uint8_t *ToP = static_cast<const uint8_t *>(To);
  if (FromP >= ToP)
    return 0;
  size_t First = granuleIndex(FromP);
  size_t Last = granuleIndex(ToP - GranuleBytes);
  size_t FirstWord = First >> 6, LastWord = Last >> 6;
  uint64_t HeadMask = ~0ull << (First & 63);
  uint64_t TailMask = (2ull << (Last & 63)) - 1;
  auto word = [this](size_t W) {
    return Words[W].load(std::memory_order_relaxed);
  };
  if (FirstWord == LastWord)
    return static_cast<size_t>(
        std::popcount(word(FirstWord) & HeadMask & TailMask));
  size_t Count = static_cast<size_t>(std::popcount(word(FirstWord) & HeadMask));
  for (size_t W = FirstWord + 1; W < LastWord; ++W)
    Count += static_cast<size_t>(std::popcount(word(W)));
  return Count +
         static_cast<size_t>(std::popcount(word(LastWord) & TailMask));
}

uint8_t *BitVector8::findPrevSet(const void *Before) const {
  const uint8_t *P = static_cast<const uint8_t *>(Before);
  if (P <= Base)
    return nullptr;
  size_t Last = granuleIndex(P - GranuleBytes);
  size_t Word = Last >> 6;
  uint64_t Bits = Words[Word].load(std::memory_order_relaxed);
  // Mask off bits above Last.
  unsigned Shift = static_cast<unsigned>(63 - (Last & 63));
  Bits = (Bits << Shift) >> Shift;
  for (;;) {
    if (Bits) {
      size_t Index = (Word << 6) + (63 - static_cast<size_t>(
                                             std::countl_zero(Bits)));
      return const_cast<uint8_t *>(Base) + Index * GranuleBytes;
    }
    if (Word == 0)
      return nullptr;
    --Word;
    Bits = Words[Word].load(std::memory_order_relaxed);
  }
}
