//===- BitVector8.h - One bit per 8-byte granule ----------------*- C++ -*-===//
///
/// \file
/// Bit vector mapping one bit to each 8-byte granule of the heap. Used
/// for both the mark bit vector and the allocation bit vector of the
/// paper (Section 2.1 and Section 5.2). Bit updates are atomic so that
/// many tracer and mutator threads can mark concurrently.
///
/// Range scans work a 64-bit word at a time. SetBitCursor enumerates
/// the set bits of a range inline (one relaxed load per word, then
/// countr_zero and clear-lowest per bit); forEachSetInRange, findNextSet
/// and the sweep's walk are built on it. countInRange is one popcount
/// per word.
///
/// retainRange is the sweep's word-wise allocation-bit clear: over a
/// word-aligned range it computes this &= Keep, one word at a time, and
/// leaves a guard window (the compactor's evacuation area) untouched.
/// Words wholly outside the window are rewritten with a relaxed load and
/// store, so the caller must be their only writer; a word cut by the
/// window edge is edited with a masked fetch_and, because other threads
/// may be setting bits inside the window concurrently.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_HEAP_BITVECTOR8_H
#define CGC_HEAP_BITVECTOR8_H

#include "heap/ObjectModel.h"

#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>

namespace cgc {

/// Atomic bitmap over a fixed heap range, one bit per granule.
class BitVector8 {
public:
  /// Creates a zeroed bitmap covering [Base, Base + SizeBytes).
  BitVector8(const void *Base, size_t SizeBytes);

  /// Atomically sets the bit for \p Addr; returns true if it was clear
  /// (i.e. this caller won the race). This is the mark operation.
  bool testAndSet(const void *Addr) {
    uint64_t Mask;
    std::atomic<uint64_t> &W = wordFor(Addr, Mask);
    if (W.load(std::memory_order_relaxed) & Mask)
      return false;
    return (W.fetch_or(Mask, std::memory_order_relaxed) & Mask) == 0;
  }

  /// Atomically sets the bit for \p Addr.
  void set(const void *Addr) {
    uint64_t Mask;
    wordFor(Addr, Mask).fetch_or(Mask, std::memory_order_relaxed);
  }

  /// Atomically sets the bit for \p Addr with release ordering: every
  /// store program-ordered before this call (an object's initializing
  /// writes) becomes visible to any thread that testAcquire()s the bit.
  /// This is the publication half of the Section 5.2 allocation-bit
  /// protocol. The batch fence in AllocationCache::flushAllocBits
  /// already provides this ordering on hardware; the release RMW costs
  /// nothing extra on TSO and, unlike a thread fence, is understood by
  /// ThreadSanitizer (GCC's TSan has no atomic_thread_fence support).
  void setRelease(const void *Addr) {
    uint64_t Mask;
    wordFor(Addr, Mask).fetch_or(Mask, std::memory_order_release);
  }

  /// Reads the bit for \p Addr (relaxed).
  bool test(const void *Addr) const {
    uint64_t Mask;
    return wordFor(Addr, Mask).load(std::memory_order_relaxed) & Mask;
  }

  /// Reads the bit for \p Addr with acquire ordering — the consumption
  /// half of the Section 5.2 protocol: a tracer that observes the bit
  /// set is guaranteed to see the object's initializing stores (pairs
  /// with setRelease; see that comment for why this exists alongside
  /// the tracer's batch fence).
  bool testAcquire(const void *Addr) const {
    uint64_t Mask;
    return wordFor(Addr, Mask).load(std::memory_order_acquire) & Mask;
  }

  /// Atomically clears the bit for \p Addr.
  void clear(const void *Addr) {
    uint64_t Mask;
    wordFor(Addr, Mask).fetch_and(~Mask, std::memory_order_relaxed);
  }

  /// Clears every bit covering [From, To). Boundary words are edited
  /// atomically so concurrent setters of neighbouring granules are safe.
  void clearRange(const void *From, const void *To);

  /// Zeroes the whole bitmap (not thread-safe against concurrent edits).
  void clearAll();

  /// Number of set bits covering [From, To) (relaxed snapshot).
  size_t countInRange(const void *From, const void *To) const;

  /// Clears every bit covering [From, To) whose bit in \p Keep is clear
  /// (this &= Keep), a word at a time, except the bits inside the guard
  /// window [GuardLo, GuardHi), which stay as they are (an empty or null
  /// window guards nothing). \p From must start a bitmap word (a
  /// multiple of 64 granules from the base) and \p To must end one or
  /// be the end of the bitmap, so that every word touched lies wholly
  /// inside the range. Words outside the window are rewritten with a
  /// relaxed load and store: the caller must be their only writer. A
  /// word the window cuts is edited with a masked fetch_and, so setters
  /// of bits inside the window stay safe. Requires Keep's bits in the
  /// range to be a subset of this vector's (asserted outside the window).
  void retainRange(const BitVector8 &Keep, const void *From, const void *To,
                   const void *GuardLo, const void *GuardHi);

  /// Enumerates the set bits covering [From, To) in address order, a
  /// 64-bit word at a time: each next() call costs a countr_zero and a
  /// clear-lowest-bit, plus one relaxed load per word crossed. Words
  /// are read as the cursor reaches them, so bits set or cleared ahead
  /// of it are seen (or not) as a relaxed load would. It never reads a
  /// word outside the range.
  class SetBitCursor {
  public:
    SetBitCursor(const BitVector8 &BV, const void *From, const void *To)
        : Words(BV.Words.get()), Base(BV.Base) {
      const uint8_t *FromP = static_cast<const uint8_t *>(From);
      const uint8_t *ToP = static_cast<const uint8_t *>(To);
      if (FromP >= ToP)
        return; // Word == LastWord, Bits == 0: exhausted.
      size_t First = BV.granuleIndex(FromP);
      size_t Last = BV.granuleIndex(ToP - GranuleBytes);
      Word = First >> 6;
      LastWord = Last >> 6;
      // Bits at or below Last's position; 2 << 63 wraps to 0, so a
      // range ending on a word boundary keeps the whole word.
      LastMask = (2ull << (Last & 63)) - 1;
      Bits = Words[Word].load(std::memory_order_relaxed) &
             (~0ull << (First & 63));
      if (Word == LastWord)
        Bits &= LastMask;
    }

    /// The next set granule's address, or nullptr once the range is
    /// exhausted (and on every later call).
    uint8_t *next() {
      while (Bits == 0) {
        if (Word == LastWord)
          return nullptr;
        ++Word;
        Bits = Words[Word].load(std::memory_order_relaxed);
        if (Word == LastWord)
          Bits &= LastMask;
      }
      size_t Index = (Word << 6) + static_cast<size_t>(std::countr_zero(Bits));
      Bits &= Bits - 1;
      return const_cast<uint8_t *>(Base) + Index * GranuleBytes;
    }

  private:
    const std::atomic<uint64_t> *Words;
    const uint8_t *Base;
    size_t Word = 0;
    size_t LastWord = 0;
    uint64_t Bits = 0;
    uint64_t LastMask = 0;
  };

  /// Address of the first set bit at or after \p From and before \p To,
  /// or nullptr when none.
  uint8_t *findNextSet(const void *From, const void *To) const {
    return SetBitCursor(*this, From, To).next();
  }

  /// Address of the last set bit strictly before \p Before (and at or
  /// after the bitmap base), or nullptr when none. Used by the parallel
  /// sweeper to resolve objects spanning a chunk's leading edge.
  uint8_t *findPrevSet(const void *Before) const;

  /// Invokes \p Fn with the granule address of every set bit in
  /// [From, To), in address order. \p Fn returns false to stop early.
  template <typename FnT>
  void forEachSetInRange(const void *From, const void *To, FnT Fn) const {
    SetBitCursor Cursor(*this, From, To);
    while (uint8_t *Next = Cursor.next())
      if (!Fn(Next))
        return;
  }

  /// The covered base address.
  const uint8_t *base() const { return Base; }

  /// Number of granules covered.
  size_t numGranules() const { return NumGranules; }

private:
  std::atomic<uint64_t> &wordFor(const void *Addr, uint64_t &Mask) {
    size_t Index = granuleIndex(Addr);
    Mask = 1ull << (Index & 63);
    return Words[Index >> 6];
  }
  const std::atomic<uint64_t> &wordFor(const void *Addr,
                                       uint64_t &Mask) const {
    return const_cast<BitVector8 *>(this)->wordFor(Addr, Mask);
  }

  size_t granuleIndex(const void *Addr) const {
    const uint8_t *P = static_cast<const uint8_t *>(Addr);
    assert(P >= Base && "address below bitmap range");
    size_t Offset = static_cast<size_t>(P - Base);
    assert(Offset / GranuleBytes < NumGranules &&
           "address above bitmap range");
    assert(Offset % GranuleBytes == 0 && "address not granule aligned");
    return Offset / GranuleBytes;
  }

  const uint8_t *Base;
  size_t NumGranules;
  size_t NumWords;
  std::unique_ptr<std::atomic<uint64_t>[]> Words;
};

} // namespace cgc

#endif // CGC_HEAP_BITVECTOR8_H
