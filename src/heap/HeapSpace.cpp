//===- HeapSpace.cpp - The managed heap region -------------------------------//

#include "heap/HeapSpace.h"

#include <cassert>
#include <cstdlib>

using namespace cgc;

// aligned_alloc requires the size to be a multiple of the alignment.
static size_t roundUpToPage(size_t Bytes) {
  return (Bytes + 4095) & ~size_t{4095};
}

HeapSpace::HeapSpace(size_t SizeBytes, unsigned FreeListShards,
                     FaultInjector *FI, size_t RefillThresholdBytes)
    : Base(static_cast<uint8_t *>(
          std::aligned_alloc(4096, roundUpToPage(SizeBytes)))),
      Size(roundUpToPage(SizeBytes)), MarkBitsV(Base, Size),
      AllocBitsV(Base, Size), CardsV(Base, Size),
      FreeListV(Base, Size, FreeListShards, FI, RefillThresholdBytes) {
  assert(Base && "heap reservation failed");
  FreeListV.addRange(Base, Size);
}

HeapSpace::~HeapSpace() { std::free(Base); }
