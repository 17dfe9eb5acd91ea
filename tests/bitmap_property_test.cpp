//===- bitmap_property_test.cpp - differential/property sweeps -------------------//
///
/// Randomized differential tests: BitVector8 and CardTable are checked
/// operation-by-operation against trivial reference models.
///
//===----------------------------------------------------------------------===//

#include "heap/BitVector8.h"
#include "heap/CardTable.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

using namespace cgc;

namespace {

class BitmapPropertyTest : public ::testing::TestWithParam<uint64_t> {
protected:
  static constexpr size_t HeapBytes = 32u << 10; // 4096 granules.
  BitmapPropertyTest() {
    Mem.reset(static_cast<uint8_t *>(std::aligned_alloc(4096, HeapBytes)));
  }
  uint8_t *addr(size_t Granule) { return Mem.get() + Granule * GranuleBytes; }
  struct FreeDeleter {
    void operator()(uint8_t *P) const { std::free(P); }
  };
  std::unique_ptr<uint8_t, FreeDeleter> Mem;
};

TEST_P(BitmapPropertyTest, MatchesReferenceModel) {
  constexpr size_t NumGranules = HeapBytes / GranuleBytes;
  BitVector8 Bits(Mem.get(), HeapBytes);
  std::vector<bool> Model(NumGranules, false);
  Random Rng(GetParam());

  BitVector8 Keep(Mem.get(), HeapBytes);
  auto window = [&] {
    size_t A = Rng.nextBelow(NumGranules + 1);
    size_t B = Rng.nextBelow(NumGranules + 1);
    return A > B ? std::pair{B, A} : std::pair{A, B};
  };

  for (int Step = 0; Step < 20000; ++Step) {
    switch (Rng.nextBelow(10)) {
    case 7: { // forEachSetInRange: the model's set granules, in order
      auto [A, B] = window();
      std::vector<uint8_t *> Seen, Expect;
      Bits.forEachSetInRange(addr(A), addr(B), [&](uint8_t *P) {
        Seen.push_back(P);
        return true;
      });
      for (size_t G = A; G < B; ++G)
        if (Model[G])
          Expect.push_back(addr(G));
      EXPECT_EQ(Seen, Expect);
      break;
    }
    case 8: { // countInRange
      auto [A, B] = window();
      size_t Expect = 0;
      for (size_t G = A; G < B; ++G)
        Expect += Model[G];
      EXPECT_EQ(Bits.countInRange(addr(A), addr(B)), Expect);
      break;
    }
    case 9: { // retainRange over whole words, Keep a random subset
      size_t FirstWord = Rng.nextBelow(NumGranules / 64);
      size_t EndWord =
          FirstWord + 1 + Rng.nextBelow(NumGranules / 64 - FirstWord);
      auto [GLo, GHi] = window();
      Keep.clearAll();
      std::vector<bool> Kept(NumGranules, false);
      for (size_t G = FirstWord * 64; G < EndWord * 64; ++G)
        if (Model[G] && Rng.nextBool(0.5)) {
          Keep.set(addr(G));
          Kept[G] = true;
        }
      Bits.retainRange(Keep, addr(FirstWord * 64), addr(EndWord * 64),
                       addr(GLo), addr(GHi));
      for (size_t G = FirstWord * 64; G < EndWord * 64; ++G)
        if (G < GLo || G >= GHi)
          Model[G] = Kept[G];
      break;
    }
    case 0: { // set
      size_t G = Rng.nextBelow(NumGranules);
      Bits.set(addr(G));
      Model[G] = true;
      break;
    }
    case 1: { // clear
      size_t G = Rng.nextBelow(NumGranules);
      Bits.clear(addr(G));
      Model[G] = false;
      break;
    }
    case 2: { // testAndSet
      size_t G = Rng.nextBelow(NumGranules);
      bool Won = Bits.testAndSet(addr(G));
      EXPECT_EQ(Won, !Model[G]);
      Model[G] = true;
      break;
    }
    case 3: { // test
      size_t G = Rng.nextBelow(NumGranules);
      EXPECT_EQ(Bits.test(addr(G)), Model[G]);
      break;
    }
    case 4: { // clearRange
      size_t A = Rng.nextBelow(NumGranules);
      size_t B = Rng.nextBelow(NumGranules);
      if (A > B)
        std::swap(A, B);
      Bits.clearRange(addr(A), addr(B));
      for (size_t G = A; G < B; ++G)
        Model[G] = false;
      break;
    }
    case 5: { // findNextSet over a random window
      size_t A = Rng.nextBelow(NumGranules);
      size_t B = Rng.nextBelow(NumGranules);
      if (A > B)
        std::swap(A, B);
      uint8_t *Found = Bits.findNextSet(addr(A), addr(B));
      size_t Expect = B;
      for (size_t G = A; G < B; ++G)
        if (Model[G]) {
          Expect = G;
          break;
        }
      if (Expect == B)
        EXPECT_EQ(Found, nullptr);
      else
        EXPECT_EQ(Found, addr(Expect));
      break;
    }
    default: { // findPrevSet
      size_t A = Rng.nextBelow(NumGranules) + 1;
      uint8_t *Found = Bits.findPrevSet(addr(A));
      uint8_t *Expect = nullptr;
      for (size_t G = A; G-- > 0;)
        if (Model[G]) {
          Expect = addr(G);
          break;
        }
      EXPECT_EQ(Found, Expect);
      break;
    }
    }
  }
  // Final count agreement.
  size_t ModelCount = 0;
  for (bool B : Model)
    if (B)
      ++ModelCount;
  EXPECT_EQ(Bits.countInRange(Mem.get(), Mem.get() + HeapBytes), ModelCount);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitmapPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u));

class CardTablePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CardTablePropertyTest, RegistrationNeverLosesACard) {
  constexpr size_t HeapBytes = 64u << 10;
  struct FreeDeleter {
    void operator()(uint8_t *P) const { std::free(P); }
  };
  std::unique_ptr<uint8_t, FreeDeleter> Mem(
      static_cast<uint8_t *>(std::aligned_alloc(4096, HeapBytes)));
  CardTable Cards(Mem.get(), HeapBytes);
  Random Rng(GetParam());
  std::vector<int> DirtyEvents(Cards.numCards(), 0);
  std::vector<int> Registered(Cards.numCards(), 0);

  std::vector<uint32_t> Out;
  for (int Round = 0; Round < 200; ++Round) {
    for (int I = 0; I < 50; ++I) {
      size_t Card = Rng.nextBelow(Cards.numCards());
      Cards.dirty(Cards.cardStart(Card));
      DirtyEvents[Card] = 1;
    }
    if (Rng.nextBool(0.3)) {
      Out.clear();
      Cards.registerAndClearDirty(Out);
      for (uint32_t Index : Out) {
        EXPECT_EQ(DirtyEvents[Index], 1) << "registered a clean card";
        Registered[Index] = 1;
        DirtyEvents[Index] = 0;
      }
    }
  }
  Out.clear();
  Cards.registerAndClearDirty(Out);
  for (uint32_t Index : Out) {
    Registered[Index] = 1;
    DirtyEvents[Index] = 0;
  }
  // Every dirtied card was eventually registered exactly while dirty.
  for (size_t I = 0; I < Cards.numCards(); ++I)
    EXPECT_EQ(DirtyEvents[I], 0) << "card " << I << " lost";
  EXPECT_EQ(Cards.countDirty(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CardTablePropertyTest,
                         ::testing::Values(5u, 6u, 7u));

} // namespace
