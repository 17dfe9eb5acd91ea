//===- KvService.cpp - The benchmark's KV request handler -----------------===//

#include "KvService.h"

#include "runtime/GcHeap.h"
#include "support/Timing.h"
#include "workloads/KvServer.h"

#include <cstdio>
#include <cstring>

using namespace cgc;
using namespace serverbench;

namespace {

/// Class ids of the per-request objects (debug dumps only).
enum : uint16_t { CIdRequest = 40, CIdKey = 41, CIdResponse = 42 };

uint64_t stampFor(unsigned Client, uint64_t Seq) {
  return (uint64_t(Client) << 48) ^ (Seq * 0x9e3779b97f4a7c15ULL) ^ 0x5e7bULL;
}

void storeWord(Object *O, size_t Offset, uint64_t Word) {
  std::memcpy(O->payload() + Offset, &Word, sizeof(Word));
}

uint64_t loadWord(const Object *O, size_t Offset) {
  uint64_t Word = 0;
  std::memcpy(&Word, O->payload() + Offset, sizeof(Word));
  return Word;
}

/// Times \p Fn into child slot \p C of \p Rec (untimed when Rec is null).
template <typename FnT>
auto timed(RequestRecord *Rec, Child C, FnT Fn) {
  if (!Rec)
    return Fn();
  uint64_t Begin = nowNanos();
  auto Result = Fn();
  uint64_t End = nowNanos();
  Rec->ChildStart[static_cast<unsigned>(C)] =
      static_cast<uint32_t>(Begin - Rec->Enter);
  Rec->ChildDur[static_cast<unsigned>(C)] = static_cast<uint32_t>(End - Begin);
  return Result;
}

/// Formats key number \p K the way the store's own workloads do.
size_t formatKvKey(char *Buf, size_t BufLen, uint64_t K) {
  int N = std::snprintf(Buf, BufLen, "key-%08llx",
                        static_cast<unsigned long long>(K));
  return N > 0 ? static_cast<size_t>(N) : 0;
}

} // namespace

bool serverbench::prewarmStore(GcHeap &Heap, MutatorContext &Ctx,
                               KvStore &Store, const KvMix &Mix,
                               size_t Entries, uint64_t Seed) {
  Random Rng(Seed ^ 0x70a3c0de);
  char Key[32];
  for (size_t I = 0; I < Entries; ++I) {
    // Key 2I or 2I+1: distinct keys, half of the key space present.
    size_t Len = formatKvKey(Key, sizeof(Key), 2 * I + (Rng.next() & 1));
    if (!Store.set(Ctx, Key, Len,
                   Rng.nextInRange(Mix.MinValueBytes, Mix.MaxValueBytes),
                   Rng.next()))
      return false;
  }
  return true;
}

KvService::KvService(GcHeap &Heap, KvStore &Store, const KvMix &Mix,
                     unsigned Clients, uint64_t Seed)
    : Heap(Heap), Store(Store), Mix(Mix),
      Attempted(new std::atomic<uint64_t>[Clients]),
      Failed(new std::atomic<uint64_t>[Clients]),
      Corrupt(new std::atomic<uint64_t>[Clients]) {
  for (unsigned I = 0; I < Clients; ++I) {
    Rngs.emplace_back(Seed * 0x2545f4914f6cdd1dULL + I + 1);
    Attempted[I] = 0;
    Failed[I] = 0;
    Corrupt[I] = 0;
  }
}

bool KvService::serve(MutatorContext &Ctx, unsigned Client, uint64_t Seq,
                      RequestRecord *Rec) {
  Random &Rng = Rngs[Client];
  if (Seq == 0)
    Ctx.reserveRoots(1);
  Attempted[Client].fetch_add(1, std::memory_order_relaxed);
  auto failWith = [&](bool IsCorrupt) {
    Ctx.setRoot(0, nullptr);
    Failed[Client].fetch_add(1, std::memory_order_relaxed);
    if (IsCorrupt)
      Corrupt[Client].fetch_add(1, std::memory_order_relaxed);
    return false;
  };

  timed(Rec, Child::Poll, [&] {
    Heap.safepointPoll(Ctx);
    return 0;
  });

  // The request as it arrives off the wire.
  char Key[32];
  size_t KeyLen = formatKvKey(Key, sizeof(Key), Rng.nextBelow(Mix.KeySpace));
  double Roll = Rng.nextDouble();
  KvOp Op = Roll < Mix.GetFraction                        ? KvOp::Get
            : Roll < Mix.GetFraction + Mix.DeleteFraction ? KvOp::Del
                                                          : KvOp::Set;
  size_t ValueBytes = Rng.nextInRange(Mix.MinValueBytes, Mix.MaxValueBytes);
  uint64_t Nonce = Rng.next();
  size_t ResponseBytes =
      Rng.nextInRange(Mix.MinResponseBytes, Mix.MaxResponseBytes);
  uint64_t Stamp = stampFor(Client, Seq);
  if (Rec)
    Rec->Op = Op;

  Object *Request = timed(Rec, Child::AllocRequest, [&] {
    return Heap.allocate(Ctx, Mix.RequestPayloadBytes, 2, CIdRequest);
  });
  if (!Request)
    return failWith(false);
  storeWord(Request, 0, Stamp);
  Ctx.setRoot(0, Request);

  Object *ParsedKey = timed(Rec, Child::AllocKey, [&] {
    return Heap.allocate(Ctx, KeyLen + sizeof(uint64_t), 0, CIdKey);
  });
  if (!ParsedKey)
    return failWith(false);
  storeWord(ParsedKey, 0, Stamp);
  std::memcpy(ParsedKey->payload() + sizeof(uint64_t), Key, KeyLen);
  Heap.writeRef(Ctx, Request, 0, ParsedKey);

  bool OpOk = timed(Rec, Child::KvOp, [&] {
    switch (Op) {
    case KvOp::Get: {
      KvStore::GetResult R = Store.get(Key, KeyLen);
      return R != KvStore::GetResult::Corrupt;
    }
    case KvOp::Del:
      Store.del(Ctx, Key, KeyLen);
      return true;
    case KvOp::Set:
      return Store.set(Ctx, Key, KeyLen, ValueBytes, Nonce);
    }
    return false;
  });
  if (!OpOk)
    return failWith(Op == KvOp::Get);

  Object *Response = timed(Rec, Child::AllocResponse, [&] {
    return Heap.allocate(Ctx, ResponseBytes, 0, CIdResponse);
  });
  if (!Response)
    return failWith(false);
  size_t RespLen = Response->payloadBytes();
  std::memset(Response->payload(), static_cast<int>(Stamp & 0xff), RespLen);
  storeWord(Response, 0, Stamp);
  storeWord(Response, RespLen - sizeof(uint64_t), ~Stamp);
  Heap.writeRef(Ctx, Request, 1, Response);

  // The reply goes out: everything the request built must still be the
  // request's own.
  Object *Request2 = Ctx.getRoot(0);
  const Object *K = GcHeap::readRef(Request2, 0);
  const Object *Resp = GcHeap::readRef(Request2, 1);
  bool Intact = Request2 == Request && loadWord(Request2, 0) == Stamp && K &&
                loadWord(K, 0) == Stamp &&
                std::memcmp(K->payload() + sizeof(uint64_t), Key, KeyLen) ==
                    0 &&
                Resp && loadWord(Resp, 0) == Stamp &&
                loadWord(Resp, Resp->payloadBytes() - sizeof(uint64_t)) ==
                    ~Stamp &&
                Resp->payload()[RespLen / 2] == (Stamp & 0xff);
  if (!Intact)
    return failWith(true);
  Ctx.setRoot(0, nullptr);
  return true;
}

ServiceCounts KvService::counts() const {
  ServiceCounts C;
  for (size_t I = 0; I < Rngs.size(); ++I) {
    C.Attempted += Attempted[I].load(std::memory_order_relaxed);
    C.Failed += Failed[I].load(std::memory_order_relaxed);
    C.Corrupt += Corrupt[I].load(std::memory_order_relaxed);
  }
  return C;
}
