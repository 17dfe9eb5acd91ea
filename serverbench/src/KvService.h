//===- KvService.h - The benchmark's KV request handler ---------*- C++ -*-===//
///
/// \file
/// One server request against a KvStore, with the per-request garbage a
/// real server allocates: a request object, the parsed key and a
/// response buffer, all on the GC heap. The request object is rooted on
/// the client's shadow stack while the other two hang off it, so every
/// allocation in the request is a GC point with live request state.
///
/// The handler checks its own outputs: the key and response payloads
/// are stamped at allocation and re-read at the end of the request, so
/// a collector that reclaimed or overwrote a live request object is
/// caught as a corrupt request, like KvStore's corrupt gets.
///
//===----------------------------------------------------------------------===//

#ifndef SERVERBENCH_KVSERVICE_H
#define SERVERBENCH_KVSERVICE_H

#include "Bench.h"

#include "support/Random.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace cgc {
class GcHeap;
class KvStore;
class MutatorContext;
struct KvStoreConfig;
} // namespace cgc

namespace serverbench {

/// Request mix and sizes. The op mix matches KvWorkloadConfig's
/// defaults (70% get, 5% delete, 25% set).
struct KvMix {
  size_t KeySpace = 32768;
  size_t MinValueBytes = 32;
  size_t MaxValueBytes = 512;
  double GetFraction = 0.70;
  double DeleteFraction = 0.05;
  /// Request object payload (it also holds two references).
  size_t RequestPayloadBytes = 64;
  /// Response buffer payload bounds (uniform per request).
  size_t MinResponseBytes = 1024;
  size_t MaxResponseBytes = 3072;
};

/// Fills \p Store with every second key of the key space (half the keys
/// hit), in a seeded order. Returns false if a set failed.
bool prewarmStore(cgc::GcHeap &Heap, cgc::MutatorContext &Ctx,
                  cgc::KvStore &Store, const KvMix &Mix, size_t Entries,
                  uint64_t Seed);

/// Serves requests for a fixed number of clients. Each client index
/// must be used by one thread at a time.
class KvService {
public:
  KvService(cgc::GcHeap &Heap, cgc::KvStore &Store, const KvMix &Mix,
            unsigned Clients, uint64_t Seed);

  /// Serves request \p Seq of \p Client on \p Ctx. The first request of
  /// a client reserves its root slot. When \p Rec is non-null every
  /// child call is timed into it. Returns false when the request failed
  /// (counted in counts()).
  bool serve(cgc::MutatorContext &Ctx, unsigned Client, uint64_t Seq,
             RequestRecord *Rec);

  ServiceCounts counts() const;

private:
  cgc::GcHeap &Heap;
  cgc::KvStore &Store;
  KvMix Mix;
  std::vector<cgc::Random> Rngs;
  std::unique_ptr<std::atomic<uint64_t>[]> Attempted;
  std::unique_ptr<std::atomic<uint64_t>[]> Failed;
  std::unique_ptr<std::atomic<uint64_t>[]> Corrupt;
};

} // namespace serverbench

#endif // SERVERBENCH_KVSERVICE_H
