//===- KvServer.h - Memcache-like GC-heap key-value store -------*- C++ -*-===//
///
/// \file
/// A memcache-like get/set/delete key-value store living entirely on
/// the GC heap — the request-serving workload behind the open-loop
/// latency benches (DESIGN.md §15). The hash table is one GC object
/// whose reference slots are the buckets; each bucket is a chain of
/// entry objects carrying the string key in their payload, a reference
/// to a variably-sized value object, and the chain link. Table churn is
/// bounded: past MaxEntries, sets evict from a round-robin bucket
/// cursor, so garbage is produced at a controllable rate while the live
/// set stays put.
///
/// Every value payload is stamped from (key hash, caller nonce), so a
/// get can verify end-to-end that the collector neither reclaimed nor
/// corrupted a live value — the same self-checking discipline as
/// GraphChurn's edge nonces.
///
/// Concurrency: bucket chains are guarded by striped spin locks. No
/// operation allocates (a GC point) while holding a stripe — sets
/// allocate their entry and value objects first, anchored on the
/// shadow stack, then link under the lock (cgc-mole rules M1/M3).
///
//===----------------------------------------------------------------------===//

#ifndef CGC_WORKLOADS_KVSERVER_H
#define CGC_WORKLOADS_KVSERVER_H

#include "support/Annotations.h"
#include "workloads/WorkloadResult.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace cgc {

class GcHeap;
class MutatorContext;
class Object;
class Random;
class SpinLock;

/// Configuration of one KvStore instance.
struct KvStoreConfig {
  /// Hash buckets (reference slots of the table object; <= 60000).
  unsigned Buckets = 1024;
  /// Live-entry bound: sets past this evict from a round-robin bucket
  /// cursor before inserting, keeping the live set (and thus the churn
  /// rate for a given set rate) controllable.
  size_t MaxEntries = 4096;
  /// Largest accepted key, in bytes.
  size_t MaxKeyBytes = 64;
  /// Lock stripes guarding the bucket chains (rounded up to a power of
  /// two, capped at Buckets).
  unsigned LockStripes = 64;
};

/// A concurrent hash table of string keys to variably-sized values, all
/// on the GC heap. Thread-safe: any attached mutator thread may call
/// get/set/del concurrently. The creating thread must keep the root
/// slot given to the constructor set for the store's lifetime (it pins
/// the table object).
class KvStore {
public:
  /// Result of a get: Corrupt means the entry existed but its value
  /// failed the integrity stamp — the collector broke something.
  enum class GetResult { Hit, Miss, Corrupt };

  /// Allocates the table object through \p OwnerCtx and roots it in
  /// \p OwnerRootSlot (which must stay set while the store lives).
  KvStore(GcHeap &Heap, MutatorContext &OwnerCtx, size_t OwnerRootSlot,
          const KvStoreConfig &Config);
  ~KvStore();

  KvStore(const KvStore &) = delete;
  KvStore &operator=(const KvStore &) = delete;

  /// Inserts or overwrites \p Key with a fresh value of \p ValueBytes
  /// payload stamped from \p Nonce. Returns false only when the heap is
  /// exhausted (allocation failed after the whole degradation ladder).
  bool set(MutatorContext &Ctx, const char *Key, size_t KeyLen,
           size_t ValueBytes, uint64_t Nonce);

  /// Looks up \p Key and integrity-checks the value payload.
  GetResult get(const char *Key, size_t KeyLen) const;

  /// Removes \p Key; returns whether it was present.
  bool del(MutatorContext &Ctx, const char *Key, size_t KeyLen);

  /// Current number of live entries (racy read; exact when quiescent).
  size_t liveEntries() const {
    return EntryCount.load(std::memory_order_relaxed);
  }

  /// Entries evicted by the churn bound so far.
  uint64_t evictions() const {
    return Evictions.load(std::memory_order_relaxed);
  }

  /// Full-table integrity walk: every entry hashes to its bucket, every
  /// value verifies against its stamp, and the entry count matches.
  /// Returns false and fills \p Error on the first violation. Call from
  /// an attached thread while no other thread mutates the store.
  bool verifyAll(std::string *Error = nullptr) const;

  const KvStoreConfig &config() const { return Cfg; }

  /// Smallest value payload (the integrity stamp must fit).
  static constexpr size_t MinValueBytes = 16;

private:
  unsigned bucketFor(uint64_t Hash) const;
  SpinLock &stripe(unsigned Bucket) const;
  /// Evicts tail entries from round-robin buckets until the live count
  /// is back under MaxEntries (bounded scan; never takes two stripes).
  void evictOverflow(MutatorContext &Ctx);
  bool verifyBucket(unsigned Bucket, size_t *LiveSeen,
                    std::string *Error) const;

  GcHeap &Heap;
  const KvStoreConfig Cfg;
  const unsigned NumStripes; // power of two <= Buckets
  /// The table object; pinned via the owner's root slot, so the raw
  /// pointer stays valid across compactions.
  Object *Table;
  std::unique_ptr<SpinLock[]> Stripes;
  CGC_ATOMIC_DOC("relaxed live-entry count; ops add/sub, reports read racily")
  std::atomic<size_t> EntryCount{0};
  CGC_ATOMIC_DOC("relaxed eviction counter")
  std::atomic<uint64_t> Evictions{0};
  CGC_ATOMIC_DOC("relaxed round-robin eviction cursor")
  mutable std::atomic<unsigned> EvictCursor{0};
};

/// FNV-1a hash of a key (exposed so tests can pre-place collisions).
uint64_t kvHashKey(const char *Key, size_t KeyLen);

/// Configuration of the closed-loop KvStore exercise workload (the
/// open-loop latency driver lives in workloads/OpenLoop.h; this
/// workload is the correctness/soak shape used by the test matrix).
struct KvWorkloadConfig {
  unsigned Threads = 3;
  uint64_t DurationMs = 1000;
  /// Distinct keys the request mix draws from.
  size_t KeySpace = 8192;
  /// Value payload bounds (uniform per set).
  size_t MinValueBytes = 32;
  size_t MaxValueBytes = 512;
  /// Request mix: gets, deletes, remainder sets.
  double GetFraction = 0.70;
  double DeleteFraction = 0.05;
  KvStoreConfig Store;
  uint64_t Seed = 0x6eed5;
};

/// Hammers a KvStore from N threads with a get/set/delete mix, then
/// runs the full-table integrity walk. Transactions = requests served;
/// IntegrityFailure set on any Corrupt get, failed walk, or live-set
/// bound violation.
class KvWorkload {
public:
  KvWorkload(GcHeap &Heap, const KvWorkloadConfig &Config)
      : Heap(Heap), Config(Config) {}

  WorkloadResult run();

private:
  void threadMain(unsigned Index, KvStore &Store, uint64_t DeadlineNs,
                  WorkloadResult &Result);

  GcHeap &Heap;
  KvWorkloadConfig Config;
};

/// One request of the standard kv mix against \p Store: rolls the op
/// from \p Rng per \p Config's fractions and executes it. Returns false
/// on an integrity violation (Corrupt get) — allocation failure on a
/// set counts as served (the degradation ladder already reported it).
/// Shared by KvWorkload's threads and the open-loop bench driver so the
/// two measure the same per-request work.
bool kvServeOne(GcHeap &Heap, MutatorContext &Ctx, KvStore &Store,
                const KvWorkloadConfig &Config, Random &Rng);

} // namespace cgc

#endif // CGC_WORKLOADS_KVSERVER_H
