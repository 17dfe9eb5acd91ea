//===- Bench.h - GC-active server benchmark: shared types -------*- C++ -*-===//
///
/// \file
/// Types shared by the benchmark's workload runners, its trace recorder
/// and its report. The benchmark drives the collector only through the
/// library's public API (GcHeap, MutatorContext, KvStore, OpenLoopDriver,
/// WarehouseWorkload, GcStatsCollector, PacketPool::stats and the
/// ThreadRegistry counters) and times the calls into each layer from
/// here.
///
/// A run is one or two *phases*. A phase builds a fresh heap (the timed
/// set-up), drives one workload for a fixed wall-clock window, then
/// checks the program's outputs outside that window.
///
//===----------------------------------------------------------------------===//

#ifndef SERVERBENCH_BENCH_H
#define SERVERBENCH_BENCH_H

#include "gc/GcStats.h"
#include "observe/EventRing.h"
#include "workpackets/PacketPool.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace serverbench {

enum class WorkloadKind { KvOpen, KvClosed, Warehouse };

/// The child spans the benchmark records inside one request, in call
/// order. KvOp is the single KvStore::get/set/del call.
enum class Child : unsigned { Poll, AllocRequest, AllocKey, KvOp, AllocResponse };
constexpr unsigned NumChildren = 5;

enum class KvOp : uint8_t { Get, Set, Del };

/// One traced request: its window on the client's clock, plus each
/// child span as an offset from Enter (the moment the benchmark's
/// service code was entered). Open loop: Sched is the scheduled start,
/// Send the actual one. Closed loop: Sched == Send == Enter.
struct RequestRecord {
  uint64_t Sched = 0;
  uint64_t Send = 0;
  uint64_t Done = 0;
  uint64_t Enter = 0;
  std::array<uint32_t, NumChildren> ChildStart{};
  std::array<uint32_t, NumChildren> ChildDur{};
  KvOp Op = KvOp::Get;

  uint64_t childBegin(Child C) const {
    return Enter + ChildStart[static_cast<unsigned>(C)];
  }
  uint64_t childEnd(Child C) const {
    return childBegin(C) + ChildDur[static_cast<unsigned>(C)];
  }
};

/// Exact order statistics of nanosecond samples in bounded memory: one
/// counter per nanosecond value below DenseLimitNs, and the raw values
/// at or above it (the rare slow ones). Quantiles are exact sample
/// values, and memory does not grow with the request rate.
class ExactSamples {
public:
  static constexpr uint64_t DenseLimitNs = 200000;

  void add(uint64_t Ns) {
    if (Ns < DenseLimitNs) {
      if (Dense.empty())
        Dense.assign(DenseLimitNs, 0);
      ++Dense[Ns];
    } else {
      Sparse.push_back(Ns);
    }
    ++N;
  }
  void merge(const ExactSamples &Other);
  uint64_t count() const { return N; }
  /// Samples strictly greater than \p Ns.
  uint64_t countAbove(uint64_t Ns) const;
  /// Nearest-rank quantile \p Q in [0, 1] (0 when empty).
  uint64_t quantile(double Q);

private:
  std::vector<uint32_t> Dense;
  std::vector<uint64_t> Sparse;
  uint64_t N = 0;
};

/// Requests served by one client in one phase. Requests below Records'
/// capacity are traced (traced phases only).
struct ClientLog {
  /// Latency from the scheduled start (open loop) or from when the
  /// client was ready to send (closed loop), for every request.
  ExactSamples Latency;
  /// Send minus scheduled start (open loop) or ready time (the probe).
  ExactSamples Queue;
  std::vector<RequestRecord> Records;
  uint64_t Unrecorded = 0;
};

/// Counters of the request service, summed over clients.
struct ServiceCounts {
  uint64_t Attempted = 0;
  /// Requests that did not complete their work: a failed allocation, a
  /// refused set, or a corrupt read.
  uint64_t Failed = 0;
  /// The subset of Failed that read corrupt data (a collector bug).
  uint64_t Corrupt = 0;
};

/// Everything one phase measured.
struct PhaseResult {
  WorkloadKind Kind = WorkloadKind::KvOpen;
  bool Traced = false;
  double SetupSeconds = 0;
  double WindowSeconds = 0;
  uint64_t HeapBytes = 0;

  /// Workload output: completed operations (requests, or warehouse
  /// transactions) and their rate.
  uint64_t Completed = 0;
  double ThroughputPerSec = 0;
  uint64_t BytesAllocated = 0;

  /// Request clients (the KV clients, or warehouse's latency probe).
  std::vector<ClientLog> Clients;
  ServiceCounts Service;
  /// Open-loop accounting (zero for closed loops).
  uint64_t Scheduled = 0;
  uint64_t LateStarts = 0;
  uint64_t DroppedSamples = 0;

  /// Collector state over the window.
  std::vector<cgc::CycleRecord> Cycles;
  cgc::EscalationCounts Escalations;
  cgc::PacketPoolStats Pool;
  uint64_t StallWarnings = 0;
  uint64_t FenceTimeouts = 0;
  /// Traced phases: fence-handshake latency p99 from the observer's
  /// histogram, and the merged GC event stream.
  double FenceHandshakeP99Ms = 0;
  std::vector<cgc::EventRecord> Events;
  uint64_t DroppedEvents = 0;

  /// Correctness gate outcome (checked outside the window).
  bool Correct = true;
  std::vector<std::string> Errors;

  void fail(std::string Why) {
    Correct = false;
    Errors.push_back(std::move(Why));
  }
};

/// Runs one phase of \p Kind for \p Seconds on a heap built from
/// \p Seed. \p SetupReps > 1 first builds and discards that many - 1
/// heaps, so SetupSeconds is the median over all of them.
PhaseResult runPhase(WorkloadKind Kind, uint64_t Seed, double Seconds,
                     bool Traced, unsigned SetupReps);

/// The smallest number of GC cycles a phase must complete per second of
/// its window; a phase below it is invalid ("no GC, no number").
constexpr double MinCyclesPerSecond = 2.0;

} // namespace serverbench

#endif // SERVERBENCH_BENCH_H
