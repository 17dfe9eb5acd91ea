//===- Workloads.cpp - Phase runners for the three workloads --------------===//
///
/// kv-open   2 open-loop clients, Poisson arrivals at 20k req/s in total,
///           16 MB heap, store of 8192 entries.
/// kv-closed the same store, mix and garbage; 2 clients back to back,
///           32 MB heap.
/// warehouse WarehouseWorkload, 2 threads, live set 60% of a 48 MB
///           heap, plus one probe client against a small store on the
///           same heap that sleeps 200 us (idle) between requests, so the
///           workload reports the request latency a co-located service
///           sees without taking a core from the transactions.
///
/// Every heap runs the mostly-concurrent collector with its default
/// options except HeapBytes and BackgroundThreads = 1. Client, mutator
/// and background threads add up to at most 4.
///
/// The KV store holds 8192 entries, a sixth of kv-open's heap: with twice
/// as many the live set fragments a 16 MB heap so badly that the 1-3 KB
/// response buffers no longer fit, nearly every cycle ends in an
/// allocation failure and the process is paused most of the time.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "KvService.h"

#include "runtime/GcHeap.h"
#include "support/Timing.h"
#include "workloads/KvServer.h"
#include "workloads/OpenLoop.h"
#include "workloads/Warehouse.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

using namespace cgc;
using namespace serverbench;

namespace {

constexpr double KvOfferedPerSec = 20000;
constexpr unsigned KvClients = 2;
constexpr size_t KvOpenHeapBytes = 16u << 20;
/// kv-closed gets twice kv-open's heap. At 16 MB it ran about 100 cycles
/// a second and was paused 45% of the time, so host CPU steal, which
/// stretches every stop-the-world entry and parallel sweep, moved its
/// throughput by up to 2x between runs. At 32 MB it runs about 25
/// cycles a second, paused about 30%, and the GC is still its largest
/// cost.
constexpr size_t KvClosedHeapBytes = 32u << 20;
constexpr size_t KvEntries = 8192;

constexpr unsigned WarehouseThreads = 2;
constexpr size_t WarehouseHeapBytes = 48u << 20;
constexpr double WarehouseLiveFraction = 0.60;
/// The probe's think time between requests (spent asleep, idle).
constexpr uint64_t ProbeThinkNanos = 200000;
constexpr size_t ProbeEntries = 1024;

/// Traced requests kept per client (the rest are served and timed, not
/// traced); bounds the traced phase's memory.
constexpr size_t MaxRecordsPerClient = 1u << 19;

KvMix mixFor(WorkloadKind Kind) {
  KvMix Mix;
  if (Kind == WorkloadKind::Warehouse)
    Mix.KeySpace = 2 * ProbeEntries;
  return Mix;
}

/// A heap plus a prewarmed store, owned by the constructing thread.
class ServerEnv {
public:
  ServerEnv(WorkloadKind Kind, uint64_t Seed, bool Traced) : Mix(mixFor(Kind)) {
    GcOptions Opts;
    Opts.HeapBytes = Kind == WorkloadKind::Warehouse ? WarehouseHeapBytes
                     : Kind == WorkloadKind::KvOpen  ? KvOpenHeapBytes
                                                     : KvClosedHeapBytes;
    Opts.BackgroundThreads = 1;
    Opts.Observe = Traced;
    // Rings large enough that the drain thread never falls a full ring
    // behind a thread (a dropped StwBegin would hide a pause).
    Opts.ObserveRingEvents = 1u << 16;
    Heap = GcHeap::create(Opts);
    Owner = &Heap->attachThread();
    Owner->reserveRoots(1);

    size_t Entries = Kind == WorkloadKind::Warehouse ? ProbeEntries : KvEntries;
    KvStoreConfig Cfg;
    Cfg.MaxEntries = Entries;
    Cfg.Buckets = static_cast<unsigned>(Entries / 4);
    Store = std::make_unique<KvStore>(*Heap, *Owner, /*OwnerRootSlot=*/0, Cfg);
    PrewarmOk = prewarmStore(*Heap, *Owner, *Store, Mix, Entries, Seed);
  }

  ~ServerEnv() {
    Owner->setRoot(0, nullptr);
    Store.reset();
    Heap->detachThread(*Owner);
  }

  ServerEnv(const ServerEnv &) = delete;
  ServerEnv &operator=(const ServerEnv &) = delete;

  KvMix Mix;
  std::unique_ptr<GcHeap> Heap;
  MutatorContext *Owner = nullptr;
  std::unique_ptr<KvStore> Store;
  bool PrewarmOk = false;
};

/// Keeps the GC event kinds the report and the trace file use.
bool keepEvent(EventKind Kind) {
  switch (Kind) {
  case EventKind::CycleKickoff:
  case EventKind::CycleComplete:
  case EventKind::IncTraceBegin:
  case EventKind::IncTraceEnd:
  case EventKind::CardCleanPass:
  case EventKind::StwBegin:
  case EventKind::StwEnd:
  case EventKind::SweepSlice:
  case EventKind::AllocLadderRung:
  case EventKind::Overflow:
  case EventKind::StackScan:
  case EventKind::HandshakeStall:
  case EventKind::HandshakeAbort:
    return true;
  default:
    return false;
  }
}

/// Drains the observer's per-thread rings every few milliseconds so the
/// fixed-size rings never overwrite events of a long traced window.
class EventDrain {
public:
  explicit EventDrain(GcObserver &Obs) : Obs(Obs) {
    if (Obs.enabled())
      Worker = std::thread([this] {
        while (!Stop.load(std::memory_order_acquire)) {
          drainOnce();
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      });
  }

  ~EventDrain() { stop(); }

  EventDrain(const EventDrain &) = delete;
  EventDrain &operator=(const EventDrain &) = delete;

  /// Stops draining and returns every kept event in time order.
  std::vector<EventRecord> finish() {
    stop();
    if (Obs.enabled())
      drainOnce();
    std::stable_sort(Events.begin(), Events.end(),
                     [](const EventRecord &A, const EventRecord &B) {
                       return A.TimeNs < B.TimeNs;
                     });
    return std::move(Events);
  }

private:
  void stop() {
    Stop.store(true, std::memory_order_release);
    if (Worker.joinable())
      Worker.join();
  }

  void drainOnce() {
    for (const EventRecord &E : Obs.drainAll())
      if (keepEvent(E.Kind))
        Events.push_back(E);
  }

  GcObserver &Obs;
  std::vector<EventRecord> Events;
  std::atomic<bool> Stop{false};
  std::thread Worker;
};

/// What the request clients of one window produced.
struct ClientRun {
  std::vector<ClientLog> Clients;
  ServiceCounts Service;
  uint64_t Scheduled = 0;
  uint64_t LateStarts = 0;
  uint64_t DroppedSamples = 0;
  uint64_t BytesAllocated = 0;
  double Seconds = 0;
};

/// Open-loop clients against the env's store (kv-open).
ClientRun runOpenLoop(ServerEnv &Env, unsigned Clients, double Offered,
                      double Seconds, uint64_t Seed, bool Traced) {
  OpenLoopConfig Load;
  Load.Clients = Clients;
  Load.OfferedPerSec = Offered;
  Load.Kind = ArrivalKind::Exponential;
  Load.DurationMs = static_cast<uint64_t>(Seconds * 1000);
  Load.Seed = Seed * 0x9e3779b97f4a7c15ULL + 0x0be71007;

  KvService Service(*Env.Heap, *Env.Store, Env.Mix, Clients, Seed);
  std::vector<std::vector<RequestRecord>> Records(Clients);
  std::vector<uint64_t> FirstBytes(Clients, 0), LastBytes(Clients, 0);
  if (Traced)
    for (auto &R : Records)
      R.reserve(MaxRecordsPerClient);

  OpenLoopDriver Driver(Env.Heap.get(), Load);
  OpenLoopOutcome Out = Driver.run(
      [&](MutatorContext *Ctx, unsigned Client, uint64_t Index) {
        uint64_t Bytes = Ctx->BytesAllocated.load(std::memory_order_relaxed);
        if (Index == 0)
          FirstBytes[Client] = Bytes;
        RequestRecord *Rec = nullptr;
        if (Traced && Records[Client].size() < MaxRecordsPerClient) {
          Rec = &Records[Client].emplace_back();
          Rec->Enter = nowNanos();
        }
        bool Ok = Service.serve(*Ctx, Client, Index, Rec);
        LastBytes[Client] = Ctx->BytesAllocated.load(std::memory_order_relaxed);
        return Ok;
      });

  ClientRun Run;
  Run.Service = Service.counts();
  Run.Scheduled = Out.Counters.Scheduled;
  Run.LateStarts = Out.Counters.LateStarts;
  Run.DroppedSamples = Out.Counters.DroppedSamples;
  Run.Seconds = Out.DurationMs / 1e3;
  for (unsigned C = 0; C < Clients; ++C) {
    Run.BytesAllocated += LastBytes[C] - FirstBytes[C];
    const LatencyBuffer &Buf = Out.Buffers[C];
    ClientLog Log;
    for (size_t I = 0; I < Buf.size(); ++I) {
      Log.Latency.add(Buf.openLoopLatencyNanos(I));
      Log.Queue.add(Buf[I].SendNanos - Buf[I].SchedNanos);
    }
    // Sample I of the driver's buffer is request I of the client.
    std::vector<RequestRecord> &Recs = Records[C];
    Recs.resize(std::min(Recs.size(), Buf.size()));
    for (size_t I = 0; I < Recs.size(); ++I) {
      Recs[I].Sched = Buf[I].SchedNanos;
      Recs[I].Send = Buf[I].SendNanos;
      Recs[I].Done = Buf[I].DoneNanos;
    }
    Log.Unrecorded = Buf.size() - Recs.size();
    Log.Records = std::move(Recs);
    Run.Clients.push_back(std::move(Log));
  }
  return Run;
}

/// Closed-loop clients: each sends its next request once the last one
/// completed and, with \p ThinkNanos > 0, after sleeping that long in
/// an idle region. A request's latency counts from the moment its
/// client was ready to send, so a client that wakes into a pause and
/// parks in exitIdle is charged the rest of the pause.
ClientRun runClosedLoop(ServerEnv &Env, unsigned Clients, uint64_t ThinkNanos,
                        double Seconds, uint64_t Seed, bool Traced) {
  KvService Service(*Env.Heap, *Env.Store, Env.Mix, Clients, Seed);
  ClientRun Run;
  Run.Clients.resize(Clients);
  std::vector<uint64_t> Bytes(Clients, 0);
  uint64_t Start = nowNanos();
  uint64_t Deadline = Start + static_cast<uint64_t>(Seconds * 1e9);

  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      MutatorContext &Ctx = Env.Heap->attachThread();
      ClientLog &Log = Run.Clients[C];
      if (Traced)
        Log.Records.reserve(MaxRecordsPerClient);
      uint64_t FirstBytes = Ctx.BytesAllocated.load(std::memory_order_relaxed);
      for (uint64_t Seq = 0;; ++Seq) {
        uint64_t Ready = nowNanos();
        if (ThinkNanos > 0) {
          Env.Heap->enterIdle(Ctx);
          std::this_thread::sleep_for(std::chrono::nanoseconds(ThinkNanos));
          Ready = nowNanos();
          Env.Heap->exitIdle(Ctx);
        }
        if (Ready >= Deadline)
          break;
        RequestRecord *Rec = nullptr;
        if (Traced && Log.Records.size() < MaxRecordsPerClient)
          Rec = &Log.Records.emplace_back();
        else if (Traced)
          ++Log.Unrecorded;
        uint64_t Send = nowNanos();
        if (Rec) {
          Rec->Sched = Ready;
          Rec->Send = Rec->Enter = Send;
        }
        Service.serve(Ctx, C, Seq, Rec);
        uint64_t Done = nowNanos();
        if (Rec)
          Rec->Done = Done;
        Log.Latency.add(Done - Ready);
        if (ThinkNanos > 0)
          Log.Queue.add(Send - Ready);
      }
      Bytes[C] = Ctx.BytesAllocated.load(std::memory_order_relaxed) - FirstBytes;
      Env.Heap->detachThread(Ctx);
    });
  for (std::thread &T : Threads)
    T.join();

  Run.Seconds = static_cast<double>(nowNanos() - Start) / 1e9;
  Run.Service = Service.counts();
  for (uint64_t B : Bytes)
    Run.BytesAllocated += B;
  return Run;
}

void absorb(ClientRun &&Run, PhaseResult &R) {
  R.Clients = std::move(Run.Clients);
  R.Service = Run.Service;
  R.Scheduled = Run.Scheduled;
  R.LateStarts = Run.LateStarts;
  R.DroppedSamples = Run.DroppedSamples;
  R.BytesAllocated += Run.BytesAllocated;
}

void runWindow(WorkloadKind Kind, ServerEnv &Env, double Seconds,
               uint64_t Seed, bool Traced, PhaseResult &R) {
  switch (Kind) {
  case WorkloadKind::KvOpen: {
    ClientRun Run = runOpenLoop(Env, KvClients, KvOfferedPerSec, Seconds,
                                Seed, Traced);
    R.Completed = Run.Service.Attempted;
    R.WindowSeconds = Run.Seconds;
    absorb(std::move(Run), R);
    break;
  }
  case WorkloadKind::KvClosed: {
    ClientRun Run = runClosedLoop(Env, KvClients, 0, Seconds, Seed, Traced);
    R.Completed = Run.Service.Attempted;
    R.WindowSeconds = Run.Seconds;
    absorb(std::move(Run), R);
    break;
  }
  case WorkloadKind::Warehouse: {
    WarehouseConfig Cfg;
    Cfg.Threads = WarehouseThreads;
    Cfg.DurationMs = static_cast<uint64_t>(Seconds * 1000);
    Cfg.Seed = Seed;
    Cfg.sizeLiveSet(static_cast<size_t>(WarehouseLiveFraction *
                                        static_cast<double>(R.HeapBytes)));
    WorkloadResult Tx;
    std::thread Batch([&] { Tx = WarehouseWorkload(*Env.Heap, Cfg).run(); });
    ClientRun Probe =
        runClosedLoop(Env, 1, ProbeThinkNanos, Seconds, Seed, Traced);
    Batch.join();
    R.Completed = Tx.Transactions;
    R.WindowSeconds = Tx.DurationMs / 1e3;
    R.BytesAllocated = Tx.BytesAllocated;
    if (Tx.IntegrityFailure)
      R.fail("warehouse: WorkloadResult::IntegrityFailure");
    absorb(std::move(Probe), R);
    break;
  }
  }
  R.ThroughputPerSec = static_cast<double>(R.Completed) / R.WindowSeconds;
}

EscalationCounts minus(const EscalationCounts &A, const EscalationCounts &B) {
  EscalationCounts D;
  for (size_t I = 0; I < D.Rungs.size(); ++I)
    D.Rungs[I] = A.Rungs[I] - B.Rungs[I];
  D.WatchdogTrips = A.WatchdogTrips - B.WatchdogTrips;
  D.HandshakeAborts = A.HandshakeAborts - B.HandshakeAborts;
  return D;
}

} // namespace

PhaseResult serverbench::runPhase(WorkloadKind Kind, uint64_t Seed,
                                  double Seconds, bool Traced,
                                  unsigned SetupReps) {
  PhaseResult R;
  R.Kind = Kind;
  R.Traced = Traced;

  // Set-up: heap creation plus prewarm, timed SetupReps times; the last
  // heap is the one measured.
  std::vector<double> SetupTimes;
  for (unsigned I = 1; I < SetupReps; ++I) {
    Stopwatch Timer;
    ServerEnv Discarded(Kind, Seed, Traced);
    SetupTimes.push_back(Timer.elapsedMillis() / 1e3);
  }
  Stopwatch Timer;
  ServerEnv Env(Kind, Seed, Traced);
  SetupTimes.push_back(Timer.elapsedMillis() / 1e3);
  std::sort(SetupTimes.begin(), SetupTimes.end());
  R.SetupSeconds = SetupTimes[SetupTimes.size() / 2];
  if (!Env.PrewarmOk)
    R.fail("prewarm: a set failed");

  GcHeap &Heap = *Env.Heap;
  GcCore &Core = Heap.core();
  R.HeapBytes = Heap.options().HeapBytes;
  size_t CyclesBefore = Heap.stats().numCycles();
  EscalationCounts EscBefore = Heap.stats().escalations();
  PacketPoolStats PoolBefore = Core.Pool.stats();
  uint64_t StallsBefore = Core.Registry.stwStallWarnings();
  uint64_t TimeoutsBefore = Core.Registry.fenceTimeouts();

  {
    EventDrain Drain(Core.Obs);
    // The owner does no heap work while the clients run.
    Heap.enterIdle(*Env.Owner);
    runWindow(Kind, Env, Seconds, Seed, Traced, R);
    Heap.exitIdle(*Env.Owner);
    R.Events = Drain.finish();
  }

  std::vector<CycleRecord> All = Heap.stats().snapshot();
  R.Cycles.assign(All.begin() + static_cast<std::ptrdiff_t>(CyclesBefore),
                  All.end());
  R.Escalations = minus(Heap.stats().escalations(), EscBefore);
  R.Pool = Core.Pool.stats();
  R.Pool.SyncOps -= PoolBefore.SyncOps;
  R.StallWarnings = Core.Registry.stwStallWarnings() - StallsBefore;
  R.FenceTimeouts = Core.Registry.fenceTimeouts() - TimeoutsBefore;
  if (Traced) {
    R.FenceHandshakeP99Ms =
        static_cast<double>(
            Core.Obs.metrics().histogram(PauseMetric::FenceHandshake).quantile(
                0.99)) /
        1e6;
    R.DroppedEvents = Core.Obs.droppedEvents();
  }

  // The correctness gate, outside the timed window.
  if (R.Service.Corrupt > 0)
    R.fail("kv: " + std::to_string(R.Service.Corrupt) +
           " requests read corrupt data");
  std::string Error;
  if (!Env.Store->verifyAll(&Error))
    R.fail("KvStore::verifyAll: " + Error);
  VerifyResult Verify = Heap.verifyNow(Env.Owner);
  if (!Verify.Ok)
    R.fail("GcHeap::verifyNow: " + Verify.Error);
  double MinCycles = MinCyclesPerSecond * Seconds;
  if (static_cast<double>(R.Cycles.size()) < MinCycles)
    R.fail("only " + std::to_string(R.Cycles.size()) +
           " GC cycles in the window, below the minimum of " +
           std::to_string(static_cast<uint64_t>(MinCycles)));
  if (R.DroppedSamples > 0)
    R.fail("open loop dropped " + std::to_string(R.DroppedSamples) +
           " latency samples");
  return R;
}
