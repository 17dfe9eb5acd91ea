//===- Report.cpp - Metrics from phase results ----------------------------===//

#include "Report.h"

#include <algorithm>
#include <cmath>
#include <map>

using namespace cgc;
using namespace serverbench;

void ExactSamples::merge(const ExactSamples &Other) {
  if (!Other.Dense.empty()) {
    if (Dense.empty())
      Dense.assign(DenseLimitNs, 0);
    for (size_t I = 0; I < DenseLimitNs; ++I)
      Dense[I] += Other.Dense[I];
  }
  Sparse.insert(Sparse.end(), Other.Sparse.begin(), Other.Sparse.end());
  N += Other.N;
}

uint64_t ExactSamples::countAbove(uint64_t Ns) const {
  uint64_t Above = 0;
  for (size_t I = Ns + 1; I < Dense.size(); ++I)
    Above += Dense[I];
  for (uint64_t V : Sparse)
    Above += V > Ns;
  return Above;
}

uint64_t ExactSamples::quantile(double Q) {
  if (N == 0)
    return 0;
  double RankD = std::ceil(Q * static_cast<double>(N));
  uint64_t Rank = RankD < 1 ? 1 : std::min(N, static_cast<uint64_t>(RankD));
  uint64_t Seen = 0;
  for (size_t I = 0; I < Dense.size(); ++I) {
    Seen += Dense[I];
    if (Seen >= Rank)
      return I;
  }
  std::sort(Sparse.begin(), Sparse.end());
  return Sparse[Rank - Seen - 1];
}

const char *serverbench::tailCauseName(TailCause Cause) {
  switch (Cause) {
  case TailCause::NotTail:
    return "none";
  case TailCause::FinalPause:
    return "final_pause";
  case TailCause::StwEntry:
    return "stw_entry";
  case TailCause::InRequestGc:
    return "in_request_gc";
  case TailCause::Queueing:
    return "queueing";
  case TailCause::Unattributed:
    return "unattributed";
  }
  return "invalid";
}

namespace {

/// Nearest-rank quantile \p Q of \p Values (sorted in place).
double exactQuantile(std::vector<double> &Values, double Q) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Rank = std::ceil(Q * static_cast<double>(Values.size()));
  size_t Index = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return Values[std::min(Index, Values.size() - 1)];
}

struct Interval {
  uint64_t Begin = 0;
  uint64_t End = 0;
  /// Pauses only: when the world had stopped (Begin + StopMs).
  uint64_t Stopped = 0;
};

/// GC activity recovered from the traced phase's event stream.
struct GcTimeline {
  /// Final pauses, in time order (they never overlap).
  std::vector<Interval> Pauses;
  /// Mutator tracing quanta, sorted by Begin (may overlap across threads).
  std::vector<Interval> Quanta;
  /// Allocation-ladder rungs (instants), sorted.
  std::vector<uint64_t> Rungs;

  explicit GcTimeline(const PhaseResult &R) {
    std::map<uint64_t, double> StopMs;
    for (const CycleRecord &C : R.Cycles)
      StopMs[C.CycleNumber] = C.StopMs;
    std::map<uint64_t, uint64_t> OpenPause;    // cycle -> StwBegin time
    std::map<uint32_t, uint64_t> OpenQuantum;  // thread -> IncTraceBegin
    for (const EventRecord &E : R.Events) {
      switch (E.Kind) {
      case EventKind::StwBegin:
        OpenPause[E.Arg0] = E.TimeNs;
        break;
      case EventKind::StwEnd: {
        auto It = OpenPause.find(E.Arg0);
        if (It == OpenPause.end())
          break;
        Interval P{It->second, E.TimeNs, It->second};
        auto Stop = StopMs.find(E.Arg0);
        if (Stop != StopMs.end())
          P.Stopped = std::min(
              P.End, P.Begin + static_cast<uint64_t>(Stop->second * 1e6));
        Pauses.push_back(P);
        OpenPause.erase(It);
        break;
      }
      case EventKind::IncTraceBegin:
        OpenQuantum[E.ThreadId] = E.TimeNs;
        break;
      case EventKind::IncTraceEnd: {
        auto It = OpenQuantum.find(E.ThreadId);
        if (It == OpenQuantum.end())
          break;
        Quanta.push_back({It->second, E.TimeNs, 0});
        OpenQuantum.erase(It);
        break;
      }
      case EventKind::AllocLadderRung:
        Rungs.push_back(E.TimeNs);
        break;
      default:
        break;
      }
    }
    auto ByBegin = [](const Interval &A, const Interval &B) {
      return A.Begin < B.Begin;
    };
    std::sort(Pauses.begin(), Pauses.end(), ByBegin);
    std::sort(Quanta.begin(), Quanta.end(), ByBegin);
    std::sort(Rungs.begin(), Rungs.end());
  }

  /// The pause overlapping [A, B), if any.
  const Interval *pauseOverlapping(uint64_t A, uint64_t B) const {
    auto It = std::upper_bound(
        Pauses.begin(), Pauses.end(), A,
        [](uint64_t T, const Interval &P) { return T < P.End; });
    if (It != Pauses.end() && It->Begin < B)
      return &*It;
    return nullptr;
  }

  /// Whether a quantum or a ladder rung lies inside [A, B].
  bool gcInside(uint64_t A, uint64_t B) const {
    auto Q = std::lower_bound(
        Quanta.begin(), Quanta.end(), A,
        [](const Interval &I, uint64_t T) { return I.Begin < T; });
    for (; Q != Quanta.end() && Q->Begin <= B; ++Q)
      if (Q->End <= B)
        return true;
    auto Rung = std::lower_bound(Rungs.begin(), Rungs.end(), A);
    return Rung != Rungs.end() && *Rung <= B;
  }
};

/// All latencies, or all queueing delays, of all clients.
ExactSamples merged(const PhaseResult &R, ExactSamples ClientLog::*Field) {
  ExactSamples All;
  for (const ClientLog &C : R.Clients)
    All.merge(C.*Field);
  return All;
}

double micros(uint64_t Ns) { return static_cast<double>(Ns) / 1e3; }

double ratio(double A, double B) { return B > 0 ? A / B : 0; }

/// Request latency of a traced record.
uint64_t latencyOf(const RequestRecord &Rec) { return Rec.Done - Rec.Sched; }

template <typename FnT> void forEachRecord(const PhaseResult &R, FnT Fn) {
  for (const ClientLog &C : R.Clients)
    for (size_t I = 0; I < C.Records.size(); ++I)
      Fn(C.Records[I], I == 0 ? nullptr : &C.Records[I - 1]);
}

/// The request-latency limit of slo_miss_frac.
constexpr uint64_t SloLatencyNs = 1000000;

constexpr Child HeapChildren[] = {Child::Poll, Child::AllocRequest,
                                  Child::AllocKey, Child::KvOp,
                                  Child::AllocResponse};

} // namespace

std::vector<TailCause> serverbench::classifyTail(const PhaseResult &R) {
  std::vector<double> Lat;
  forEachRecord(R, [&](const RequestRecord &Rec, const RequestRecord *) {
    Lat.push_back(static_cast<double>(latencyOf(Rec)));
  });
  std::vector<TailCause> Causes;
  if (Lat.empty())
    return Causes;
  double P50 = exactQuantile(Lat, 0.50);
  double P99 = exactQuantile(Lat, 0.99);

  GcTimeline Gc(R);
  forEachRecord(R, [&](const RequestRecord &Rec, const RequestRecord *Prev) {
    double Latency = static_cast<double>(latencyOf(Rec));
    if (Latency <= P99) {
      Causes.push_back(TailCause::NotTail);
      return;
    }
    double HalfExcess = (Latency - P50) / 2;
    if (const Interval *P = Gc.pauseOverlapping(Rec.Sched, Rec.Done)) {
      bool Stopped = P->Stopped < P->End && Rec.Done > P->Stopped;
      Causes.push_back(Stopped ? TailCause::FinalPause : TailCause::StwEntry);
      return;
    }
    double InHeap = 0;
    bool GcInCall = false;
    for (Child C : HeapChildren) {
      InHeap += Rec.ChildDur[static_cast<unsigned>(C)];
      GcInCall |= Gc.gcInside(Rec.childBegin(C), Rec.childEnd(C));
    }
    if (GcInCall || InHeap >= HalfExcess) {
      Causes.push_back(TailCause::InRequestGc);
      return;
    }
    bool BehindPrev = Prev && Prev->Done > Rec.Sched;
    if (BehindPrev && static_cast<double>(Rec.Send - Rec.Sched) >= HalfExcess) {
      Causes.push_back(TailCause::Queueing);
      return;
    }
    Causes.push_back(TailCause::Unattributed);
  });
  return Causes;
}

std::vector<Metric> serverbench::endToEndMetrics(const PhaseResult &R,
                                                 double PeakRssMb) {
  ExactSamples Lat = merged(R, &ClientLog::Latency);
  std::vector<double> Pauses;
  for (const CycleRecord &C : R.Cycles)
    Pauses.push_back(C.PauseMs);
  return {
      {"throughput_per_s", R.ThroughputPerSec, "1/s"},
      {"req_p50_us", micros(Lat.quantile(0.50)), "us"},
      {"gc_pause_p50_ms", exactQuantile(Pauses, 0.50), "ms"},
      {"peak_rss_mb", PeakRssMb, "MB"},
      {"setup_s", R.SetupSeconds, "s"},
  };
}

namespace {

/// The workload's headline metric, for the tracing overhead: request
/// p50 latency on the open loop (its throughput is the offered rate),
/// throughput on the closed loops (as a cost: lower is better).
double overheadBase(const PhaseResult &R) {
  if (R.Kind == WorkloadKind::KvOpen)
    return micros(merged(R, &ClientLog::Latency).quantile(0.50));
  return R.ThroughputPerSec > 0 ? 1.0 / R.ThroughputPerSec : 0;
}

} // namespace

std::vector<Metric> serverbench::perLayerMetrics(
    const PhaseResult &T, const PhaseResult &Untraced,
    const std::vector<TailCause> &Tail) {
  // --- Span-derived samples (benchmark-side timing of each call).
  std::vector<double> Alloc, Poll, Service, Get, Set;
  double Total = 0, AllocSum = 0, PollSum = 0, KvSum = 0, ServiceSum = 0;
  GcTimeline Gc(T);
  std::vector<double> GenLag;
  uint64_t Unrecorded = 0;
  for (const ClientLog &C : T.Clients)
    Unrecorded += C.Unrecorded;
  forEachRecord(T, [&](const RequestRecord &Rec, const RequestRecord *Prev) {
    auto Dur = [&](Child C) {
      return static_cast<double>(Rec.ChildDur[static_cast<unsigned>(C)]);
    };
    for (Child C : {Child::AllocRequest, Child::AllocKey,
                    Child::AllocResponse}) {
      Alloc.push_back(Dur(C));
      AllocSum += Dur(C);
    }
    Poll.push_back(Dur(Child::Poll));
    PollSum += Dur(Child::Poll);
    KvSum += Dur(Child::KvOp);
    if (Rec.Op == KvOp::Get)
      Get.push_back(Dur(Child::KvOp));
    else if (Rec.Op == KvOp::Set)
      Set.push_back(Dur(Child::KvOp));
    double ServiceNs = static_cast<double>(Rec.Done - Rec.Send);
    Service.push_back(ServiceNs);
    ServiceSum += ServiceNs;
    Total += static_cast<double>(latencyOf(Rec));
    // The generator's own lateness: the client was free when the slot
    // came due and no pause overlapped the wait.
    if (Rec.Send > Rec.Sched && (!Prev || Prev->Done <= Rec.Sched) &&
        !Gc.pauseOverlapping(Rec.Sched, Rec.Send + 1))
      GenLag.push_back(static_cast<double>(Rec.Send - Rec.Sched));
  });

  // --- Tail breakdown.
  std::array<uint64_t, 6> Causes{};
  for (TailCause C : Tail)
    ++Causes[static_cast<unsigned>(C)];
  uint64_t TailCount = Tail.size() - Causes[0];
  auto TailShare = [&](TailCause C) {
    return ratio(static_cast<double>(Causes[static_cast<unsigned>(C)]),
                 static_cast<double>(TailCount));
  };

  // --- Collector records over the window.
  double PauseSum = 0, SweepSum = 0, StackSum = 0, FinalMarkSum = 0,
         FinalCardMs = 0, ConcMs = 0, HeapSum = 0, LiveFrac = 0,
         FactorStd = 0;
  double CardsFinal = 0, CardsLeft = 0, TracedFinal = 0, TracedConc = 0,
         TracedBg = 0, AllocConc = 0, FreeAtCompletion = 0, Overflows = 0,
         Deferred = 0;
  unsigned Concurrently = 0;
  std::vector<double> Stop;
  for (const CycleRecord &C : T.Cycles) {
    PauseSum += C.PauseMs;
    SweepSum += C.SweepMs;
    StackSum += C.StackRescanMs;
    FinalMarkSum += C.FinalMarkMs;
    FinalCardMs += C.FinalCardCleanMs;
    ConcMs += C.ConcurrentPhaseMs;
    HeapSum += static_cast<double>(C.HeapBytes);
    LiveFrac += ratio(static_cast<double>(C.LiveBytesAfter),
                      static_cast<double>(C.HeapBytes));
    FactorStd += C.TracingFactorStddev;
    CardsFinal += static_cast<double>(C.CardsCleanedFinal);
    CardsLeft += static_cast<double>(C.CardsLeftAtFailure);
    TracedFinal += static_cast<double>(C.BytesTracedFinal);
    TracedConc += static_cast<double>(C.BytesTracedConcurrent);
    TracedBg += static_cast<double>(C.BytesTracedByBackground);
    AllocConc += static_cast<double>(C.BytesAllocatedConcurrent);
    Overflows += static_cast<double>(C.Overflows);
    Deferred += static_cast<double>(C.DeferredObjects);
    if (C.CompletedConcurrently) {
      ++Concurrently;
      FreeAtCompletion += ratio(static_cast<double>(C.FreeAtConcurrentCompletion),
                                static_cast<double>(C.HeapBytes));
    }
    Stop.push_back(C.StopMs);
  }
  double N = static_cast<double>(T.Cycles.size());
  uint64_t Escalations = 0;
  for (uint64_t R : T.Escalations.Rungs)
    Escalations += R;
  constexpr double MB = 1 << 20;

  double Untr = overheadBase(Untraced), Tr = overheadBase(T);
  ExactSamples ULat = merged(Untraced, &ClientLog::Latency);
  std::vector<double> UPauses;
  for (const CycleRecord &C : Untraced.Cycles)
    UPauses.push_back(C.PauseMs);

  return {
      {"runtime.allocate.ns_p50", exactQuantile(Alloc, 0.50), "ns"},
      {"runtime.allocate.ns_p99", exactQuantile(Alloc, 0.99), "ns"},
      {"runtime.allocate.service_share", ratio(AllocSum, ServiceSum), "frac"},
      {"runtime.ladder.escalations", static_cast<double>(Escalations), "count"},
      {"runtime.safepoint.wait_us_p99", exactQuantile(Poll, 0.99) / 1e3, "us"},
      {"mutator.stw_entry_ms_p90", exactQuantile(Stop, 0.90), "ms"},
      {"mutator.stw_entry_ms_max", exactQuantile(Stop, 1.0), "ms"},
      {"mutator.fence_handshake_ms_p99", T.FenceHandshakeP99Ms, "ms"},
      {"mutator.stall_warnings", static_cast<double>(T.StallWarnings), "count"},
      {"mutator.fence_timeouts", static_cast<double>(T.FenceTimeouts), "count"},
      {"gc.cycles", N, "count"},
      {"gc.cycles_per_gb",
       ratio(N, static_cast<double>(T.BytesAllocated) / 1e9), "1/GB"},
      {"gc.pause_p90_ms", exactQuantile(UPauses, 0.90), "ms"},
      {"gc.pause_max_ms", exactQuantile(UPauses, 1.0), "ms"},
      {"gc.paused_frac", ratio(PauseSum, T.WindowSeconds * 1e3), "frac"},
      {"gc.pacer.free_at_completion_frac", ratio(FreeAtCompletion, Concurrently),
       "frac"},
      {"gc.pacer.completed_concurrently_frac", ratio(Concurrently, N), "frac"},
      {"gc.pacer.k_actual", ratio(TracedConc, AllocConc), "ratio"},
      {"gc.live_after_frac", ratio(LiveFrac, N), "frac"},
      {"gc.tracer.final_mb_per_s", ratio(TracedFinal / MB, FinalMarkSum / 1e3),
       "MB/s"},
      {"gc.tracer.final_mark_ms_avg", ratio(FinalMarkSum, N), "ms"},
      {"gc.tracer.factor_stddev", ratio(FactorStd, N), "ratio"},
      {"gc.tracer.concurrent_mb_per_s", ratio(TracedConc / MB, ConcMs / 1e3),
       "MB/s"},
      {"gc.tracer.background_frac", ratio(TracedBg, TracedConc), "frac"},
      {"workpackets.sync_ops_per_mb",
       ratio(static_cast<double>(T.Pool.SyncOps),
             (TracedConc + TracedFinal) / MB),
       "1/MB"},
      {"workpackets.overflows", Overflows, "count"},
      {"workpackets.deferred_objects", Deferred, "count"},
      {"workpackets.in_use_watermark",
       static_cast<double>(T.Pool.PacketsInUseWatermark), "count"},
      {"gc.cards.cleaned_final_avg", ratio(CardsFinal, N), "count"},
      {"gc.cards.final_ns_per_card", ratio(FinalCardMs * 1e6, CardsFinal), "ns"},
      {"gc.cards.left_at_failure_avg", ratio(CardsLeft, N), "count"},
      {"gc.pause.stack_rescan_ms_avg", ratio(StackSum, N), "ms"},
      {"gc.sweeper.mb_per_s", ratio(HeapSum / MB, SweepSum / 1e3), "MB/s"},
      {"gc.sweeper.pause_share", ratio(SweepSum, PauseSum), "frac"},
      {"workloads.req_p99_us", micros(ULat.quantile(0.99)), "us"},
      {"workloads.req_p999_us", micros(ULat.quantile(0.999)), "us"},
      {"workloads.req_max_us", micros(ULat.quantile(1.0)), "us"},
      {"workloads.slo_miss_frac",
       ratio(static_cast<double>(ULat.countAbove(SloLatencyNs) +
                                 Untraced.Service.Failed),
             static_cast<double>(Untraced.Service.Attempted)),
       "frac"},
      {"workloads.kv.service_us_p50", exactQuantile(Service, 0.50) / 1e3, "us"},
      {"workloads.kv.service_us_p99", exactQuantile(Service, 0.99) / 1e3, "us"},
      {"workloads.kv.get_ns_p50", exactQuantile(Get, 0.50), "ns"},
      {"workloads.kv.set_ns_p99", exactQuantile(Set, 0.99), "ns"},
      {"workloads.openloop.queue_us_p99",
       micros(merged(T, &ClientLog::Queue).quantile(0.99)), "us"},
      {"workloads.openloop.late_start_frac",
       ratio(static_cast<double>(T.LateStarts), static_cast<double>(T.Scheduled)),
       "frac"},
      {"workloads.openloop.gen_lag_us_p99", exactQuantile(GenLag, 0.99) / 1e3,
       "us"},
      {"workloads.failed_frac",
       ratio(static_cast<double>(T.Service.Failed),
             static_cast<double>(T.Service.Attempted)),
       "frac"},
      {"tail.requests", static_cast<double>(TailCount), "count"},
      {"tail.final_pause_frac", TailShare(TailCause::FinalPause), "frac"},
      {"tail.stw_entry_frac", TailShare(TailCause::StwEntry), "frac"},
      {"tail.in_request_gc_frac", TailShare(TailCause::InRequestGc), "frac"},
      {"tail.queueing_frac", TailShare(TailCause::Queueing), "frac"},
      {"tail.unattributed_frac", TailShare(TailCause::Unattributed), "frac"},
      {"trace.self_frac.request", ratio(Total - AllocSum - PollSum - KvSum, Total),
       "frac"},
      {"trace.self_frac.poll", ratio(PollSum, Total), "frac"},
      {"trace.self_frac.allocate", ratio(AllocSum, Total), "frac"},
      {"trace.self_frac.kv", ratio(KvSum, Total), "frac"},
      {"trace.overhead_frac", ratio(Tr - Untr, Untr), "frac"},
      {"trace.dropped_events", static_cast<double>(T.DroppedEvents), "count"},
      {"trace.unrecorded_requests", static_cast<double>(Unrecorded), "count"},
  };
}
