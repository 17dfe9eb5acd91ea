//===- Report.h - Metrics from phase results --------------------*- C++ -*-===//
///
/// \file
/// Turns raw phase results into the benchmark's named metrics. Every
/// quantile is exact: computed by rank over the raw samples (request
/// latencies, CycleRecord::PauseMs, span durations), never read from a
/// bucketed histogram whose bucket edges would move a quantile by up
/// to 12.5%.
///
//===----------------------------------------------------------------------===//

#ifndef SERVERBENCH_REPORT_H
#define SERVERBENCH_REPORT_H

#include "Bench.h"

#include <cstdint>
#include <string>
#include <vector>

namespace serverbench {

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// Where the time of one slow request went (see classifyTail).
enum class TailCause : uint8_t {
  NotTail,
  FinalPause,
  StwEntry,
  InRequestGc,
  Queueing,
  Unattributed
};
const char *tailCauseName(TailCause Cause);

/// Classifies every traced request above the p99 latency of the traced
/// requests, by the GC activity that overlaps its scheduled-start-to-done
/// window. The first matching cause wins:
///   FinalPause   the window overlaps a final pause after the world
///                stopped;
///   StwEntry     it overlaps only the stop-the-world entry of a pause
///                (StwBegin until StwBegin + CycleRecord::StopMs);
///   InRequestGc  a tracing quantum or allocation-ladder rung ran inside
///                one of the request's own calls, or its calls into the
///                heap and store took at least half its excess over the
///                p50 latency;
///   Queueing     it waited to be sent for at least half that excess
///                behind the same client's previous, unfinished request;
///   Unattributed anything else (e.g. a late wake-up of the driver).
/// Returns one cause per record, client by client in record order.
std::vector<TailCause> classifyTail(const PhaseResult &R);

/// End-to-end metrics of an untraced phase.
std::vector<Metric> endToEndMetrics(const PhaseResult &R, double PeakRssMb);

/// Per-layer metrics of a traced phase \p T; \p Untraced is the same
/// workload measured without tracing, for trace.overhead_frac.
std::vector<Metric> perLayerMetrics(const PhaseResult &T,
                                    const PhaseResult &Untraced,
                                    const std::vector<TailCause> &Tail);

} // namespace serverbench

#endif // SERVERBENCH_REPORT_H
