//===- Trace.h - Chrome trace of a traced phase -----------------*- C++ -*-===//
///
/// \file
/// Writes one Chrome trace (chrome://tracing, Perfetto) per traced run:
/// the collector's own event stream, exported by ChromeTraceExporter,
/// merged with the benchmark's request spans: every request above p99
/// and every 100th other one. Each exported request is a
/// "request" span from its scheduled start to completion, with one child
/// span per call into the heap or the store; all carry the request id.
///
//===----------------------------------------------------------------------===//

#ifndef SERVERBENCH_TRACE_H
#define SERVERBENCH_TRACE_H

#include "Bench.h"
#include "Report.h"

#include <string>
#include <vector>

namespace serverbench {

/// Writes \p T's trace to \p Path with \p StampJson (a JSON object) as
/// the document's "otherData". Returns false on I/O failure.
bool writeChromeTrace(const std::string &Path, const PhaseResult &T,
                      const std::vector<TailCause> &Tail,
                      const std::string &StampJson);

} // namespace serverbench

#endif // SERVERBENCH_TRACE_H
