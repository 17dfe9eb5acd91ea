//===- Main.cpp - GC-active server benchmark driver -----------------------===//
///
/// Usage:
///   serverbench --workload kv-open|kv-closed|warehouse --seed N
///               --seconds S --trace 0|1 [--git-sha SHA]
///               [--out FILE] [--trace-out FILE]
///
/// --trace 0 measures the workload for S seconds with collector tracing
/// off and reports the end-to-end metrics. --trace 1 measures it for S/2
/// seconds untraced and then S/2 seconds traced (GcOptions::Observe on,
/// plus the benchmark's request spans), and reports the per-layer
/// metrics of the traced half; the untraced half gives the tracing
/// overhead.
///
/// The last line of standard output is one JSON object with the keys
/// correct, attempted, failed and metrics. --out receives the same
/// metrics stamped with the build and host; --trace-out the Chrome
/// trace of a traced run.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Report.h"
#include "Trace.h"

#include "observe/Json.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

using namespace cgc;
using namespace serverbench;

namespace {

const char *workloadName(WorkloadKind Kind) {
  switch (Kind) {
  case WorkloadKind::KvOpen:
    return "kv-open";
  case WorkloadKind::KvClosed:
    return "kv-closed";
  case WorkloadKind::Warehouse:
    return "warehouse";
  }
  return "invalid";
}

bool parseWorkload(const std::string &Name, WorkloadKind &Out) {
  for (WorkloadKind K : {WorkloadKind::KvOpen, WorkloadKind::KvClosed,
                         WorkloadKind::Warehouse})
    if (Name == workloadName(K)) {
      Out = K;
      return true;
    }
  return false;
}

/// Setups timed per untraced run (setup_s is their median).
constexpr unsigned SetupReps = 7;

struct Args {
  WorkloadKind Workload = WorkloadKind::KvOpen;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string GitSha = "unknown";
  std::string Out;
  std::string TraceOut;
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "serverbench: %s\nusage: serverbench --workload "
               "kv-open|kv-closed|warehouse --seed N --seconds S --trace 0|1 "
               "[--git-sha SHA] [--out FILE] [--trace-out FILE]\n",
               Why);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      if (!parseWorkload(Value, A.Workload))
        usage(("unknown workload " + Value).c_str());
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !Value.empty();
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
      HaveSeconds = End && *End == '\0' && A.Seconds >= 1 && A.Seconds <= 600;
    } else if (Flag == "--trace") {
      HaveTrace = Value == "0" || Value == "1";
      A.Trace = Value == "1";
    } else if (Flag == "--git-sha") {
      A.GitSha = Value;
    } else if (Flag == "--out") {
      A.Out = Value;
    } else if (Flag == "--trace-out") {
      A.TraceOut = Value;
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    usage("--workload, --seed, --seconds (1..600) and --trace 0|1 are required");
  return A;
}

double peakRssMb() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/// Build and host facts every output document carries.
void writeStamp(JsonWriter &W, const Args &A) {
  W.beginObject();
  W.key("workload");
  W.value(workloadName(A.Workload));
  W.key("seed");
  W.value(A.Seed);
  W.key("seconds");
  W.value(A.Seconds);
  W.key("trace");
  W.value(A.Trace);
  W.key("hardware_threads");
  W.value(uint64_t(std::thread::hardware_concurrency()));
#if defined(__clang__)
  W.key("compiler");
  W.value(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  W.key("compiler");
  W.value(std::string("gcc ") + __VERSION__);
#else
  W.key("compiler");
  W.value("unknown");
#endif
  W.key("build_type");
  W.value(SERVERBENCH_BUILD_TYPE);
  W.key("asserts");
#ifdef NDEBUG
  W.value(false);
#else
  W.value(true);
#endif
  W.key("git_sha");
  W.value(A.GitSha);
  W.endObject();
}

void writeMetrics(JsonWriter &W, const std::vector<Metric> &Metrics) {
  W.beginObject();
  for (const Metric &M : Metrics) {
    W.key(M.Name);
    W.beginObject();
    W.key("value");
    W.value(M.Value);
    W.key("unit");
    W.value(M.Unit);
    W.endObject();
  }
  W.endObject();
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);

  std::vector<PhaseResult> Phases;
  std::vector<Metric> Metrics;
  std::vector<TailCause> Tail;
  if (!A.Trace) {
    Phases.push_back(runPhase(A.Workload, A.Seed, A.Seconds, false, SetupReps));
    Metrics = endToEndMetrics(Phases[0], peakRssMb());
  } else {
    Phases.push_back(runPhase(A.Workload, A.Seed, A.Seconds / 2, false, 1));
    Phases.push_back(runPhase(A.Workload, A.Seed, A.Seconds / 2, true, 1));
    Tail = classifyTail(Phases[1]);
    Metrics = perLayerMetrics(Phases[1], Phases[0], Tail);
  }

  bool Correct = true;
  uint64_t Attempted = 0, Failed = 0;
  for (const PhaseResult &P : Phases) {
    Correct &= P.Correct;
    for (const std::string &E : P.Errors)
      std::fprintf(stderr, "serverbench: CHECK FAILED (%s%s): %s\n",
                   workloadName(P.Kind), P.Traced ? ", traced" : "",
                   E.c_str());
    // Requests count one by one. A warehouse thread whose allocation
    // fails ends its run, so there every failed allocation on the heap
    // (the probe's included) counts as one failure.
    Attempted += P.Service.Attempted;
    if (P.Kind == WorkloadKind::Warehouse) {
      Attempted += P.Completed;
      Failed += std::max(P.Escalations.rung(EscalationRung::AllocationFailure),
                         P.Service.Failed);
    } else {
      Failed += P.Service.Failed;
    }
  }

  JsonWriter Stamp;
  writeStamp(Stamp, A);

  if (A.Trace && !A.TraceOut.empty() &&
      !writeChromeTrace(A.TraceOut, Phases[1], Tail, Stamp.str())) {
    std::fprintf(stderr, "serverbench: cannot write %s\n", A.TraceOut.c_str());
    return 1;
  }
  if (!A.Out.empty()) {
    JsonWriter Doc;
    Doc.beginObject();
    Doc.key("schema");
    Doc.value("serverbench-v1");
    Doc.key("stamp");
    writeStamp(Doc, A);
    Doc.key("correct");
    Doc.value(Correct);
    Doc.key("attempted");
    Doc.value(Attempted);
    Doc.key("failed");
    Doc.value(Failed);
    Doc.key("metrics");
    writeMetrics(Doc, Metrics);
    Doc.endObject();
    std::ofstream Out(A.Out, std::ios::binary | std::ios::trunc);
    Out << Doc.str() << '\n';
    if (!Out) {
      std::fprintf(stderr, "serverbench: cannot write %s\n", A.Out.c_str());
      return 1;
    }
  }

  JsonWriter Line;
  Line.beginObject();
  Line.key("correct");
  Line.value(Correct);
  Line.key("attempted");
  Line.value(Attempted);
  Line.key("failed");
  Line.value(Failed);
  Line.key("metrics");
  writeMetrics(Line, Metrics);
  Line.endObject();
  std::printf("%s\n", Line.str().c_str());
  return Correct ? 0 : 1;
}
