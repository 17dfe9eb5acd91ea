//===- Trace.cpp - Chrome trace of a traced phase -------------------------===//

#include "Trace.h"

#include "observe/ChromeTraceExporter.h"
#include "observe/Json.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <utility>

using namespace cgc;
using namespace serverbench;

namespace {

const char *childName(Child C) {
  switch (C) {
  case Child::Poll:
    return "safepoint_poll";
  case Child::AllocRequest:
    return "allocate.request";
  case Child::AllocKey:
    return "allocate.key";
  case Child::KvOp:
    return "kv.op";
  case Child::AllocResponse:
    return "allocate.response";
  }
  return "invalid";
}

/// Thread ids of request spans, clear of the collector's small ids.
constexpr uint64_t ClientTidBase = 1000;

/// Every request above p99 is exported, plus every SampleEvery-th one.
constexpr size_t TraceSampleEvery = 100;

void emitSpan(JsonWriter &W, const char *Name, uint64_t Begin, uint64_t End,
              uint64_t Base, uint64_t Tid, uint64_t ReqId, const char *Parent,
              const char *Tail) {
  W.beginObject();
  W.key("name");
  W.value(Name);
  W.key("ph");
  W.value("X");
  W.key("ts");
  W.value(static_cast<double>(Begin - Base) / 1e3);
  W.key("dur");
  W.value(static_cast<double>(End - Begin) / 1e3);
  W.key("pid");
  W.value(uint64_t(1));
  W.key("tid");
  W.value(Tid);
  W.key("args");
  W.beginObject();
  W.key("req");
  W.value(ReqId);
  W.key("parent");
  W.value(Parent);
  if (Tail) {
    W.key("tail");
    W.value(Tail);
  }
  W.endObject();
  W.endObject();
}

/// The GC events to export: every event that marks cycle structure,
/// pauses or escalations, but tracing quanta and sweep slices (the bulk
/// of the stream) only where they overlap an exported request.
std::vector<EventRecord>
exportedEvents(const PhaseResult &T,
               std::vector<std::pair<uint64_t, uint64_t>> Windows) {
  std::sort(Windows.begin(), Windows.end());
  // Windows of one client never overlap, but those of two clients may;
  // track the furthest end seen so far for the overlap test.
  std::vector<uint64_t> EndSoFar;
  for (const auto &W : Windows)
    EndSoFar.push_back(std::max(EndSoFar.empty() ? 0 : EndSoFar.back(),
                                W.second));
  auto Overlaps = [&](uint64_t Begin, uint64_t End) {
    auto It = std::upper_bound(
        Windows.begin(), Windows.end(), End,
        [](uint64_t T, const std::pair<uint64_t, uint64_t> &W) {
          return T < W.first;
        });
    size_t Before = static_cast<size_t>(It - Windows.begin());
    return Before > 0 && EndSoFar[Before - 1] >= Begin;
  };

  std::vector<EventRecord> Out;
  std::map<uint32_t, EventRecord> OpenQuantum;
  for (const EventRecord &E : T.Events) {
    switch (E.Kind) {
    case EventKind::IncTraceBegin:
      OpenQuantum[E.ThreadId] = E;
      break;
    case EventKind::IncTraceEnd: {
      auto It = OpenQuantum.find(E.ThreadId);
      if (It != OpenQuantum.end() && Overlaps(It->second.TimeNs, E.TimeNs)) {
        Out.push_back(It->second);
        Out.push_back(E);
      }
      if (It != OpenQuantum.end())
        OpenQuantum.erase(It);
      break;
    }
    case EventKind::SweepSlice:
      if (Overlaps(E.TimeNs, E.TimeNs))
        Out.push_back(E);
      break;
    default:
      Out.push_back(E);
      break;
    }
  }
  std::stable_sort(Out.begin(), Out.end(),
                   [](const EventRecord &A, const EventRecord &B) {
                     return A.TimeNs < B.TimeNs;
                   });
  return Out;
}

} // namespace

bool serverbench::writeChromeTrace(const std::string &Path,
                                   const PhaseResult &T,
                                   const std::vector<TailCause> &Tail,
                                   const std::string &StampJson) {
  // Requests to export: every tail request and a regular sample.
  struct Exported {
    size_t Client;
    size_t I;
    TailCause Cause;
  };
  std::vector<Exported> Requests;
  std::vector<std::pair<uint64_t, uint64_t>> Windows;
  size_t Index = 0;
  for (size_t Client = 0; Client < T.Clients.size(); ++Client) {
    const std::vector<RequestRecord> &Recs = T.Clients[Client].Records;
    for (size_t I = 0; I < Recs.size(); ++I, ++Index) {
      TailCause Cause = Index < Tail.size() ? Tail[Index] : TailCause::NotTail;
      if (Cause == TailCause::NotTail && I % TraceSampleEvery != 0)
        continue;
      Requests.push_back({Client, I, Cause});
      Windows.emplace_back(Recs[I].Sched, Recs[I].Done);
    }
  }
  std::vector<EventRecord> Events = exportedEvents(T, std::move(Windows));

  // The exporter rebases its timestamps to the earliest event it gets;
  // spans use the same base and are kept only from that point on.
  uint64_t Base = Events.empty() ? 0 : Events.front().TimeNs;
  JsonWriter Spans;
  Spans.beginArray();
  for (const Exported &E : Requests) {
    const RequestRecord &Rec = T.Clients[E.Client].Records[E.I];
    if (Rec.Sched < Base)
      continue;
    uint64_t Tid = ClientTidBase + E.Client;
    uint64_t ReqId = (uint64_t(E.Client) << 40) | E.I;
    emitSpan(Spans, "request", Rec.Sched, Rec.Done, Base, Tid, ReqId, "",
             E.Cause == TailCause::NotTail ? nullptr : tailCauseName(E.Cause));
    for (unsigned C = 0; C < NumChildren; ++C)
      emitSpan(Spans, childName(static_cast<Child>(C)),
               Rec.childBegin(static_cast<Child>(C)),
               Rec.childEnd(static_cast<Child>(C)), Base, Tid, ReqId,
               "request", nullptr);
  }
  Spans.endArray();

  std::string Doc = ChromeTraceExporter::toJson(Events);
  std::string Inner = Spans.str().substr(1, Spans.str().size() - 2);
  size_t Close = Doc.rfind(']', Doc.rfind("\"displayTimeUnit\""));
  if (Close == std::string::npos || Doc.back() != '}')
    return false;
  if (!Inner.empty())
    Doc.insert(Close, (Doc[Close - 1] == '[' ? "" : ",") + Inner);
  Doc.insert(Doc.size() - 1, ",\"otherData\":" + StampJson);

  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Doc;
  return static_cast<bool>(Out);
}
