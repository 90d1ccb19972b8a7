// Chrome-trace (chrome://tracing / Perfetto) JSON export for simulated
// timelines. The input is a TraceDocument, the obs-layer TraceRecorder's
// multi-process event set: span ("X"), instant ("i"), counter ("C") and async
// ("b"/"e") events grouped under named processes ("M" process_name /
// thread_name metadata records), so a whole server or cluster run opens in
// Perfetto as per-GPU/per-link tracks with bandwidth and queue-depth graphs
// overlaid — the pictures in Figures 7-9 of the paper, generated from a run.
//
// Output is byte-stable: event/track names are JSON-escaped (including
// control characters), events are sorted by timestamp with deterministic
// tie-breaking (parent spans before their children), and track ids are
// assigned from the sorted track set, never from arrival order.
#ifndef SRC_UTIL_CHROME_TRACE_H_
#define SRC_UTIL_CHROME_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/time.h"

namespace deepplan {

enum class TracePhase {
  kSpan,        // complete slice ("X"): [ts, ts+duration) on a thread track
  kInstant,     // point-in-time marker ("i") on a thread track
  kCounter,     // sampled value ("C"); `track` names the counter track, `name`
                // the series key inside it, `value` the sample
  kAsyncBegin,  // async interval start ("b"): intervals with distinct ids may
                // overlap on one track (e.g. concurrent queue waits), which
                // complete slices must not
  kAsyncEnd,    // async interval end ("e"); pairs with kAsyncBegin by
                // (pid, track, id)
};

// One event of a multi-process trace. `pid` selects the process group
// (e.g. one per server in a cluster run); `track` names the thread-level
// track within it.
struct TraceEvent {
  TracePhase phase = TracePhase::kSpan;
  int pid = 0;
  std::string track;
  std::string name;
  Nanos ts = 0;
  Nanos duration = 0;       // spans only
  double value = 0.0;       // counters only
  std::uint64_t id = 0;     // async begin/end pairing key
};

// A full trace: process names (index = pid; missing/empty entries render as
// "pid <n>") plus the event set. Produced by obs::TraceRecorder.
struct TraceDocument {
  std::vector<std::string> process_names;
  std::vector<TraceEvent> events;
};

class ChromeTraceWriter {
 public:
  // Renders events as a Chrome trace JSON document (trace-event format,
  // "traceEvents" array, microsecond timestamps).
  static std::string ToJson(const TraceDocument& doc);

  // Writes the JSON to `path`; returns false on I/O failure.
  static bool WriteTo(const std::string& path, const TraceDocument& doc);
};

}  // namespace deepplan

#endif  // SRC_UTIL_CHROME_TRACE_H_
