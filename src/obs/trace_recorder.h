// Chrome-trace builder: collects span, counter and async events under named
// processes and renders them as one Perfetto-loadable Chrome-trace JSON via
// ChromeTraceWriter. The simulator's trace is an export of its causal
// journal (src/obs/trace_export.h), which appends here; no model component
// holds a recorder. A recorder constructed disabled drops every call
// without touching its buffers (no allocation — pinned by obs_test).
//
// Determinism: events keep their append order, and the writer sorts with
// deterministic tie-breaking, so the same appends always render to
// identical bytes.
//
// Concurrency contract: deliberately NOT internally synchronized. The event
// buffer is order-sensitive — its append order is part of the byte-identical
// output guarantee — so a mutex would not make a shared recorder correct; it
// would only replace a data race with timing-dependent event order. A
// recorder is thread-confined, which is what makes the reference-returning
// accessor (document()) safe. See DESIGN.md §14.
#ifndef SRC_OBS_TRACE_RECORDER_H_
#define SRC_OBS_TRACE_RECORDER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/util/chrome_trace.h"
#include "src/util/time.h"

namespace deepplan {

class TraceRecorder {
 public:
  TraceRecorder() = default;
  explicit TraceRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Names a process group (one per strategy when a trace holds several
  // replays). Returns the pid to tag events with.
  // Disabled recorders return 0 without allocating.
  int RegisterProcess(std::string_view name);

  // A complete slice [start, start+duration) on `track` of process `pid`.
  void Span(int pid, std::string_view track, std::string_view name, Nanos start,
            Nanos duration) {
    Add(TracePhase::kSpan, pid, track, name, start, duration, 0.0, 0);
  }

  // A counter sample: `track` names the counter track (e.g.
  // "inflight/pcie/gpu0"), `series` the value key inside it (e.g.
  // "transfers").
  void Counter(int pid, std::string_view track, std::string_view series, Nanos ts,
               double value) {
    Add(TracePhase::kCounter, pid, track, series, ts, 0, value, 0);
  }

  // An async interval [begin, end] on `track`, paired by `id`. Unlike spans,
  // async intervals with distinct ids may overlap on one track — transfers
  // of concurrent cold starts share a link's track, and the queue waits of
  // requests queued at once overlap.
  void AsyncBegin(int pid, std::string_view track, std::string_view name,
                  std::uint64_t id, Nanos ts) {
    Add(TracePhase::kAsyncBegin, pid, track, name, ts, 0, 0.0, id);
  }
  void AsyncEnd(int pid, std::string_view track, std::string_view name,
                std::uint64_t id, Nanos ts) {
    Add(TracePhase::kAsyncEnd, pid, track, name, ts, 0, 0.0, id);
  }

  std::size_t size() const { return doc_.events.size(); }
  bool empty() const { return doc_.events.empty(); }
  const TraceDocument& document() const { return doc_; }

  std::string ToJson() const;
  bool WriteTo(const std::string& path) const;

 private:
  // Appends one event, unless disabled.
  void Add(TracePhase phase, int pid, std::string_view track,
           std::string_view name, Nanos ts, Nanos duration, double value,
           std::uint64_t id);

  bool enabled_ = true;
  TraceDocument doc_;
};

}  // namespace deepplan

#endif  // SRC_OBS_TRACE_RECORDER_H_
