// Simulation-wide trace recorder: the single sink for span, counter and async
// events emitted by the fabric (per-link bandwidth shares), the engine
// (per-layer load/migrate/exec), and the server (queue depths, cold-start
// phases). One recorder covers a whole run — every GPU, link, and request —
// and exports one Perfetto-loadable Chrome-trace JSON via ChromeTraceWriter.
//
// Cost model: components hold a `TraceRecorder*` that is nullptr when
// telemetry is off, so the disabled hot path is a single pointer test. A
// recorder constructed disabled additionally drops every call without
// touching its buffers (no allocation — pinned by obs_test), for call sites
// where threading the null check is awkward.
//
// Determinism: events append in simulation order (the simulator is
// single-threaded) and the writer sorts with deterministic tie-breaking, so
// a given run always renders to identical bytes.
//
// Concurrency contract: deliberately NOT internally synchronized. The event
// buffer is order-sensitive — its append order is part of the byte-identical
// output guarantee — so a mutex would not make a shared recorder correct; it
// would only replace a data race with timing-dependent event order. Instead
// a recorder is thread-confined: each parallel sweep task records into its
// own instance and the aggregator stitches them with Adopt() in task-index
// order (ThreadPool::Wait is the happens-before edge for the hand-off). The
// reference-returning accessor surface (document()) exists precisely because
// single ownership makes it safe. See DESIGN.md §14.
#ifndef SRC_OBS_TRACE_RECORDER_H_
#define SRC_OBS_TRACE_RECORDER_H_

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

  // Names a process group (one per strategy when a bench traces several
  // replays). Returns the pid to tag events with.
  // Disabled recorders return 0 without allocating.
  int RegisterProcess(std::string_view name);

  // A complete slice [start, start+duration) on `track` of process `pid`.
  void Span(int pid, std::string_view track, std::string_view name, Nanos start,
            Nanos duration);

  // A counter sample: `track` names the counter track (e.g. "bw/pcie/gpu0"),
  // `series` the value key inside it (e.g. "gbps").
  void Counter(int pid, std::string_view track, std::string_view series, Nanos ts,
               double value);

  // An async interval [begin, end] on `track`, paired by `id`. Unlike spans,
  // async intervals with distinct ids may overlap on one track — the server
  // uses them for per-request queue waits, which overlap whenever several
  // requests queue at once.
  void AsyncBegin(int pid, std::string_view track, std::string_view name,
                  std::uint64_t id, Nanos ts);
  void AsyncEnd(int pid, std::string_view track, std::string_view name,
                std::uint64_t id, Nanos ts);

  std::size_t size() const { return doc_.events.size(); }
  bool empty() const { return doc_.events.empty(); }
  const TraceDocument& document() const { return doc_; }

  // Merges `other` into this recorder, remapping its pids past the processes
  // already registered here (used to stitch per-task recorders from a
  // parallel sweep into one artifact, in deterministic task order).
  void Adopt(TraceRecorder&& other);

  std::string ToJson() const;
  bool WriteTo(const std::string& path) const;

 private:
  bool enabled_ = true;
  TraceDocument doc_;
};

}  // namespace deepplan

#endif  // SRC_OBS_TRACE_RECORDER_H_
