// The Chrome trace of a causal journal, the one way a simulated run becomes
// a Perfetto-loadable timeline. Every item is a pure function of the
// journal: one trace process per journal process, with its recorded name;
// every work node on its resource track with its label, exec and evict
// nodes as complete slices ("X") and PCIe and NVLink transfers as async
// intervals ("b"/"e"), since transfers of concurrent runs overlap on one
// track; each request's queue wait as an async interval on the "queue"
// track, from its arrival to its first work node (none for a 0 ns wait);
// and two counters derived from nodes, transfers in flight per link
// ("inflight/<link>", from each transfer's hops) and requests queued per
// process ("queued").
//
// The export appends through TraceRecorder and keeps nothing of a chunk but
// its events and counter changes, so the journal is decoded chunk by chunk.
// Async ids count up in journal order: a journal always renders to the same
// bytes.
#ifndef SRC_OBS_TRACE_EXPORT_H_
#define SRC_OBS_TRACE_EXPORT_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/obs/causal_graph.h"
#include "src/obs/journal_stream.h"
#include "src/obs/trace_recorder.h"

namespace deepplan {

class JournalTraceExport {
 public:
  // Draws `chunk`'s processes, work nodes and queue waits, and keeps its
  // counter changes. Chunks must come in file order.
  void Add(const JournalChunk& chunk);

  // Appends the counter samples and hands the trace over; call once, after
  // the last chunk.
  TraceRecorder Finish();

 private:
  // A counter's changes, (time, +1 or -1), in the order they were read.
  using Changes = std::vector<std::pair<Nanos, int>>;

  TraceRecorder trace_{/*enabled=*/true};
  std::uint64_t next_async_id_ = 0;
  // Link names across chunks; a chunk's string ids resolve to these (id + 1;
  // 0: not yet) per chunk.
  CpStrings links_;
  std::vector<CpStrId> link_of_string_;
  std::map<std::pair<int, CpStrId>, Changes> in_flight_;  // (process, link)
  std::vector<Changes> queued_;                            // per process
};

// The Chrome trace of `graph`'s own journal (CausalGraph::journal).
TraceRecorder GraphChromeTrace(const CausalGraph& graph);

}  // namespace deepplan

#endif  // SRC_OBS_TRACE_EXPORT_H_
