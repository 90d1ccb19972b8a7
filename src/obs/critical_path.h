// Critical-path engine: walks each request's causal DAG backwards from its
// terminal node to its arrival node and attributes every nanosecond of the
// end-to-end latency to one cause. The walk keeps a time cursor that starts
// at completion and descends monotonically to arrival; each decrement is
// charged exactly once, so the components sum to the latency with integer-ns
// exactness (enforced by SimValidator::OnAttribution and by tests).
//
// Attribution taxonomy (superset of the paper's Fig. 2 decomposition):
//   queue            waiting in the server queue before any work started
//   evict            LRU teardown making room for the cold start
//   pcie             host->GPU transfer time at contention-free speed
//   pcie_contention  excess transfer time over solo speed (fair-share loss)
//   nvlink           GPU->GPU migration time
//   exec             layer execution on the critical path
//   sync             scheduling gaps between dependent ops (event waits,
//                    stream handoffs) not explained by any category above
//
// Contention accounting: transfer nodes carry `solo_ns`, the duration the
// same transfer would take alone on its path (same ceil-to-ns rounding and
// latency tail the fabric applies). Fair sharing can only slow a transfer
// down, so actual >= solo and the excess is charged to pcie_contention.
//
// `exec_busy` is reported alongside the path attribution: the sum of ALL exec
// node durations for the request, on-path or not. Pipelined strategies
// overlap execution with transfers, pushing exec work off the critical path;
// latency - exec_busy is exactly the hand-computed stall of Fig. 2, which is
// how bench/fig02 cross-checks this engine against the simulator's own
// numbers.
#ifndef SRC_OBS_CRITICAL_PATH_H_
#define SRC_OBS_CRITICAL_PATH_H_

#include <vector>

#include "src/obs/causal_graph.h"
#include "src/obs/journal_stream.h"
#include "src/util/time.h"

namespace deepplan {

struct CpAttribution {
  Nanos queue = 0;
  Nanos evict = 0;
  Nanos pcie = 0;
  Nanos pcie_contention = 0;
  Nanos nvlink = 0;
  Nanos exec = 0;
  Nanos sync = 0;

  Nanos Total() const {
    return queue + evict + pcie + pcie_contention + nvlink + exec + sync;
  }
  CpAttribution& operator+=(const CpAttribution& other);
};

struct RequestProfile {
  int request = -1;
  int process = 0;
  int instance = -1;
  bool cold = false;
  Nanos arrival = 0;
  Nanos completion = 0;
  Nanos latency = 0;            // completion - arrival == attribution.Total()
  CpAttribution attribution;
  Nanos exec_busy = 0;          // sum of all exec nodes, on-path or not
  std::vector<CpNodeId> path;   // critical path, arrival -> terminal
};

struct ProfileSummary {
  std::vector<RequestProfile> requests;  // as added; by id in a report
  CpAttribution total;                   // sum over all requests
  Nanos total_latency = 0;
  int cold_requests = 0;
};

// Attributes every completed request of one chunk (every edge stays in one
// request, so this is chunk-local) and adds it to `summary` in record order.
// Requests that never ended (completion < 0) are skipped.
void AnalyzeCriticalPaths(const JournalChunk& chunk, ProfileSummary* summary);

}  // namespace deepplan

#endif  // SRC_OBS_CRITICAL_PATH_H_
