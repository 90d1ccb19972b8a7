// Utilization timelines: for every (process, resource) pair that appears in a
// causal journal, merge that resource's node intervals into a busy/contended
// timeline and report aggregate utilization over the process's span
// [min arrival, max completion]. "Contended" covers the portion of transfer
// time in excess of solo speed (the same accounting the critical-path engine
// charges to pcie_contention), pro-rated across each transfer's interval.
//
// Resources are grouped per process (one process per strategy/replay in a
// sweep) so timelines from independent simulations never blend, and output
// ordering is (process id, resource name) — deterministic for a given
// journal. Intervals are merged as chunks arrive, so memory follows the
// merged timelines, not the journal.
#ifndef SRC_OBS_UTILIZATION_H_
#define SRC_OBS_UTILIZATION_H_

#include <array>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/causal_graph.h"
#include "src/obs/journal_stream.h"
#include "src/util/time.h"

namespace deepplan {

// One merged busy interval on a resource. `contended` is the slice of the
// interval's duration attributable to fair-share slowdown (0 for exec/evict).
struct UtilInterval {
  Nanos start = 0;
  Nanos end = 0;
  Nanos contended = 0;
};

struct ResourceTimeline {
  int process = 0;
  std::string resource;      // e.g. "pcie/gpu0", "nvlink/1->0", "gpu0"
  std::string kind;          // dominant node kind on this resource
  std::vector<UtilInterval> intervals;  // merged, disjoint, sorted by start
  Nanos span = 0;            // process observation window length
  Nanos busy = 0;            // total merged busy time
  Nanos contended = 0;       // total contended time (subset of busy)
  double utilization = 0.0;  // busy / span (0 when span == 0)
};

struct UtilizationReport {
  std::vector<ResourceTimeline> resources;  // (process, resource) sorted
};

// Accumulates utilization over a journal's chunks, added in any order.
class UtilizationBuilder {
 public:
  void Add(const JournalChunk& chunk);
  UtilizationReport Finish();

 private:
  struct Resource {
    // Merged so far: disjoint, sorted by start, no two touching.
    std::vector<UtilInterval> merged;
    std::vector<UtilInterval> added;  // this chunk's, not merged yet
    // Raw (pre-merge) busy time per node kind, for the dominant kind.
    std::array<Nanos, 5> by_kind{};
  };

  // Per process: [min arrival, max completion] of its completed requests.
  std::map<int, std::pair<Nanos, Nanos>> windows_;
  std::map<std::pair<int, std::string>, Resource> resources_;
  // The current chunk's strings resolved to resources, for one process each.
  std::vector<std::pair<int, Resource*>> resource_of_string_;
};

}  // namespace deepplan

#endif  // SRC_OBS_UTILIZATION_H_
