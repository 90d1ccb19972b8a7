// What-if replay engine: virtual hardware-speedup experiments over a causal
// journal. Takes the happens-before DAG a run recorded (CausalGraph) and
// re-schedules it forward under perturbed hardware — PCIe/NVLink links k
// times faster, execution k times faster, contention-free links, evictions
// removed — predicting each request's latency on the virtual hardware
// without re-running the workload.
//
// Replay model (documented with its error model in DESIGN.md §11):
//   * Data dependencies are the journal's edges: a node starts when all its
//     predecessors end (and its request has been dispatched).
//   * The per-GPU FIFO dispatch discipline is re-derived, not copied:
//     requests sharing one (process, GPU) serialize in request-id order, each
//     dispatching at max(its arrival, predecessor's replayed completion) —
//     exactly the server's gpu_busy rule, so queueing shrinks when upstream
//     work speeds up.
//   * Transfer nodes are re-timed through a real max-min fair Fabric rebuilt
//     from the per-link hops recorded on each node (link name + capacity,
//     scaled by the experiment), so contention is re-derived from the
//     replayed per-link overlap rather than frozen at recorded values. The
//     per-transfer latency tail is recovered as solo - ceil(bytes/min_cap).
//   * Exec nodes keep their recorded duration, scaled by 1/exec_scale; the
//     recorded DHA streaming share additionally scales by 1/pcie_scale
//     (direct-host-access reads ride the same link the experiment speeds up).
//   * Evict nodes keep their duration, or drop to zero under
//     remove_evictions.
//
// With the identity experiment the replay reproduces every recorded latency
// bit-exactly (asserted by tests/whatif_test.cc), which is what licenses the
// perturbed predictions; the validation harness further re-simulates each
// experiment on correspondingly modified hardware and bounds the error.
//
// One engine, windowed: WindowedJournal replays a binary journal
// (src/obs/journal_stream.h), a file or the bytes of a graph's own journal,
// chunk by chunk. A first pass builds an O(requests) metadata index
// (arrival/completion/terminal resource + the owning chunk's offset); during
// replay, a request's nodes and edges are loaded lazily when its chunk is
// first touched and freed as soon as the request has fully replayed, so
// resident node/edge state is bounded by the replay's in-flight window — not
// journal length — and the event sequence, and therefore every prediction,
// does not depend on how the journal is chunked (tests/journal_test.cc).
#ifndef SRC_OBS_WHATIF_WHATIF_H_
#define SRC_OBS_WHATIF_WHATIF_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/causal_graph.h"
#include "src/util/time.h"

namespace deepplan {

// One virtual experiment. Scales are hardware *speed* factors (>1 = faster):
// pcie_scale multiplies every PCIe lane and switch-uplink capacity (and
// divides exec nodes' DHA streaming share), nvlink_scale multiplies NVLink
// capacities, exec_scale divides exec-node durations. zero_contention runs
// every transfer at its (scaled) solo speed; remove_evictions zeroes LRU
// teardown time.
struct WhatIfExperiment {
  std::string name;  // canonical spec string, e.g. "pcie=2,nocontention"
  double pcie_scale = 1.0;
  double nvlink_scale = 1.0;
  double exec_scale = 1.0;
  bool zero_contention = false;
  bool remove_evictions = false;

  bool IsIdentity() const {
    return pcie_scale == 1.0 && nvlink_scale == 1.0 && exec_scale == 1.0 &&
           !zero_contention && !remove_evictions;
  }
};

// The range of a what-if scale K: a replay divides recorded nanosecond
// durations by K and multiplies link capacities by it, and both must stay
// finite and in range.
inline constexpr double kMinWhatIfScale = 1e-3;
inline constexpr double kMaxWhatIfScale = 1e3;

// Parses a comma-separated experiment spec: "pcie=K", "nvlink=K", "exec=K"
// (K in [kMinWhatIfScale, kMaxWhatIfScale]), "nocontention", "noevict", or
// "baseline" (identity), in any combination — e.g. "pcie=2,nocontention".
// Returns false and sets `error` on malformed input. The parsed experiment's
// name is the canonical form (fixed clause order, duplicate clauses
// collapsed).
bool ParseWhatIfExperiment(const std::string& spec, WhatIfExperiment* out,
                           std::string* error);

// The default sweep run when no experiments are given: each knob doubled,
// the two structural experiments, and one combination.
std::vector<WhatIfExperiment> DefaultWhatIfExperiments();

// Replayed timings, indexed by journal request id. Requests that never
// completed in the journal are skipped and keep latency -1.
struct WhatIfReplay {
  std::vector<Nanos> latency;      // predicted completion - arrival; -1 = n/a
  // Per-request time spent on nodes each knob governs, under this experiment
  // (transfer durations as replayed; exec includes the DHA share; the DHA
  // share also counts toward pcie). Feeds the sensitivity leverage numbers.
  std::vector<Nanos> pcie_time;
  std::vector<Nanos> nvlink_time;
  std::vector<Nanos> exec_time;
};

// One replay of `graph`'s own journal (CausalGraph::journal).
WhatIfReplay ReplayWhatIf(const CausalGraph& graph, const WhatIfExperiment& exp);

// Bounded-memory replay over a binary journal. Open() makes one validating
// sequential pass to index request metadata and chunk offsets; each Replay()
// then streams node/edge state in and out per chunk window. One
// WindowedJournal can run any number of experiments.
class WindowedJournal {
 public:
  WindowedJournal();
  ~WindowedJournal();
  WindowedJournal(const WindowedJournal&) = delete;
  WindowedJournal& operator=(const WindowedJournal&) = delete;

  // Opens the journal in the file at `path`, or in `bytes`, which must
  // outlive this object. False (with `error` set) on unreadable, corrupt, or
  // footer-less journals, and on any other the reader's sequential pass
  // rejects.
  bool Open(const std::string& path, std::string* error);
  bool OpenBytes(std::string_view bytes, std::string* error);

  // Metadata index from the sequential pass (valid after Open succeeds).
  const std::vector<std::string>& processes() const;
  const std::vector<CpRequest>& requests() const;

  WhatIfReplay Replay(const WhatIfExperiment& exp);

  // High-water mark of simultaneously resident request windows across all
  // Replay() calls so far — the bounded-memory observable tests pin.
  std::size_t max_resident_requests() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace deepplan

#endif  // SRC_OBS_WHATIF_WHATIF_H_
