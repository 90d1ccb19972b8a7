#include "src/obs/critical_path.h"

#include <algorithm>

#include "src/check/validator.h"
#include "src/util/logging.h"

namespace deepplan {

CpAttribution& CpAttribution::operator+=(const CpAttribution& other) {
  queue += other.queue;
  evict += other.evict;
  pcie += other.pcie;
  pcie_contention += other.pcie_contention;
  nvlink += other.nvlink;
  exec += other.exec;
  sync += other.sync;
  return *this;
}

namespace {

// Charges `dur` nanoseconds of `node`'s on-path occupancy to the matching
// attribution component. `dur` can be less than the node's full duration when
// a later node overlapped it; transfer splits scale against the truncated
// amount so the total charged stays exactly `dur`.
void Charge(const CpNode& node, Nanos dur, CpAttribution* out) {
  switch (node.kind) {
    case CpKind::kArrival:
      out->sync += dur;  // zero-duration in practice
      break;
    case CpKind::kEvict:
      out->evict += dur;
      break;
    case CpKind::kPcie: {
      const Nanos full = node.end - node.start;
      const Nanos contention =
          node.solo >= 0 ? std::max<Nanos>(0, full - node.solo) : 0;
      const Nanos charged_contention = std::min(dur, contention);
      out->pcie_contention += charged_contention;
      out->pcie += dur - charged_contention;
      break;
    }
    case CpKind::kNvlink:
      out->nvlink += dur;
      break;
    case CpKind::kExec:
      out->exec += dur;
      break;
  }
}

}  // namespace

ProfileSummary AnalyzeCriticalPaths(const CausalGraph& graph) {
  // Predecessor lists, built once for the whole graph.
  std::vector<std::vector<CpNodeId>> preds(graph.nodes().size());
  for (const auto& [from, to] : graph.edges()) {
    preds[static_cast<std::size_t>(to)].push_back(from);
  }
  // Per-request exec-busy sums, also in one pass over the nodes.
  std::vector<Nanos> exec_busy(graph.requests().size(), 0);
  for (const CpNode& node : graph.nodes()) {
    if (node.kind == CpKind::kExec) {
      exec_busy[static_cast<std::size_t>(node.request)] += node.end - node.start;
    }
  }

  ProfileSummary summary;
  summary.requests.reserve(graph.requests().size());
  for (const CpRequest& req : graph.requests()) {
    if (req.completion < 0) {
      continue;  // never finished; nothing to attribute
    }
    RequestProfile profile;
    profile.request = req.id;
    profile.process = req.process;
    profile.instance = req.instance;
    profile.cold = req.cold;
    profile.arrival = req.arrival;
    profile.completion = req.completion;
    profile.latency = req.completion - req.arrival;

    // Backward walk from the terminal node. `cursor` is the next instant to
    // be explained; it starts at completion and ends at arrival, and every
    // decrement is charged to exactly one component.
    Nanos cursor = req.completion;
    CpNodeId at = req.terminal_node >= 0 ? req.terminal_node : req.arrival_node;
    std::vector<CpNodeId> rpath;
    // Cycle guard: a well-formed DAG walk visits each node at most once; the
    // node count bounds the walk regardless of input.
    std::size_t steps = 0;
    const std::size_t max_steps = graph.nodes().size() + 1;
    while (at >= 0 && steps++ < max_steps) {
      const CpNode& node = graph.nodes()[static_cast<std::size_t>(at)];
      rpath.push_back(at);
      const Nanos covered_start = std::min(node.start, cursor);
      Charge(node, cursor - covered_start, &profile.attribution);
      cursor = covered_start;
      if (at == req.arrival_node) {
        break;
      }
      // Pick the predecessor that released this node last: max end, ties to
      // the later-recorded node (deterministic — ids are append-ordered).
      CpNodeId best = -1;
      Nanos best_end = 0;
      for (const CpNodeId p : preds[static_cast<std::size_t>(at)]) {
        const CpNode& cand = graph.nodes()[static_cast<std::size_t>(p)];
        if (cand.request != req.id) {
          continue;
        }
        if (best < 0 || cand.end > best_end ||
            (cand.end == best_end && p > best)) {
          best = p;
          best_end = cand.end;
        }
      }
      if (best < 0) {
        // Orphan node (no recorded predecessor): the remaining wait back to
        // arrival is queue time.
        break;
      }
      const CpNode& pred = graph.nodes()[static_cast<std::size_t>(best)];
      const Nanos gap = std::max<Nanos>(0, cursor - std::min(pred.end, cursor));
      if (best == req.arrival_node) {
        profile.attribution.queue += gap;
      } else {
        profile.attribution.sync += gap;
      }
      cursor -= gap;
      at = best;
    }
    // Anything left before the first on-path node is queue wait.
    profile.attribution.queue += std::max<Nanos>(0, cursor - req.arrival);
    profile.exec_busy = exec_busy[static_cast<std::size_t>(req.id)];

    std::reverse(rpath.begin(), rpath.end());
    profile.path = std::move(rpath);

    check::SimValidator::OnAttribution(req.id, profile.latency,
                                       profile.attribution.Total());
    summary.total += profile.attribution;
    summary.total_latency += profile.latency;
    if (profile.cold) {
      ++summary.cold_requests;
    }
    summary.requests.push_back(std::move(profile));
  }
  return summary;
}

}  // namespace deepplan
