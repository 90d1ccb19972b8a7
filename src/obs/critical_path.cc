#include "src/obs/critical_path.h"

#include <algorithm>

#include "src/check/validator.h"
#include "src/util/index.h"
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

void AnalyzeCriticalPaths(const JournalChunk& chunk, ProfileSummary* summary) {
  const std::vector<CpNode>& nodes = chunk.nodes;
  // Each node's predecessor that released it last: max end, ties to the
  // later-recorded node (deterministic — ids are append-ordered); -1 for a
  // node with none. Every edge stays in its request.
  std::vector<std::int64_t> released_by(nodes.size(), -1);
  for (const JournalChunk::Edge& e : chunk.edges) {
    const CpNode& cand = nodes[e.from];
    std::int64_t& best = released_by[e.to];
    if (best < 0 || cand.end > nodes[Idx(best)].end ||
        (cand.end == nodes[Idx(best)].end && cand.id > nodes[Idx(best)].id)) {
      best = e.from;
    }
  }

  for (const JournalChunk::Record& rec : chunk.requests) {
    const CpRequest& req = rec.request;
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
    std::int64_t at =
        rec.terminal_index >= 0 ? rec.terminal_index : rec.arrival_index;
    std::vector<CpNodeId> rpath;
    // Every edge runs from a lower node id to a higher one (AddNode and the
    // reader check it), so the walk ends.
    while (at >= 0) {
      const CpNode& node = nodes[Idx(at)];
      rpath.push_back(node.id);
      const Nanos covered_start = std::min(node.start, cursor);
      Charge(node, cursor - covered_start, &profile.attribution);
      cursor = covered_start;
      const std::int64_t best = released_by[Idx(at)];
      if (at == rec.arrival_index || best < 0) {
        // At the root; or an orphan node (no recorded predecessor), whose
        // remaining wait back to arrival is queue time.
        break;
      }
      const CpNode& pred = nodes[Idx(best)];
      const Nanos gap = std::max<Nanos>(0, cursor - std::min(pred.end, cursor));
      if (best == rec.arrival_index) {
        profile.attribution.queue += gap;
      } else {
        profile.attribution.sync += gap;
      }
      cursor -= gap;
      at = best;
    }
    // Anything left before the first on-path node is queue wait.
    profile.attribution.queue += std::max<Nanos>(0, cursor - req.arrival);
    for (std::uint32_t i = rec.first_node; i < rec.first_node + rec.num_nodes;
         ++i) {
      if (nodes[i].kind == CpKind::kExec) {
        profile.exec_busy += nodes[i].end - nodes[i].start;
      }
    }

    std::reverse(rpath.begin(), rpath.end());
    profile.path = std::move(rpath);

    check::SimValidator::OnAttribution(req.id, profile.latency,
                                       profile.attribution.Total());
    summary->total += profile.attribution;
    summary->total_latency += profile.latency;
    if (profile.cold) {
      ++summary->cold_requests;
    }
    summary->requests.push_back(std::move(profile));
  }
}

}  // namespace deepplan
