#include "src/obs/utilization.h"

#include <algorithm>
#include <string_view>
#include <utility>

namespace deepplan {

namespace {

// Merges `added` into `merged` (disjoint, sorted, no two touching), as one
// sweep over every raw interval in start order would: intervals that overlap
// or touch join and sum their contended time. Empties `added`.
void MergeInto(std::vector<UtilInterval>* added,
               std::vector<UtilInterval>* merged) {
  const auto by_start = [](const UtilInterval& a, const UtilInterval& b) {
    return a.start < b.start;
  };
  // Only merged intervals ending at or after the earliest added start can
  // join one; ends rise with starts, so those are a suffix, swept again.
  const Nanos earliest =
      std::min_element(added->begin(), added->end(), by_start)->start;
  const auto first = std::lower_bound(
      merged->begin(), merged->end(), earliest,
      [](const UtilInterval& iv, Nanos start) { return iv.end < start; });
  added->insert(added->end(), first, merged->end());
  merged->erase(first, merged->end());
  std::sort(added->begin(), added->end(), by_start);
  for (const UtilInterval& next : *added) {
    if (!merged->empty() && next.start <= merged->back().end) {
      merged->back().end = std::max(merged->back().end, next.end);
      merged->back().contended += next.contended;
    } else {
      merged->push_back(next);
    }
  }
  added->clear();
}

}  // namespace

void UtilizationBuilder::Add(const JournalChunk& chunk) {
  resource_of_string_.assign(chunk.num_strings(), {0, nullptr});
  for (const JournalChunk::Record& rec : chunk.requests) {
    const CpRequest& req = rec.request;
    if (req.completion >= 0) {
      auto& [first, last] =
          windows_.try_emplace(req.process, req.arrival, req.completion)
              .first->second;
      first = std::min(first, req.arrival);
      last = std::max(last, req.completion);
    }
    for (std::uint32_t i = rec.first_node; i < rec.first_node + rec.num_nodes;
         ++i) {
      const CpNode& node = chunk.nodes[i];
      const std::string_view name = chunk.str(node.resource);
      if (name.empty() || node.end <= node.start) {
        continue;
      }
      // Resolved once per chunk string and process; a chunk's records of one
      // process mostly follow each other.
      auto& [process, resource] = resource_of_string_[node.resource];
      if (resource == nullptr || process != req.process) {
        process = req.process;
        resource = &resources_[{req.process, std::string(name)}];
      }
      const Nanos duration = node.end - node.start;
      resource->by_kind[static_cast<std::size_t>(node.kind)] += duration;
      resource->added.push_back(
          {node.start, node.end,
           node.solo >= 0 ? std::max<Nanos>(0, duration - node.solo) : 0});
    }
  }
  for (auto& [key, resource] : resources_) {
    if (!resource.added.empty()) {
      MergeInto(&resource.added, &resource.merged);
    }
  }
}

UtilizationReport UtilizationBuilder::Finish() {
  UtilizationReport report;
  report.resources.reserve(resources_.size());
  for (auto& [key, resource] : resources_) {
    ResourceTimeline timeline;
    timeline.process = key.first;
    timeline.resource = key.second;
    // Dominant kind: the kind covering the most raw (pre-merge) time, the
    // first in kind order on a tie.
    timeline.kind = CpKindName(static_cast<CpKind>(
        std::max_element(resource.by_kind.begin(), resource.by_kind.end()) -
        resource.by_kind.begin()));
    timeline.intervals = std::move(resource.merged);
    for (const UtilInterval& iv : timeline.intervals) {
      timeline.busy += iv.end - iv.start;
      timeline.contended += std::min(iv.contended, iv.end - iv.start);
    }
    const auto window = windows_.find(key.first);
    if (window != windows_.end()) {
      timeline.span = window->second.second - window->second.first;
    }
    timeline.utilization =
        timeline.span > 0
            ? static_cast<double>(timeline.busy) / static_cast<double>(timeline.span)
            : 0.0;
    report.resources.push_back(std::move(timeline));
  }
  return report;
}

}  // namespace deepplan
