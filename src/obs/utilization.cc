#include "src/obs/utilization.h"

#include <algorithm>
#include <map>
#include <string_view>
#include <utility>

namespace deepplan {

namespace {

struct RawInterval {
  Nanos start = 0;
  Nanos end = 0;
  Nanos contended = 0;
  CpKind kind = CpKind::kExec;
};

}  // namespace

UtilizationReport ComputeUtilization(const CausalGraph& graph) {
  // Observation window per process: [min arrival, max completion].
  std::map<int, std::pair<Nanos, Nanos>> windows;
  for (const CpRequest& req : graph.requests()) {
    if (req.completion < 0) {
      continue;
    }
    auto [it, fresh] =
        windows.emplace(req.process, std::make_pair(req.arrival, req.completion));
    if (!fresh) {
      it->second.first = std::min(it->second.first, req.arrival);
      it->second.second = std::max(it->second.second, req.completion);
    }
  }

  // Bucket node intervals by (process, resource). std::map keys give the
  // deterministic (process, resource-name) output order for free; the names
  // view the graph's string table.
  std::map<std::pair<int, std::string_view>, std::vector<RawInterval>> buckets;
  for (const CpNode& node : graph.nodes()) {
    const std::string& resource = graph.str(node.resource);
    if (resource.empty() || node.end <= node.start) {
      continue;
    }
    const CpRequest& req =
        graph.requests()[static_cast<std::size_t>(node.request)];
    RawInterval raw;
    raw.start = node.start;
    raw.end = node.end;
    raw.kind = node.kind;
    if (node.solo >= 0) {
      raw.contended = std::max<Nanos>(0, (node.end - node.start) - node.solo);
    }
    buckets[{req.process, resource}].push_back(raw);
  }

  UtilizationReport report;
  report.resources.reserve(buckets.size());
  for (auto& [key, raws] : buckets) {
    std::sort(raws.begin(), raws.end(), [](const RawInterval& a,
                                           const RawInterval& b) {
      return a.start != b.start ? a.start < b.start : a.end < b.end;
    });
    ResourceTimeline timeline;
    timeline.process = key.first;
    timeline.resource = key.second;
    // Dominant kind: the kind covering the most raw (pre-merge) time.
    std::map<CpKind, Nanos> by_kind;
    for (const RawInterval& raw : raws) {
      by_kind[raw.kind] += raw.end - raw.start;
    }
    CpKind dominant = raws.front().kind;
    Nanos dominant_time = -1;
    for (const auto& [kind, time] : by_kind) {
      if (time > dominant_time) {
        dominant = kind;
        dominant_time = time;
      }
    }
    timeline.kind = CpKindName(dominant);

    for (const RawInterval& raw : raws) {
      if (!timeline.intervals.empty() &&
          raw.start <= timeline.intervals.back().end) {
        UtilInterval& open = timeline.intervals.back();
        open.end = std::max(open.end, raw.end);
        open.contended += raw.contended;
      } else {
        timeline.intervals.push_back({raw.start, raw.end, raw.contended});
      }
    }
    for (const UtilInterval& iv : timeline.intervals) {
      timeline.busy += iv.end - iv.start;
      timeline.contended += std::min(iv.contended, iv.end - iv.start);
    }
    const auto window = windows.find(key.first);
    if (window != windows.end()) {
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
