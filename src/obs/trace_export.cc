#include "src/obs/trace_export.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>

#include "src/util/index.h"

namespace deepplan {

void JournalTraceExport::Add(const JournalChunk& chunk) {
  for (const std::string& name : chunk.new_processes) {
    trace_.RegisterProcess(name);
    queued_.emplace_back();
  }
  link_of_string_.assign(chunk.num_strings(), 0);
  for (const JournalChunk::Record& rec : chunk.requests) {
    const CpRequest& req = rec.request;
    const int pid = req.process;
    Nanos dispatched = -1;  // the earliest work node's start
    for (std::uint32_t i = rec.first_node; i < rec.first_node + rec.num_nodes;
         ++i) {
      const CpNode& node = chunk.nodes[i];
      if (node.kind == CpKind::kArrival) {
        continue;
      }
      const std::string_view track = chunk.str(node.resource);
      const std::string_view label = chunk.str(node.label);
      if (node.kind == CpKind::kExec || node.kind == CpKind::kEvict) {
        trace_.Span(pid, track, label, node.start, node.end - node.start);
      } else {
        const std::uint64_t id = next_async_id_++;
        trace_.AsyncBegin(pid, track, label, id, node.start);
        trace_.AsyncEnd(pid, track, label, id, node.end);
        for (const CpHop& hop : node.path) {
          CpStrId& link = link_of_string_[hop.link];
          if (link == 0) {
            link = links_.Intern(chunk.str(hop.link)) + 1;
          }
          Changes& changes = in_flight_[{pid, link - 1}];
          changes.emplace_back(node.start, 1);
          changes.emplace_back(node.end, -1);
        }
      }
      if (dispatched < 0 || node.start < dispatched) {
        dispatched = node.start;
      }
    }
    Changes& queued = queued_[Idx(pid)];
    queued.emplace_back(req.arrival, 1);
    if (dispatched < 0) {
      continue;  // still queued when the journal ended
    }
    queued.emplace_back(dispatched, -1);
    if (dispatched > req.arrival) {
      const std::uint64_t id = next_async_id_++;
      const std::string name = "queue i" + std::to_string(req.instance);
      trace_.AsyncBegin(pid, "queue", name, id, req.arrival);
      trace_.AsyncEnd(pid, "queue", name, id, dispatched);
    }
  }
}

TraceRecorder JournalTraceExport::Finish() {
  // One sample per instant at which the counter's value changes.
  const auto samples = [this](int pid, const std::string& track,
                              const char* series, Changes& changes) {
    std::sort(changes.begin(), changes.end());
    int value = 0;
    for (std::size_t i = 0; i < changes.size();) {
      const Nanos ts = changes[i].first;
      int delta = 0;
      for (; i < changes.size() && changes[i].first == ts; ++i) {
        delta += changes[i].second;
      }
      if (delta != 0) {
        value += delta;
        trace_.Counter(pid, track, series, ts, value);
      }
    }
  };
  for (auto& [key, changes] : in_flight_) {
    samples(key.first, "inflight/" + links_[key.second], "transfers", changes);
  }
  for (std::size_t pid = 0; pid < queued_.size(); ++pid) {
    samples(static_cast<int>(pid), "queued", "requests", queued_[pid]);
  }
  in_flight_.clear();
  queued_.clear();
  return std::move(trace_);
}

TraceRecorder GraphChromeTrace(const CausalGraph& graph) {
  JournalTraceExport trace;
  ForEachGraphChunk(graph, [&trace](JournalChunk& chunk) { trace.Add(chunk); });
  return trace.Finish();
}

}  // namespace deepplan
