#include "src/obs/causal_graph.h"

#include <algorithm>
#include <utility>

#include "src/obs/journal_stream.h"
#include "src/util/logging.h"

namespace deepplan {

CpStrings::CpStrings() { Intern(""); }

CpStrId CpStrings::Intern(std::string_view s) {
  const auto it = ids_.find(s);
  if (it != ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<CpStrId>(strings_.size());
  strings_.emplace_back(s);
  ids_.emplace(strings_.back(), id);
  return id;
}

const char* CpKindName(CpKind kind) {
  switch (kind) {
    case CpKind::kArrival:
      return "arrival";
    case CpKind::kEvict:
      return "evict";
    case CpKind::kPcie:
      return "pcie";
    case CpKind::kNvlink:
      return "nvlink";
    case CpKind::kExec:
      return "exec";
  }
  return "unknown";
}

CausalGraph::StreamState::StreamState()
    : own(std::make_unique<JournalWriter>()), sink(own.get()) {
  own->OpenInMemory();
}

CausalGraph::StreamState::StreamState(JournalWriter* s) : sink(s) {}

CausalGraph::CausalGraph(bool enabled) : enabled_(enabled) {
  if (enabled_) {
    stream_ = std::make_unique<StreamState>();
  }
}

CausalGraph::CausalGraph(CausalGraph&&) noexcept = default;
CausalGraph& CausalGraph::operator=(CausalGraph&&) noexcept = default;
CausalGraph::~CausalGraph() = default;

int CausalGraph::RegisterProcess(std::string_view name) {
  if (!enabled_) {
    return 0;
  }
  const int id = num_processes_++;
  stream_->sink->OnProcess(id, std::string(name));
  return id;
}

CpStrId CausalGraph::Intern(std::string_view s) {
  if (!enabled_) {
    return 0;
  }
  MutexLock lock(stream_->mu);
  return strings_.Intern(s);
}

CpStrId CausalGraph::ArrivalLabel() {
  if (arrival_label_ == 0) {
    arrival_label_ = strings_.Intern("arrival");
  }
  return arrival_label_;
}

void CausalGraph::AttachSink(JournalWriter* sink) {
  DP_CHECK(sink != nullptr);
  DP_CHECK(enabled_);
  {
    // Attaching must start from a clean graph: requests already retired
    // went to the graph's own journal, and processes already registered
    // would never reach the sink.
    MutexLock lock(stream_->mu);
    DP_CHECK(stream_->open.end() == 0 && num_processes_ == 0 &&
             "AttachSink needs an empty graph");
  }
  stream_ = std::make_unique<StreamState>(sink);
}

CpRequestRecord* CausalGraph::OpenRecord(int request) const {
  DP_CHECK(stream_->open.contains(request) && stream_->open[request] != nullptr &&
           "the request is open");
  return stream_->open[request];
}

void CausalGraph::RetireLocked(int request) const {
  CpRequestRecord* record = OpenRecord(request);
  stream_->sink->OnRequestRetired(*record, strings_);
  record->nodes.clear();
  record->edges.clear();
  stream_->free_records.push_back(record);
  stream_->open[request] = nullptr;
  // Advance the window past the retired prefix, to the oldest open request.
  IdRing<CpRequestRecord*>& open = stream_->open;
  while (!open.empty() && open[open.begin()] == nullptr) {
    open.pop_front();
  }
}

void CausalGraph::RetireOpenLocked() const {
  // The oldest open request is always live (RetireLocked drops retired ones
  // off the front), so this retires in request-id order.
  while (!stream_->open.empty()) {
    RetireLocked(static_cast<int>(stream_->open.begin()));
  }
}

void CausalGraph::FlushOpenRequests() {
  if (!enabled_) {
    return;
  }
  MutexLock lock(stream_->mu);
  RetireOpenLocked();
}

int CausalGraph::BeginRequest(int process, int instance, Nanos arrival) {
  if (!enabled_) {
    return -1;
  }
  MutexLock lock(stream_->mu);
  DP_CHECK(!stream_->closed && "a graph whose journal was read records no more");
  CpRequestRecord* record = nullptr;
  if (stream_->free_records.empty()) {
    record = &stream_->records.emplace_back();
  } else {
    record = stream_->free_records.back();
    stream_->free_records.pop_back();
  }
  CpRequest& req = record->request;
  req = CpRequest{};
  req.id = static_cast<int>(stream_->open.end());
  req.process = process;
  req.instance = instance;
  req.arrival = arrival;
  stream_->open.push_back(record);
  CpNode root;
  root.kind = CpKind::kArrival;
  root.label = ArrivalLabel();
  root.start = arrival;
  root.end = arrival;
  req.arrival_node = AddNodeLocked(req.id, root, {});
  return req.id;
}

CpNodeId CausalGraph::AddNode(int request, const CpNode& node,
                              std::span<const CpNodeId> preds) {
  if (!enabled_ || request < 0) {
    return -1;
  }
  DP_CHECK(node.dha_pcie >= 0);
  MutexLock lock(stream_->mu);
  return AddNodeLocked(request, node, preds);
}

CpNodeId CausalGraph::AddNodeLocked(int request, const CpNode& node,
                                    std::span<const CpNodeId> preds) {
  CpRequestRecord* record = OpenRecord(request);
  const CpNodeId id = stream_->next_node++;
  for (const CpNodeId from : preds) {
    // Edges run forward in id order, so no recorder can close a cycle, and
    // stay in one request, so a retired request is self-contained. The
    // record's nodes are in id order.
    DP_CHECK(std::ranges::binary_search(record->nodes, from, {}, &CpNode::id) &&
             "a predecessor is an earlier node of the same open request");
    record->edges.push_back(CpEdgeRec{stream_->next_edge++, from, id});
  }
  CpNode& added = record->nodes.emplace_back(node);
  added.id = id;
  added.request = request;
  return id;
}

void CausalGraph::MarkCold(int request) {
  if (!enabled_ || request < 0) {
    return;
  }
  MutexLock lock(stream_->mu);
  OpenRecord(request)->request.cold = true;
}

void CausalGraph::EndRequest(int request, Nanos completion, CpNodeId terminal) {
  if (!enabled_ || request < 0) {
    return;
  }
  MutexLock lock(stream_->mu);
  CpRequestRecord* record = OpenRecord(request);
  record->request.completion = completion;
  record->request.terminal_node =
      terminal >= 0 ? terminal : record->nodes.back().id;
  RetireLocked(request);
}

CpNodeId CausalGraph::last_node(int request) const {
  if (!enabled_ || request < 0) {
    return -1;
  }
  MutexLock lock(stream_->mu);
  return OpenRecord(request)->nodes.back().id;
}

void CausalGraph::Adopt(CausalGraph&& other) {
  if (!enabled_ || !other.enabled_) {
    return;
  }
  MutexLock lock(stream_->mu);
  DP_CHECK(stream_->open.empty() && !stream_->closed &&
           "Adopt needs a graph still recording, with no open request");
  const int process_base = num_processes_;
  const auto request_base = static_cast<int>(stream_->open.end());
  const CpNodeId node_base = stream_->next_node;
  const std::int64_t edge_base = stream_->next_edge;
  std::vector<CpStrId> remap;
  CpRequestRecord record;
  const JournalTotals totals = ForEachGraphChunk(other, [&](JournalChunk& chunk) {
    for (const std::string& name : chunk.new_processes) {
      stream_->sink->OnProcess(num_processes_++, name);
    }
    remap.resize(chunk.num_strings());
    for (std::size_t i = 0; i < remap.size(); ++i) {
      remap[i] = strings_.Intern(chunk.str(static_cast<CpStrId>(i)));
    }
    for (const JournalChunk::Record& rec : chunk.requests) {
      record.request = rec.request;
      record.request.id += request_base;
      record.request.process += process_base;
      record.request.arrival_node += node_base;
      if (record.request.terminal_node >= 0) {
        record.request.terminal_node += node_base;
      }
      const auto first = chunk.nodes.begin() + rec.first_node;
      record.nodes.assign(first, first + rec.num_nodes);
      for (CpNode& node : record.nodes) {
        node.id += node_base;
        node.request = record.request.id;
        node.label = remap[node.label];
        node.resource = remap[node.resource];
        for (CpHop& hop : node.path) {
          hop.link = remap[hop.link];
        }
      }
      record.edges.clear();
      for (std::uint32_t i = rec.first_edge; i < rec.first_edge + rec.num_edges;
           ++i) {
        const JournalChunk::Edge& e = chunk.edges[i];
        record.edges.push_back(CpEdgeRec{e.seq + edge_base,
                                         chunk.nodes[e.from].id + node_base,
                                         chunk.nodes[e.to].id + node_base});
      }
      stream_->sink->OnRequestRetired(record, strings_);
    }
  });
  stream_->open.SkipTo(request_base + static_cast<std::int64_t>(totals.requests));
  stream_->next_node = node_base + static_cast<CpNodeId>(totals.nodes);
  stream_->next_edge = edge_base + static_cast<std::int64_t>(totals.edges);
  other = CausalGraph(/*enabled=*/false);
}

std::string_view CausalGraph::journal() const {
  if (!enabled_) {
    static const std::string kEmpty = [] {
      JournalWriter writer;
      writer.OpenInMemory();
      writer.Finish();
      return writer.TakeBytes();
    }();
    return kEmpty;
  }
  MutexLock lock(stream_->mu);
  DP_CHECK(stream_->own != nullptr &&
           "a graph with an attached sink keeps no journal of its own");
  if (!stream_->closed) {
    RetireOpenLocked();
    const bool finished = stream_->own->Finish();
    DP_CHECK(finished);
    stream_->bytes = stream_->own->TakeBytes();
    stream_->closed = true;
  }
  return stream_->bytes;
}

std::string CausalGraph::ToJson() const {
  std::vector<JournalChunk> chunks;
  ForEachGraphChunk(*this, [&chunks](JournalChunk& chunk) {
    chunks.push_back(std::move(chunk));
  });
  return CausalJournalJson(chunks);
}

}  // namespace deepplan
