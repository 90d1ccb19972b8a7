#include "src/obs/causal_graph.h"

#include <utility>

#include "src/obs/journal_stream.h"
#include "src/util/index.h"
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

int CausalGraph::RegisterProcess(std::string_view name) {
  if (!enabled_) {
    return 0;
  }
  // process_names_ stays confined to the recording thread even when
  // streaming; the sink is internally synchronized, so no graph lock here.
  process_names_.emplace_back(name);
  const int id = static_cast<int>(process_names_.size() - 1);
  if (stream_ != nullptr) {
    stream_->sink->OnProcess(id, process_names_.back());
  }
  return id;
}

CpStrId CausalGraph::Intern(std::string_view s) {
  if (!enabled_) {
    return 0;
  }
  if (stream_ != nullptr) {
    MutexLock lock(stream_->mu);
    return strings_.Intern(s);
  }
  return strings_.Intern(s);
}

CpStrId CausalGraph::ArrivalLabel() {
  if (arrival_label_ == 0) {
    arrival_label_ = strings_.Intern("arrival");
  }
  return arrival_label_;
}

bool CausalGraph::KnownStrings(const CpNode& node) const {
  bool known = node.label < strings_.size() && node.resource < strings_.size();
  for (const CpHop& hop : node.path) {
    known = known && hop.link < strings_.size();
  }
  return known;
}

void CausalGraph::AttachSink(CausalSink* sink) {
  DP_CHECK(sink != nullptr);
  DP_CHECK(enabled_);
  // Streaming must start from a clean graph: already-accumulated requests
  // would never retire, and already-registered processes would never reach
  // the sink.
  DP_CHECK(requests_.empty() && nodes_.empty() && process_names_.empty());
  stream_ = std::make_unique<StreamState>(sink);
}

bool CausalGraph::IsOpen(int request) const {
  return stream_->open.contains(request) && stream_->open[request] != nullptr;
}

CpRequestRecord* CausalGraph::OpenRecord(int request) const {
  DP_CHECK(IsOpen(request) && "the request is open");
  return stream_->open[request];
}

CausalGraph::NodeSlot CausalGraph::LiveSlot(CpNodeId node) const {
  DP_CHECK(stream_->nodes.contains(node) && "the node's request is open");
  const NodeSlot slot = stream_->nodes[node];
  DP_CHECK(IsOpen(slot.request) && "the node's request is open");
  return slot;
}

CpNode* CausalGraph::LiveNode(CpNodeId node) {
  const NodeSlot slot = LiveSlot(node);
  return &stream_->open[slot.request]->nodes[slot.index];
}

void CausalGraph::RetireLocked(int request) {
  CpRequestRecord* record = OpenRecord(request);
  stream_->sink->OnRequestRetired(*record, strings_);
  record->nodes.clear();
  record->edges.clear();
  stream_->free_records.push_back(record);
  stream_->open[request] = nullptr;
  // Advance both windows past the retired prefix: the oldest open request,
  // and the oldest node still owned by an open request.
  IdRing<CpRequestRecord*>& open = stream_->open;
  while (!open.empty() && open[open.begin()] == nullptr) {
    open.pop_front();
  }
  IdRing<NodeSlot>& nodes = stream_->nodes;
  while (!nodes.empty() && !IsOpen(nodes[nodes.begin()].request)) {
    nodes.pop_front();
  }
}

void CausalGraph::FlushOpenRequests() {
  DP_CHECK(stream_ != nullptr);
  MutexLock lock(stream_->mu);
  // The oldest open request is always live (RetireLocked drops retired ones
  // off the front), so this retires in request-id order.
  while (!stream_->open.empty()) {
    RetireLocked(static_cast<int>(stream_->open.begin()));
  }
}

int CausalGraph::BeginRequest(int process, int instance, Nanos arrival) {
  if (!enabled_) {
    return -1;
  }
  CpRequest req;
  req.process = process;
  req.instance = instance;
  req.arrival = arrival;
  CpNode root;
  root.kind = CpKind::kArrival;
  root.start = arrival;
  root.end = arrival;
  if (stream_ != nullptr) {
    MutexLock lock(stream_->mu);
    req.id = static_cast<int>(stream_->open.end());
    CpRequestRecord* record = nullptr;
    if (stream_->free_records.empty()) {
      record = &stream_->records.emplace_back();
    } else {
      record = stream_->free_records.back();
      stream_->free_records.pop_back();
    }
    record->request = req;
    stream_->open.push_back(record);
    root.label = ArrivalLabel();
    record->request.arrival_node = AddNodeLocked(req.id, root);
    return req.id;
  }
  req.id = static_cast<int>(requests_.size());
  requests_.push_back(req);
  requests_.back().arrival_node =
      AddNode(req.id, root.kind, ArrivalLabel(), 0, arrival, arrival);
  return req.id;
}

CpNodeId CausalGraph::AddNode(int request, CpKind kind, CpStrId label,
                              CpStrId resource, Nanos start, Nanos end,
                              std::int64_t bytes, Nanos solo) {
  if (!enabled_ || request < 0) {
    return -1;
  }
  CpNode node;
  node.request = request;
  node.kind = kind;
  node.label = label;
  node.resource = resource;
  node.start = start;
  node.end = end;
  node.bytes = bytes;
  node.solo = solo;
  if (stream_ != nullptr) {
    MutexLock lock(stream_->mu);
    return AddNodeLocked(request, node);
  }
  DP_CHECK(KnownStrings(node));
  DP_CHECK(request < static_cast<int>(requests_.size()));
  node.id = static_cast<CpNodeId>(nodes_.size());
  nodes_.push_back(node);
  return node.id;
}

CpNodeId CausalGraph::AddNode(int request, CpKind kind, std::string_view label,
                              std::string_view resource, Nanos start, Nanos end,
                              std::int64_t bytes, Nanos solo) {
  if (!enabled_ || request < 0) {
    return -1;
  }
  return AddNode(request, kind, Intern(label), Intern(resource), start, end,
                 bytes, solo);
}

CpNodeId CausalGraph::AddNodeLocked(int request, const CpNode& node) {
  CpRequestRecord* record = OpenRecord(request);
  const auto id = static_cast<CpNodeId>(stream_->nodes.end());
  stream_->nodes.push_back(
      NodeSlot{request, static_cast<std::uint32_t>(record->nodes.size())});
  CpNode& added = record->nodes.emplace_back(node);
  added.id = id;
  added.request = request;
  return id;
}

void CausalGraph::SetNodePath(CpNodeId node, const CpPath& path) {
  if (!enabled_ || node < 0) {
    return;
  }
  if (stream_ != nullptr) {
    MutexLock lock(stream_->mu);
    LiveNode(node)->path = path;
    return;
  }
  DP_CHECK(node < static_cast<CpNodeId>(nodes_.size()));
  CpNode& n = nodes_[static_cast<std::size_t>(node)];
  n.path = path;
  DP_CHECK(KnownStrings(n));
}

void CausalGraph::SetNodeDhaPcie(CpNodeId node, Nanos dha_pcie) {
  if (!enabled_ || node < 0) {
    return;
  }
  DP_CHECK(dha_pcie >= 0);
  if (stream_ != nullptr) {
    MutexLock lock(stream_->mu);
    LiveNode(node)->dha_pcie = dha_pcie;
    return;
  }
  DP_CHECK(node < static_cast<CpNodeId>(nodes_.size()));
  nodes_[static_cast<std::size_t>(node)].dha_pcie = dha_pcie;
}

void CausalGraph::AddEdge(CpNodeId from, CpNodeId to) {
  if (!enabled_ || from < 0 || to < 0) {
    return;
  }
  // Edges run forward in append order, so no recorder can close a cycle.
  DP_CHECK(from < to);
  // The chunked journal's self-containment invariant: edges never cross
  // requests (every recorder chains a request's own nodes).
  if (stream_ != nullptr) {
    MutexLock lock(stream_->mu);
    const int owner = LiveSlot(to).request;
    DP_CHECK(stream_->nodes.contains(from) &&
             stream_->nodes[from].request == owner &&
             "an edge stays in one request");
    stream_->open[owner]->edges.push_back(
        CpEdgeRec{stream_->next_edge++, from, to});
    return;
  }
  DP_CHECK(to < static_cast<CpNodeId>(nodes_.size()));
  DP_CHECK(nodes_[Idx(from)].request == nodes_[Idx(to)].request &&
           "an edge stays in one request");
  edges_.emplace_back(from, to);
}

void CausalGraph::MarkCold(int request) {
  if (!enabled_ || request < 0) {
    return;
  }
  if (stream_ != nullptr) {
    MutexLock lock(stream_->mu);
    OpenRecord(request)->request.cold = true;
    return;
  }
  DP_CHECK(request < static_cast<int>(requests_.size()));
  requests_[static_cast<std::size_t>(request)].cold = true;
}

void CausalGraph::EndRequest(int request, Nanos completion, CpNodeId terminal) {
  if (!enabled_ || request < 0) {
    return;
  }
  if (stream_ != nullptr) {
    MutexLock lock(stream_->mu);
    CpRequest& req = OpenRecord(request)->request;
    req.completion = completion;
    req.terminal_node = terminal >= 0 ? terminal : req.arrival_node;
    RetireLocked(request);
    return;
  }
  DP_CHECK(request < static_cast<int>(requests_.size()));
  CpRequest& req = requests_[static_cast<std::size_t>(request)];
  req.completion = completion;
  req.terminal_node = terminal >= 0 ? terminal : req.arrival_node;
}

CpNodeId CausalGraph::arrival_node(int request) const {
  if (!enabled_ || request < 0) {
    return -1;
  }
  if (stream_ != nullptr) {
    MutexLock lock(stream_->mu);
    return OpenRecord(request)->request.arrival_node;
  }
  DP_CHECK(request < static_cast<int>(requests_.size()));
  return requests_[static_cast<std::size_t>(request)].arrival_node;
}

void CausalGraph::Adopt(CausalGraph&& other) {
  if (!enabled_) {
    return;
  }
  DP_CHECK(stream_ == nullptr && other.stream_ == nullptr);
  const int process_base = static_cast<int>(process_names_.size());
  const int request_base = static_cast<int>(requests_.size());
  const CpNodeId node_base = static_cast<CpNodeId>(nodes_.size());
  for (std::string& name : other.process_names_) {
    process_names_.push_back(std::move(name));
  }
  std::vector<CpStrId> remap(other.strings_.size());
  for (std::size_t i = 0; i < remap.size(); ++i) {
    remap[i] = strings_.Intern(other.strings_[static_cast<CpStrId>(i)]);
  }
  for (CpRequest& req : other.requests_) {
    req.id += request_base;
    req.process += process_base;
    if (req.arrival_node >= 0) {
      req.arrival_node += node_base;
    }
    if (req.terminal_node >= 0) {
      req.terminal_node += node_base;
    }
    requests_.push_back(req);
  }
  for (CpNode& node : other.nodes_) {
    node.id += node_base;
    node.request += request_base;
    node.label = remap[node.label];
    node.resource = remap[node.resource];
    for (CpHop& hop : node.path) {
      hop.link = remap[hop.link];
    }
    nodes_.push_back(node);
  }
  for (const auto& [from, to] : other.edges_) {
    edges_.emplace_back(from + node_base, to + node_base);
  }
  other = CausalGraph(other.enabled_);
}

std::string CausalGraph::ToJson() const {
  // A streaming graph's journal lives in its sink.
  DP_CHECK(stream_ == nullptr);
  std::vector<JournalChunk> chunks(1);
  GraphToChunk(*this, &chunks[0]);
  return CausalJournalJson(chunks);
}

}  // namespace deepplan
