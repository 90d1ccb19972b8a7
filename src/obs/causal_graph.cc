#include "src/obs/causal_graph.h"

#include <algorithm>
#include <utility>

#include "src/obs/selfprof.h"
#include "src/util/json.h"
#include "src/util/logging.h"

namespace deepplan {

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

void CausalGraph::AttachSink(CausalSink* sink) {
  DP_CHECK(sink != nullptr);
  DP_CHECK(enabled_);
  // Streaming must start from a clean graph: already-accumulated requests
  // would never retire, and already-registered processes would never reach
  // the sink.
  DP_CHECK(requests_.empty() && nodes_.empty() && process_names_.empty());
  stream_ = std::make_unique<StreamState>(sink);
}

CpNode* CausalGraph::LiveNode(CpNodeId node) {
  const auto owner = stream_->live_node_owner.find(node);
  DP_CHECK(owner != stream_->live_node_owner.end());
  CpRequestRecord& rec = stream_->live.find(owner->second)->second;
  // Node ids within a request are strictly increasing (global append order).
  const auto it = std::lower_bound(
      rec.nodes.begin(), rec.nodes.end(), node,
      [](const CpNode& n, CpNodeId id) { return n.id < id; });
  DP_CHECK(it != rec.nodes.end() && it->id == node);
  return &*it;
}

void CausalGraph::RetireLive(std::map<int, CpRequestRecord>::iterator it) {
  CpRequestRecord record = std::move(it->second);
  for (const CpNode& node : record.nodes) {
    stream_->live_node_owner.erase(node.id);
  }
  stream_->live.erase(it);
  stream_->sink->OnRequestRetired(std::move(record));
}

void CausalGraph::FlushOpenRequests() {
  DP_CHECK(stream_ != nullptr);
  MutexLock lock(stream_->mu);
  while (!stream_->live.empty()) {
    RetireLive(stream_->live.begin());
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
  if (stream_ != nullptr) {
    MutexLock lock(stream_->mu);
    req.id = static_cast<int>(stream_->next_request++);
    CpRequestRecord rec;
    rec.request = req;
    stream_->live.emplace(req.id, std::move(rec));
    const CpNodeId root = AddNodeLocked(req.id, CpKind::kArrival, "arrival",
                                        "", arrival, arrival,
                                        /*bytes=*/0, /*solo=*/-1);
    stream_->live.find(req.id)->second.request.arrival_node = root;
    return req.id;
  }
  req.id = static_cast<int>(requests_.size());
  requests_.push_back(req);
  const CpNodeId root = AddNode(req.id, CpKind::kArrival, "arrival", "",
                                arrival, arrival);
  requests_.back().arrival_node = root;
  return req.id;
}

CpNodeId CausalGraph::AddNode(int request, CpKind kind, std::string label,
                              std::string resource, Nanos start, Nanos end,
                              std::int64_t bytes, Nanos solo) {
  if (!enabled_ || request < 0) {
    return -1;
  }
  if (stream_ != nullptr) {
    MutexLock lock(stream_->mu);
    return AddNodeLocked(request, kind, std::move(label), std::move(resource),
                         start, end, bytes, solo);
  }
  CpNode node;
  node.request = request;
  node.kind = kind;
  node.label = std::move(label);
  node.resource = std::move(resource);
  node.start = start;
  node.end = end;
  node.bytes = bytes;
  node.solo = solo;
  DP_CHECK(request < static_cast<int>(requests_.size()));
  node.id = static_cast<CpNodeId>(nodes_.size());
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

CpNodeId CausalGraph::AddNodeLocked(int request, CpKind kind,
                                    std::string label, std::string resource,
                                    Nanos start, Nanos end, std::int64_t bytes,
                                    Nanos solo) {
  CpNode node;
  node.request = request;
  node.kind = kind;
  node.label = std::move(label);
  node.resource = std::move(resource);
  node.start = start;
  node.end = end;
  node.bytes = bytes;
  node.solo = solo;
  const auto it = stream_->live.find(request);
  DP_CHECK(it != stream_->live.end());
  node.id = static_cast<CpNodeId>(stream_->next_node++);
  stream_->live_node_owner.emplace(node.id, request);
  it->second.nodes.push_back(std::move(node));
  return it->second.nodes.back().id;
}

void CausalGraph::SetNodePath(CpNodeId node, std::vector<CpHop> path) {
  if (!enabled_ || node < 0) {
    return;
  }
  if (stream_ != nullptr) {
    MutexLock lock(stream_->mu);
    LiveNode(node)->path = std::move(path);
    return;
  }
  DP_CHECK(node < static_cast<CpNodeId>(nodes_.size()));
  nodes_[static_cast<std::size_t>(node)].path = std::move(path);
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
  if (stream_ != nullptr) {
    MutexLock lock(stream_->mu);
    const auto from_owner = stream_->live_node_owner.find(from);
    const auto to_owner = stream_->live_node_owner.find(to);
    DP_CHECK(from_owner != stream_->live_node_owner.end());
    DP_CHECK(to_owner != stream_->live_node_owner.end());
    // The chunked journal's self-containment invariant: edges never cross
    // requests (every recorder chains a request's own nodes).
    DP_CHECK(from_owner->second == to_owner->second);
    stream_->live.find(to_owner->second)
        ->second.edges.push_back(CpEdgeRec{stream_->next_edge++, from, to});
    return;
  }
  DP_CHECK(from < static_cast<CpNodeId>(nodes_.size()));
  DP_CHECK(to < static_cast<CpNodeId>(nodes_.size()));
  edges_.emplace_back(from, to);
}

void CausalGraph::MarkCold(int request) {
  if (!enabled_ || request < 0) {
    return;
  }
  if (stream_ != nullptr) {
    MutexLock lock(stream_->mu);
    const auto it = stream_->live.find(request);
    DP_CHECK(it != stream_->live.end());
    it->second.request.cold = true;
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
    const auto it = stream_->live.find(request);
    DP_CHECK(it != stream_->live.end());
    CpRequest& req = it->second.request;
    req.completion = completion;
    req.terminal_node = terminal >= 0 ? terminal : req.arrival_node;
    RetireLive(it);
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
    const auto it = stream_->live.find(request);
    DP_CHECK(it != stream_->live.end());
    return it->second.request.arrival_node;
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
  for (CpRequest& req : other.requests_) {
    req.id += request_base;
    req.process += process_base;
    if (req.arrival_node >= 0) {
      req.arrival_node += node_base;
    }
    if (req.terminal_node >= 0) {
      req.terminal_node += node_base;
    }
    requests_.push_back(std::move(req));
  }
  for (CpNode& node : other.nodes_) {
    node.id += node_base;
    node.request += request_base;
    nodes_.push_back(std::move(node));
  }
  for (const auto& [from, to] : other.edges_) {
    edges_.emplace_back(from + node_base, to + node_base);
  }
  other = CausalGraph(other.enabled_);
}

std::string CausalGraph::ToJson() const {
  // A streaming graph's journal lives in its sink; there is nothing here to
  // serialize (materialize it back with ReadJournalToGraph instead).
  DP_CHECK(stream_ == nullptr);
  DP_SELFPROF_SCOPE(kJournalSerialize);
  JsonArray processes;
  for (const std::string& name : process_names_) {
    processes.Add(name);
  }
  JsonArray requests;
  for (const CpRequest& req : requests_) {
    requests.AddRaw(JsonObject()
                        .Set("id", req.id)
                        .Set("process", req.process)
                        .Set("instance", req.instance)
                        .Set("cold", req.cold)
                        .Set("arrival_ns", static_cast<std::int64_t>(req.arrival))
                        .Set("completion_ns",
                             static_cast<std::int64_t>(req.completion))
                        .Set("arrival_node", req.arrival_node)
                        .Set("terminal_node", req.terminal_node)
                        .Render());
  }
  JsonArray nodes;
  for (const CpNode& node : nodes_) {
    JsonObject n;
    n.Set("id", node.id)
        .Set("request", node.request)
        .Set("kind", CpKindName(node.kind))
        .Set("label", node.label)
        .Set("resource", node.resource)
        .Set("start_ns", static_cast<std::int64_t>(node.start))
        .Set("end_ns", static_cast<std::int64_t>(node.end))
        .Set("bytes", node.bytes)
        .Set("solo_ns", static_cast<std::int64_t>(node.solo));
    // Optional fields, omitted when unset so journals recorded without them
    // export the same bytes.
    if (!node.path.empty()) {
      JsonArray hops;
      for (const CpHop& hop : node.path) {
        hops.AddRaw(JsonObject()
                        .Set("link", hop.link)
                        .Set("capacity", hop.capacity)
                        .Render());
      }
      n.SetRaw("path", hops.Render());
    }
    if (node.dha_pcie != 0) {
      n.Set("dha_pcie_ns", static_cast<std::int64_t>(node.dha_pcie));
    }
    nodes.AddRaw(n.Render());
  }
  JsonArray edges;
  for (const auto& [from, to] : edges_) {
    edges.AddRaw(JsonArray().Add(from).Add(to).Render());
  }
  JsonObject journal;
  journal.SetRaw("processes", processes.Render())
      .SetRaw("requests", requests.Render())
      .SetRaw("nodes", nodes.Render())
      .SetRaw("edges", edges.Render());
  JsonObject doc;
  doc.SetRaw("causal_journal", journal.Render());
  return doc.Render();
}

bool CausalGraph::Assemble(std::vector<std::string> processes,
                           std::vector<CpRequest> requests,
                           std::vector<CpNode> nodes,
                           std::vector<std::pair<CpNodeId, CpNodeId>> edges,
                           CausalGraph* out, std::string* error) {
  std::string local_error;
  if (error == nullptr) {
    error = &local_error;
  }
  const auto num_nodes = static_cast<std::int64_t>(nodes.size());
  const auto num_requests = static_cast<std::int64_t>(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const CpRequest& r = requests[i];
    if (r.id != static_cast<int>(i)) {
      *error = "request ids are not dense and sorted (duplicate, missing or "
               "out-of-order request " +
               std::to_string(i) + ")";
      return false;
    }
    if (r.arrival_node < 0 || r.arrival_node >= num_nodes ||
        r.terminal_node < -1 || r.terminal_node >= num_nodes) {
      *error = "request " + std::to_string(r.id) + " references unknown nodes";
      return false;
    }
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const CpNode& n = nodes[i];
    if (n.id != static_cast<CpNodeId>(i)) {
      *error = "node ids are not dense and sorted (duplicate, missing or "
               "out-of-order node " +
               std::to_string(i) + ")";
      return false;
    }
    if (n.request < 0 || n.request >= num_requests) {
      *error = "node " + std::to_string(n.id) + " references unknown request";
      return false;
    }
    if (n.end < n.start) {
      *error = "node " + std::to_string(n.id) + " ends before it starts";
      return false;
    }
  }
  for (const auto& [from, to] : edges) {
    if (from < 0 || from >= num_nodes || to < 0 || to >= num_nodes) {
      *error = "edge references unknown node";
      return false;
    }
  }
  CausalGraph graph(/*enabled=*/true);
  graph.process_names_ = std::move(processes);
  graph.requests_ = std::move(requests);
  graph.nodes_ = std::move(nodes);
  graph.edges_ = std::move(edges);
  *out = std::move(graph);
  return true;
}

}  // namespace deepplan
