#include "src/obs/whatif/whatif.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/obs/journal_stream.h"
#include "src/sim/fabric.h"
#include "src/sim/simulator.h"
#include "src/util/index.h"
#include "src/util/json.h"
#include "src/util/logging.h"

namespace deepplan {

namespace {

// NVLink links are named "nvlink/..."; everything else ("pcie/...",
// "uplink/...") is PCIe infrastructure and follows the PCIe knob.
bool IsNvlinkName(const std::string& link) {
  return link.rfind("nvlink", 0) == 0;
}

// ceil(bytes / rate) in nanoseconds — the same rounding Fabric::SoloDuration
// and its completion scheduler apply, so identity replay lands on the exact
// recorded instants.
Nanos CeilTransferBody(std::int64_t bytes, double rate) {
  if (bytes <= 0) {
    return 0;
  }
  DP_CHECK(rate > 0);
  const double secs = static_cast<double>(bytes) / rate;
  return static_cast<Nanos>(std::ceil(secs * kNanosPerSecond));
}

std::string CanonicalName(const WhatIfExperiment& e) {
  std::string out;
  const auto add = [&out](const std::string& clause) {
    if (!out.empty()) {
      out += ',';
    }
    out += clause;
  };
  if (e.pcie_scale != 1.0) {
    add("pcie=" + Json::Num(e.pcie_scale));
  }
  if (e.nvlink_scale != 1.0) {
    add("nvlink=" + Json::Num(e.nvlink_scale));
  }
  if (e.exec_scale != 1.0) {
    add("exec=" + Json::Num(e.exec_scale));
  }
  if (e.zero_contention) {
    add("nocontention");
  }
  if (e.remove_evictions) {
    add("noevict");
  }
  return out.empty() ? "baseline" : out;
}

// The data plane the Replayer schedules against. Two implementations: the
// whole graph pinned in memory (InMemorySource), or a chunked binary journal
// whose per-request node/edge state is loaded lazily and freed as requests
// finish replaying (WindowedSource). The Replayer is the only component that
// talks to the Simulator, so as long as a source serves identical data, the
// event sequence — and every prediction — is identical too.
class ReplaySource {
 public:
  virtual ~ReplaySource() = default;

  virtual std::size_t num_requests() const = 0;
  virtual int num_processes() const = 0;
  // Request metadata; always available (windowed sources index it up front).
  virtual const CpRequest& request(int id) const = 0;
  // Resource of the request's terminal node (dispatch-domain key). Only
  // called for completed requests with a terminal.
  virtual const std::string& terminal_resource(int id) const = 0;
  // The request's non-arrival nodes in id order. Makes the request's window
  // resident; the returned reference is valid until the request finishes.
  virtual const std::vector<CpNodeId>& request_nodes(int id) = 0;
  // Hook before the arrival node of `id` is finished at its recorded time —
  // windowed sources page the request in here.
  virtual void BeforeArrival(int id) = 0;
  // Node-addressed state; valid only while the owning request is resident.
  virtual const CpNode& node(CpNodeId id) = 0;
  virtual const std::vector<CpNodeId>& successors(CpNodeId id) = 0;
  virtual int& pending(CpNodeId id) = 0;
  // Retirement hooks, fired by the Replayer in this order for a terminal
  // node: OnRequestDone(request), then OnNodeFinished(node). After
  // OnNodeFinished(n) no state of node n is touched again.
  virtual void OnNodeFinished(CpNodeId id) = 0;
  virtual void OnRequestDone(int id) = 0;
};

// ReplaySource over a fully materialized CausalGraph (the original engine).
class InMemorySource : public ReplaySource {
 public:
  explicit InMemorySource(const CausalGraph& graph) : graph_(graph) {
    const auto& nodes = graph_.nodes();
    succ_.assign(nodes.size(), {});
    pending_.assign(nodes.size(), 0);
    for (const auto& [from, to] : graph_.edges()) {
      succ_[Idx(from)].push_back(to);
      ++pending_[Idx(to)];
    }
    req_nodes_.assign(graph_.requests().size(), {});
    for (const auto& n : nodes) {
      if (n.request >= 0 && n.kind != CpKind::kArrival) {
        ++pending_[Idx(n.id)];  // the release token
        req_nodes_[Idx(n.request)].push_back(n.id);
      }
    }
  }

  std::size_t num_requests() const override {
    return graph_.requests().size();
  }
  int num_processes() const override {
    return static_cast<int>(graph_.processes().size());
  }
  const CpRequest& request(int id) const override {
    return graph_.requests()[Idx(id)];
  }
  const std::string& terminal_resource(int id) const override {
    return graph_.nodes()[Idx(request(id).terminal_node)].resource;
  }
  const std::vector<CpNodeId>& request_nodes(int id) override {
    return req_nodes_[Idx(id)];
  }
  void BeforeArrival(int) override {}
  const CpNode& node(CpNodeId id) override { return graph_.nodes()[Idx(id)]; }
  const std::vector<CpNodeId>& successors(CpNodeId id) override {
    return succ_[Idx(id)];
  }
  int& pending(CpNodeId id) override { return pending_[Idx(id)]; }
  void OnNodeFinished(CpNodeId) override {}
  void OnRequestDone(int) override {}

 private:
  const CausalGraph& graph_;
  std::vector<std::vector<CpNodeId>> succ_;
  std::vector<int> pending_;
  std::vector<std::vector<CpNodeId>> req_nodes_;
};

// Event-driven forward re-scheduling of the journal DAG. Every non-arrival
// node waits for (a) all of its happens-before predecessors and (b) its
// request's dispatch ("release"). Releases re-derive the server's per-GPU
// FIFO rule: requests sharing a (process, terminal resource) domain serialize
// in request-id order, each releasing at max(its arrival, the previous
// domain request's replayed completion). Transfers run through a per-process
// fair-share Fabric rebuilt from the recorded hops at scaled capacities, so
// contention re-emerges from the replayed overlap instead of being copied.
class Replayer {
 public:
  Replayer(ReplaySource& src, const WhatIfExperiment& exp)
      : src_(src), exp_(exp) {}

  WhatIfReplay Run() {
    const std::size_t num_requests = src_.num_requests();
    out_.latency.assign(num_requests, -1);
    out_.pcie_time.assign(num_requests, 0);
    out_.nvlink_time.assign(num_requests, 0);
    out_.exec_time.assign(num_requests, 0);

    int num_processes = src_.num_processes();
    for (std::size_t id = 0; id < num_requests; ++id) {
      num_processes =
          std::max(num_processes, src_.request(static_cast<int>(id)).process + 1);
    }
    fabrics_.resize(Idx(num_processes));
    links_.resize(Idx(num_processes));

    // Chain completed requests into dispatch domains; requests the journal
    // never completed are skipped entirely (their nodes stay unscheduled).
    next_in_domain_.assign(num_requests, -1);
    std::map<std::pair<int, std::string>, int> domain_tail;
    for (std::size_t i = 0; i < num_requests; ++i) {
      const CpRequest& r = src_.request(static_cast<int>(i));
      if (r.completion < 0 || r.terminal_node < 0) {
        continue;
      }
      const auto key = std::make_pair(r.process, src_.terminal_resource(r.id));
      const auto it = domain_tail.find(key);
      if (it == domain_tail.end()) {
        const int id = r.id;
        sim_.ScheduleAt(r.arrival, [this, id] { Release(id); });
      } else {
        next_in_domain_[Idx(it->second)] = r.id;
      }
      domain_tail[key] = r.id;
      const CpNodeId arrival_node = r.arrival_node;
      if (arrival_node >= 0) {
        const int rid = r.id;
        sim_.ScheduleAt(r.arrival, [this, rid, arrival_node] {
          src_.BeforeArrival(rid);
          FinishNode(arrival_node, 0);
        });
      }
    }

    sim_.Run();

    for (std::size_t i = 0; i < num_requests; ++i) {
      const CpRequest& r = src_.request(static_cast<int>(i));
      if (r.completion >= 0 && r.terminal_node >= 0) {
        // A stuck replay means the journal's edges are cyclic or reference
        // work from a request that never completed.
        DP_CHECK(out_.latency[Idx(r.id)] >= 0);
      }
    }
    return std::move(out_);
  }

 private:
  Fabric& FabricFor(int process) {
    auto& fabric = fabrics_[Idx(process)];
    if (!fabric) {
      fabric = std::make_unique<Fabric>(&sim_);
    }
    return *fabric;
  }

  double ScaleFor(const std::string& link) const {
    return IsNvlinkName(link) ? exp_.nvlink_scale : exp_.pcie_scale;
  }

  LinkId LinkFor(int process, const CpHop& hop) {
    auto& map = links_[Idx(process)];
    const auto it = map.find(hop.link);
    if (it != map.end()) {
      DP_CHECK(it->second.second == hop.capacity);  // journal self-consistency
      return it->second.first;
    }
    const LinkId id =
        FabricFor(process).AddLink(hop.link, hop.capacity * ScaleFor(hop.link));
    map.emplace(hop.link, std::make_pair(id, hop.capacity));
    return id;
  }

  void Release(int request) {
    // request_nodes() pages the request's window in (windowed source); no
    // node of a request is touched before its Release or BeforeArrival.
    for (const CpNodeId n : src_.request_nodes(request)) {
      Arm(n);
    }
  }

  void Arm(CpNodeId node) {
    int& pending = src_.pending(node);
    DP_CHECK(pending > 0);
    if (--pending == 0) {
      StartNode(node);
    }
  }

  // The PCIe-scaled share of an exec node's replayed duration (DHA parameter
  // streaming). The remainder of the node scales only with the exec knob.
  Nanos ScaledDhaShare(const CpNode& n) const {
    const Nanos dha = std::clamp<Nanos>(n.dha_pcie, 0, n.end - n.start);
    return static_cast<Nanos>(static_cast<double>(dha) /
                              (exp_.exec_scale * exp_.pcie_scale));
  }

  void StartNode(CpNodeId id) {
    const CpNode& n = src_.node(id);
    const Nanos recorded = n.end - n.start;
    switch (n.kind) {
      case CpKind::kArrival:
        DP_CHECK(false);  // arrivals are scheduled directly, never armed
        break;
      case CpKind::kEvict:
        FinishAfter(id, exp_.remove_evictions ? 0 : recorded);
        break;
      case CpKind::kExec: {
        const Nanos dha = std::clamp<Nanos>(n.dha_pcie, 0, recorded);
        const auto rest = static_cast<Nanos>(
            static_cast<double>(recorded - dha) / exp_.exec_scale);
        FinishAfter(id, rest + ScaledDhaShare(n));
        break;
      }
      case CpKind::kPcie:
      case CpKind::kNvlink:
        ReplayTransfer(id, n);
        break;
    }
  }

  void ReplayTransfer(CpNodeId id, const CpNode& n) {
    const Nanos recorded = n.end - n.start;
    const double knob =
        n.kind == CpKind::kNvlink ? exp_.nvlink_scale : exp_.pcie_scale;
    if (n.path.empty()) {
      // Journal predates hop recording: no fabric to rebuild, so degrade to
      // scaling the recorded (or, contention-free, the solo) duration.
      const Nanos base =
          exp_.zero_contention && n.solo >= 0 ? n.solo : recorded;
      FinishAfter(id, static_cast<Nanos>(static_cast<double>(base) / knob));
      return;
    }
    double min_cap = std::numeric_limits<double>::infinity();
    double min_scaled = std::numeric_limits<double>::infinity();
    for (const CpHop& hop : n.path) {
      min_cap = std::min(min_cap, hop.capacity);
      min_scaled = std::min(min_scaled, hop.capacity * ScaleFor(hop.link));
    }
    // The recorded solo is body-at-min-capacity + latency tail, so the
    // bandwidth-independent tail (DMA setup, completion signalling) falls out
    // exactly.
    const Nanos latency =
        n.solo >= 0
            ? std::max<Nanos>(0, n.solo - CeilTransferBody(n.bytes, min_cap))
            : 0;
    if (exp_.zero_contention) {
      FinishAfter(id, CeilTransferBody(n.bytes, min_scaled) + latency);
      return;
    }
    const int process = n.request >= 0 ? src_.request(n.request).process : 0;
    LinkPath path;
    for (const CpHop& hop : n.path) {
      path.push_back(LinkFor(process, hop));
    }
    FabricFor(process).Start(path, n.bytes, latency,
                             [this, id](Nanos elapsed) { FinishNode(id, elapsed); });
  }

  void FinishAfter(CpNodeId id, Nanos duration) {
    DP_CHECK(duration >= 0);
    sim_.ScheduleAfter(duration,
                       [this, id, duration] { FinishNode(id, duration); });
  }

  void FinishNode(CpNodeId id, Nanos elapsed) {
    const Nanos now = sim_.now();
    // Capture everything needed from the node up front: once
    // src_.OnNodeFinished(id) runs (last statement), a windowed source may
    // have freed the node's storage.
    const CpNode& n = src_.node(id);
    const int request = n.request;
    const CpKind kind = n.kind;
    if (request >= 0) {
      switch (kind) {
        case CpKind::kPcie:
          out_.pcie_time[Idx(request)] += elapsed;
          break;
        case CpKind::kNvlink:
          out_.nvlink_time[Idx(request)] += elapsed;
          break;
        case CpKind::kExec:
          out_.exec_time[Idx(request)] += elapsed;
          // DHA streaming rides the PCIe links, so its share counts toward
          // the PCIe knob's leverage too.
          out_.pcie_time[Idx(request)] += ScaledDhaShare(n);
          break;
        case CpKind::kArrival:
        case CpKind::kEvict:
          break;
      }
    }
    for (const CpNodeId s : src_.successors(id)) {
      Arm(s);
    }
    if (request >= 0) {
      const CpRequest& r = src_.request(request);
      if (r.terminal_node == id && r.completion >= 0) {
        out_.latency[Idx(r.id)] = now - r.arrival;
        const int next = next_in_domain_[Idx(r.id)];
        if (next >= 0) {
          const Nanos arrival = src_.request(next).arrival;
          if (arrival <= now) {
            Release(next);
          } else {
            sim_.ScheduleAt(arrival, [this, next] { Release(next); });
          }
        }
        src_.OnRequestDone(r.id);
      }
    }
    src_.OnNodeFinished(id);
  }

  ReplaySource& src_;
  const WhatIfExperiment& exp_;
  Simulator sim_;
  WhatIfReplay out_;
  std::vector<int> next_in_domain_;
  std::vector<std::unique_ptr<Fabric>> fabrics_;
  // Per process: link name -> (link id, recorded unscaled capacity).
  std::vector<std::unordered_map<std::string, std::pair<LinkId, double>>>
      links_;
};

}  // namespace

bool ParseWhatIfExperiment(const std::string& spec, WhatIfExperiment* out,
                           std::string* error) {
  DP_CHECK(out != nullptr && error != nullptr);
  WhatIfExperiment exp;
  if (spec.empty()) {
    *error = "empty what-if spec";
    return false;
  }
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = spec.find(',', start);
    const std::string tok = spec.substr(
        start, (comma == std::string::npos ? spec.size() : comma) - start);
    if (tok.empty()) {
      *error = "empty clause in what-if spec '" + spec + "'";
      return false;
    }
    if (tok == "baseline") {
      // identity: no clause
    } else if (tok == "nocontention") {
      exp.zero_contention = true;
    } else if (tok == "noevict") {
      exp.remove_evictions = true;
    } else {
      const std::size_t eq = tok.find('=');
      const std::string key =
          eq == std::string::npos ? tok : tok.substr(0, eq);
      if (eq == std::string::npos ||
          (key != "pcie" && key != "nvlink" && key != "exec")) {
        *error = "unknown what-if clause '" + tok +
                 "' (want pcie=K, nvlink=K, exec=K, nocontention, noevict, "
                 "or baseline)";
        return false;
      }
      const std::string val = tok.substr(eq + 1);
      char* endp = nullptr;
      const double k = std::strtod(val.c_str(), &endp);
      if (val.empty() || endp != val.c_str() + val.size() ||
          !std::isfinite(k) || k <= 0) {
        *error = "bad scale in what-if clause '" + tok +
                 "' (want a positive number)";
        return false;
      }
      if (key == "pcie") {
        exp.pcie_scale = k;
      } else if (key == "nvlink") {
        exp.nvlink_scale = k;
      } else {
        exp.exec_scale = k;
      }
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  exp.name = CanonicalName(exp);
  *out = std::move(exp);
  return true;
}

std::vector<WhatIfExperiment> DefaultWhatIfExperiments() {
  static const char* const kSpecs[] = {"pcie=2",       "nvlink=2",
                                       "exec=2",       "nocontention",
                                       "noevict",      "pcie=2,nvlink=2"};
  std::vector<WhatIfExperiment> out;
  for (const char* spec : kSpecs) {
    WhatIfExperiment exp;
    std::string err;
    const bool ok = ParseWhatIfExperiment(spec, &exp, &err);
    DP_CHECK(ok);
    out.push_back(std::move(exp));
  }
  return out;
}

WhatIfReplay ReplayWhatIf(const CausalGraph& graph,
                          const WhatIfExperiment& exp) {
  InMemorySource src(graph);
  return Replayer(src, exp).Run();
}

// ReplaySource over a binary journal with chunk-windowed residency. Open()
// runs one sequential validating pass to build the O(requests) metadata
// index; Replay() then loads each chunk's node/edge state the first time one
// of its requests is dispatched (or its arrival fires) and frees a request's
// state once its last node has finished replaying.
struct WindowedJournal::Impl : public ReplaySource {
  // Per-request node/edge state while resident. unordered_map gives
  // reference stability across inserts, which FinishNode relies on.
  struct ReqState {
    std::vector<CpNode> nodes;                // id order
    std::vector<std::vector<CpNodeId>> succ;  // by node index, seq order
    std::vector<int> pending;                 // by node index
    std::vector<CpNodeId> non_arrival;        // global ids, id order
    std::size_t unfinished = 0;
    bool done = false;
  };

  bool Open(const std::string& path, std::string* error) {
    if (!reader_.Open(path)) {
      *error = reader_.error();
      return false;
    }
    for (;;) {
      const std::uint64_t offset = reader_.next_offset();
      JournalChunk chunk;
      const JournalReadStatus status = reader_.Next(&chunk);
      if (status == JournalReadStatus::kError) {
        *error = reader_.error();
        return false;
      }
      if (status == JournalReadStatus::kFooter) {
        break;
      }
      const auto chunk_index = static_cast<std::uint32_t>(chunk_offsets_.size());
      chunk_offsets_.push_back(offset);
      for (std::string& name : chunk.new_processes) {
        processes_.push_back(std::move(name));
      }
      for (CpRequestRecord& rec : chunk.requests) {
        const auto rid = static_cast<std::size_t>(rec.request.id);
        if (rid >= requests_.size()) {
          requests_.resize(rid + 1);
          chunk_of_.resize(rid + 1, 0);
          terminal_res_.resize(rid + 1, -1);
        }
        if (requests_[rid].id >= 0) {
          *error = path + ": duplicate request id " + std::to_string(rid);
          return false;
        }
        requests_[rid] = rec.request;
        chunk_of_[rid] = chunk_index;
        if (rec.request.terminal_node >= 0) {
          const auto it = std::lower_bound(
              rec.nodes.begin(), rec.nodes.end(), rec.request.terminal_node,
              [](const CpNode& n, CpNodeId v) { return n.id < v; });
          DP_CHECK(it != rec.nodes.end() &&
                   it->id == rec.request.terminal_node);
          const auto [rit, inserted] = resource_ids_.emplace(
              it->resource, static_cast<int>(resources_.size()));
          if (inserted) {
            resources_.push_back(it->resource);
          }
          terminal_res_[rid] = rit->second;
        }
      }
    }
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      if (requests_[i].id != static_cast<int>(i)) {
        *error = path + ": journal request ids are not dense (missing request " +
                 std::to_string(i) + ")";
        return false;
      }
    }
    return true;
  }

  void ResetReplayState() {
    chunk_loaded_.assign(chunk_offsets_.size(), 0);
    states_.clear();
    where_.clear();
  }

  void EnsureResident(int rid) {
    const std::uint32_t c = chunk_of_[Idx(rid)];
    if (chunk_loaded_[c] != 0) {
      return;
    }
    chunk_loaded_[c] = 1;
    JournalChunk chunk;
    const bool ok =
        reader_.ReadChunkAt(chunk_offsets_[c], processes_.size(), &chunk);
    DP_CHECK(ok);  // the sequential pass already validated this chunk
    for (CpRequestRecord& rec : chunk.requests) {
      if (rec.request.completion < 0) {
        continue;  // never replayed; keep it off the resident set
      }
      const int id = rec.request.id;
      ReqState& st = states_[id];
      st.nodes = std::move(rec.nodes);
      const std::size_t n = st.nodes.size();
      st.succ.assign(n, {});
      st.pending.assign(n, 0);
      st.unfinished = n;
      const auto index_of = [&st](CpNodeId node_id) {
        const auto it = std::lower_bound(
            st.nodes.begin(), st.nodes.end(), node_id,
            [](const CpNode& nd, CpNodeId v) { return nd.id < v; });
        DP_CHECK(it != st.nodes.end() && it->id == node_id);
        return static_cast<std::size_t>(it - st.nodes.begin());
      };
      for (const CpEdgeRec& e : rec.edges) {
        st.succ[index_of(e.from)].push_back(e.to);
        ++st.pending[index_of(e.to)];
      }
      for (std::size_t i = 0; i < n; ++i) {
        where_.emplace(st.nodes[i].id, std::make_pair(id, i));
        if (st.nodes[i].kind != CpKind::kArrival) {
          ++st.pending[i];  // the release token
          st.non_arrival.push_back(st.nodes[i].id);
        }
      }
    }
    max_resident_ = std::max(max_resident_, states_.size());
  }

  std::pair<ReqState*, std::size_t> Locate(CpNodeId id) {
    const auto it = where_.find(id);
    DP_CHECK(it != where_.end());  // touched a non-resident node
    return {&states_.at(it->second.first), it->second.second};
  }

  // --- ReplaySource ---
  std::size_t num_requests() const override { return requests_.size(); }
  int num_processes() const override {
    return static_cast<int>(processes_.size());
  }
  const CpRequest& request(int id) const override {
    return requests_[Idx(id)];
  }
  const std::string& terminal_resource(int id) const override {
    return resources_[Idx(terminal_res_[Idx(id)])];
  }
  const std::vector<CpNodeId>& request_nodes(int id) override {
    EnsureResident(id);
    return states_.at(id).non_arrival;
  }
  void BeforeArrival(int id) override { EnsureResident(id); }
  const CpNode& node(CpNodeId id) override {
    const auto [st, i] = Locate(id);
    return st->nodes[i];
  }
  const std::vector<CpNodeId>& successors(CpNodeId id) override {
    const auto [st, i] = Locate(id);
    return st->succ[i];
  }
  int& pending(CpNodeId id) override {
    const auto [st, i] = Locate(id);
    return st->pending[i];
  }
  void OnNodeFinished(CpNodeId id) override {
    const auto it = where_.find(id);
    DP_CHECK(it != where_.end());
    const int rid = it->second.first;
    where_.erase(it);
    const auto sit = states_.find(rid);
    DP_CHECK(sit != states_.end() && sit->second.unfinished > 0);
    if (--sit->second.unfinished == 0 && sit->second.done) {
      states_.erase(sit);  // the window shrinks as requests retire
    }
  }
  void OnRequestDone(int id) override { states_.at(id).done = true; }

  // Metadata index (sequential pass; resident for the journal's lifetime).
  JournalReader reader_;
  std::vector<std::string> processes_;
  std::vector<CpRequest> requests_;
  std::vector<std::uint32_t> chunk_of_;   // request id -> chunk index
  std::vector<int> terminal_res_;         // request id -> resources_ index
  std::vector<std::string> resources_;    // interned terminal resources
  std::unordered_map<std::string, int> resource_ids_;
  std::vector<std::uint64_t> chunk_offsets_;

  // Per-replay windowed state.
  std::vector<char> chunk_loaded_;
  std::unordered_map<int, ReqState> states_;
  // node id -> (request id, index into its ReqState vectors)
  std::unordered_map<CpNodeId, std::pair<int, std::size_t>> where_;
  std::size_t max_resident_ = 0;
};

WindowedJournal::WindowedJournal() : impl_(std::make_unique<Impl>()) {}
WindowedJournal::~WindowedJournal() = default;

bool WindowedJournal::Open(const std::string& path, std::string* error) {
  DP_CHECK(error != nullptr);
  return impl_->Open(path, error);
}

const std::vector<std::string>& WindowedJournal::processes() const {
  return impl_->processes_;
}

const std::vector<CpRequest>& WindowedJournal::requests() const {
  return impl_->requests_;
}

WhatIfReplay WindowedJournal::Replay(const WhatIfExperiment& exp) {
  impl_->ResetReplayState();
  return Replayer(*impl_, exp).Run();
}

std::size_t WindowedJournal::max_resident_requests() const {
  return impl_->max_resident_;
}

}  // namespace deepplan
