// Causal journal of a simulated run: an explicit happens-before DAG per
// request, recorded at the same chokepoints the runtime validator already
// hooks — queue pop (dispatch), stream op chaining, sync-event fire, and
// fabric transfer completion. Where the TraceRecorder captures *what happened
// when* for a human in Perfetto, the CausalGraph captures *what waited on
// what*, which is the input the critical-path engine (src/obs/critical_path)
// needs to attribute every nanosecond of a request's latency to a cause.
//
// Node timestamps are absolute simulation time. Transfer nodes additionally
// carry `solo_ns`, the duration the same transfer would have taken alone on
// its path (min link capacity, same ceil-to-ns rounding and latency tail the
// fabric applies); the critical-path engine turns the excess over solo into
// the PCIe-contention component.
//
// Cost model mirrors TraceRecorder: components hold a `CausalGraph*` that is
// nullptr when profiling is off, and a graph constructed disabled drops every
// call without touching its buffers, so the disabled hot path stays a pointer
// test and simulation behaviour is bit-for-bit unchanged either way.
//
// Determinism: the simulator is single-threaded, so nodes append in
// simulation order; parallel sweeps build one graph per task and stitch them
// with Adopt() in task order, making the written journal byte-identical for
// any DEEPPLAN_JOBS value.
//
// On disk a journal is always binary DPJL (src/obs/journal_stream.h):
// WriteGraphToJournal dumps an accumulated graph, a JournalWriter sink
// records a streaming one, and ReadJournalToGraph materializes either back
// through Assemble(). ToJson() is an export for humans and goldens only.
//
// Streaming mode: AttachSink() switches an enabled graph from accumulation
// to retirement — every call is buffered only per open request, and
// EndRequest hands the request's nodes/edges to a CausalSink (the binary
// JournalWriter, src/obs/journal_stream.h) and reclaims them. Memory is then
// bounded by in-flight requests instead of journal length, which is what
// lets the 1M-request scaling point record a journal at all. Streaming
// relies on the recorder invariant that every edge is intra-request (engine
// and server only ever chain nodes of the same request; DP_CHECKed), so a
// retired request is a self-contained record.
#ifndef SRC_OBS_CAUSAL_GRAPH_H_
#define SRC_OBS_CAUSAL_GRAPH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/util/thread_annotations.h"
#include "src/util/time.h"

namespace deepplan {

using CpNodeId = std::int32_t;

enum class CpKind {
  kArrival,  // request root: zero-duration point at arrival time
  kEvict,    // LRU teardown making room for a cold start
  kPcie,     // host->GPU transfer over a PCIe lane
  kNvlink,   // GPU->GPU migration over an NVLink
  kExec,     // layer execution (or a whole warm inference) on a GPU
};

// Canonical lowercase name ("arrival", "evict", "pcie", "nvlink", "exec").
const char* CpKindName(CpKind kind);

// One fabric link a transfer crossed, with its configured capacity. The
// what-if replay engine (src/obs/whatif) rebuilds the fabric from these hops,
// so per-link overlap — and therefore contention — can be re-derived under
// perturbed link speeds. Hops are identified by name ("uplink/sw0",
// "pcie/gpu1", "nvlink/0-1"), which needs no remapping under Adopt().
struct CpHop {
  std::string link;
  double capacity = 0.0;  // bytes/second

  bool operator==(const CpHop&) const = default;
};

// Most hops a transfer node's route can have: the fabric's inline route
// (LinkPath::kMax in src/sim/fabric.h) holds no more, so the journal readers
// reject longer paths instead of handing the what-if replay an unroutable
// node.
inline constexpr std::size_t kCpMaxHops = 4;

struct CpNode {
  CpNodeId id = -1;
  int request = -1;
  CpKind kind = CpKind::kExec;
  std::string label;     // e.g. "load encoder.3.attn", "exec(DHA) pooler"
  std::string resource;  // e.g. "pcie/gpu0", "nvlink/1->0", "gpu0"
  Nanos start = 0;
  Nanos end = 0;
  std::int64_t bytes = 0;  // transfers only
  Nanos solo = -1;         // transfers: contention-free duration; -1 = n/a
  // Transfers: the links crossed, in route order (empty when not recorded).
  std::vector<CpHop> path;
  // Exec nodes: the slice of the duration spent streaming parameters over
  // PCIe (direct-host-access), which scales inversely with PCIe bandwidth
  // while the rest of the node does not. 0 for non-DHA work.
  Nanos dha_pcie = 0;
};

struct CpRequest {
  int id = -1;
  int process = 0;  // index into processes() (strategy / replay the request
                    // belongs to; utilization never mixes processes)
  int instance = -1;
  bool cold = false;
  Nanos arrival = 0;
  Nanos completion = -1;          // -1 until EndRequest
  CpNodeId arrival_node = -1;
  CpNodeId terminal_node = -1;    // last node before completion
};

// One happens-before edge with its global append-order sequence number.
// ToJson() emits edges interleaved across requests in AddEdge order; `seq`
// preserves that order through per-request chunking so a journal written in
// retirement order still exports byte-identical JSON.
struct CpEdgeRec {
  std::int64_t seq = -1;
  CpNodeId from = -1;
  CpNodeId to = -1;
};

// A retired request with everything recorded for it: the self-contained unit
// the streaming journal writer chunks. Nodes are in id (= append) order and
// edges in seq order; node and edge ids stay global.
struct CpRequestRecord {
  CpRequest request;
  std::vector<CpNode> nodes;
  std::vector<CpEdgeRec> edges;
};

// Receives retired requests from a streaming CausalGraph (and process
// registrations, which always precede the first request that uses them).
class CausalSink {
 public:
  virtual ~CausalSink() = default;
  virtual void OnProcess(int id, const std::string& name) = 0;
  virtual void OnRequestRetired(CpRequestRecord&& record) = 0;
};

class CausalGraph {
 public:
  CausalGraph() = default;
  explicit CausalGraph(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Names a process group (one per strategy/replay). Returns the process id
  // to tag requests with. Disabled graphs return 0 without allocating.
  int RegisterProcess(std::string_view name);

  // Opens a request rooted at a zero-duration arrival node. Returns the
  // request id (-1 when disabled).
  int BeginRequest(int process, int instance, Nanos arrival);

  // Records one unit of causally-ordered work. Returns the node id (-1 when
  // disabled or `request` is -1).
  CpNodeId AddNode(int request, CpKind kind, std::string label,
                   std::string resource, Nanos start, Nanos end,
                   std::int64_t bytes = 0, Nanos solo = -1);

  // Attaches the fabric route a transfer node crossed (link names +
  // capacities). No-op when disabled or `node` is -1.
  void SetNodePath(CpNodeId node, std::vector<CpHop> path);

  // Records the PCIe-bandwidth-dependent share of an exec node's duration
  // (direct-host-access parameter streaming). No-op when disabled or -1.
  void SetNodeDhaPcie(CpNodeId node, Nanos dha_pcie);

  // Happens-before edge `from` -> `to`. Ignores -1 endpoints so call sites
  // can thread "previous node" cursors without branching.
  void AddEdge(CpNodeId from, CpNodeId to);

  // Flags a request as a cold start (known at dispatch, not at arrival).
  void MarkCold(int request);

  // Closes a request: `terminal` is the node whose completion finished it.
  void EndRequest(int request, Nanos completion, CpNodeId terminal);

  CpNodeId arrival_node(int request) const;

  const std::vector<std::string>& processes() const { return process_names_; }
  const std::vector<CpRequest>& requests() const { return requests_; }
  const std::vector<CpNode>& nodes() const { return nodes_; }
  const std::vector<std::pair<CpNodeId, CpNodeId>>& edges() const {
    return edges_;
  }
  bool empty() const { return requests_.empty(); }

  // Switches this (enabled, still-empty) graph into streaming mode: each
  // EndRequest retires the request's record to `sink` and frees it. The
  // accessor surface (nodes()/edges()/requests()) stays empty and
  // Adopt()/ToJson() become invalid — a streaming run's journal lives in the
  // sink, not the graph. `sink` must outlive the graph's last mutation.
  void AttachSink(CausalSink* sink);
  bool streaming() const { return stream_ != nullptr; }

  // Streaming only: retires every still-open request (completion -1) to the
  // sink in request-id order, so an interrupted or tail-truncated run still
  // journals deterministically. Call once after the simulation drains.
  void FlushOpenRequests();

  // Merges `other` into this graph, remapping its processes, requests, and
  // node ids past the ones already present (stitches per-task graphs from a
  // parallel sweep, in deterministic task order).
  void Adopt(CausalGraph&& other);

  // {"causal_journal":{"processes":[...],"requests":[...],"nodes":[...],
  //  "edges":[[from,to],...]}} — deterministic bytes for a given graph. An
  // export only (journal_convert --to-json, the engine golden): journals on
  // disk are DPJL (src/obs/journal_stream.h), and nothing parses this back.
  std::string ToJson() const;

  // The one way to build a graph from parts: reassembles a graph from
  // complete, id-ordered parts, as the binary journal reader materializes it
  // (src/obs/journal_stream.h). Returns false and sets `error` unless
  // requests and nodes are dense and sorted by id, every node/request
  // reference resolves, and no node ends before it starts.
  static bool Assemble(std::vector<std::string> processes,
                       std::vector<CpRequest> requests,
                       std::vector<CpNode> nodes,
                       std::vector<std::pair<CpNodeId, CpNodeId>> edges,
                       CausalGraph* out, std::string* error);

 private:
  // Streaming mode: open requests keyed by id (ordered, so FlushOpenRequests
  // retires deterministically) plus a live-node index for the node-addressed
  // mutators. Both shrink as requests retire — this is the bounded-memory
  // state, and it is the one part of the graph that is internally
  // synchronized: retirement is the PDES hand-off point, so every field is
  // GUARDED_BY the state's own mutex and helpers that expect it held are
  // REQUIRES-annotated. The state lives behind a unique_ptr so the graph
  // stays implicitly movable (Adopt and Assemble move-assign)
  // despite owning a Mutex. Lock order: stream_->mu before the sink's
  // internal lock (RetireLive calls the sink while holding mu), never the
  // reverse — the sink never calls back into the graph.
  struct StreamState {
    explicit StreamState(CausalSink* s) : sink(s) {}

    CausalSink* const sink;
    Mutex mu;
    std::int64_t next_request GUARDED_BY(mu) = 0;
    std::int64_t next_node GUARDED_BY(mu) = 0;
    std::int64_t next_edge GUARDED_BY(mu) = 0;
    std::map<int, CpRequestRecord> live GUARDED_BY(mu);
    std::unordered_map<CpNodeId, int> live_node_owner GUARDED_BY(mu);
  };

  CpNodeId AddNodeLocked(int request, CpKind kind, std::string label,
                         std::string resource, Nanos start, Nanos end,
                         std::int64_t bytes, Nanos solo)
      REQUIRES(stream_->mu);
  CpNode* LiveNode(CpNodeId node) REQUIRES(stream_->mu);
  void RetireLive(std::map<int, CpRequestRecord>::iterator it)
      REQUIRES(stream_->mu);

  bool enabled_ = true;
  // Accumulation surface: thread-confined (one graph per sweep task, stitched
  // deterministically with Adopt in task order) — deliberately NOT locked,
  // because append order here is part of the byte-identical-output contract.
  std::vector<std::string> process_names_;
  std::vector<CpRequest> requests_;
  std::vector<CpNode> nodes_;
  std::vector<std::pair<CpNodeId, CpNodeId>> edges_;

  std::unique_ptr<StreamState> stream_;  // non-null iff streaming()
};

}  // namespace deepplan

#endif  // SRC_OBS_CAUSAL_GRAPH_H_
