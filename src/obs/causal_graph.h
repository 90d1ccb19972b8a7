// Causal journal of a simulated run: an explicit happens-before DAG per
// request, recorded at the same chokepoints the runtime validator already
// hooks — queue pop (dispatch), stream op chaining, sync-event fire, and
// fabric transfer completion. It is the one observer of a simulated run: it
// captures *what waited on what*, which is the input the critical-path
// engine (src/obs/critical_path) needs to attribute every nanosecond of a
// request's latency to a cause, and *what happened when*, which its Chrome
// trace export (src/obs/trace_export.h) draws for a human in Perfetto.
//
// One rule makes the edges: a node is recorded whole, in one AddNode call
// that names its predecessors, and those come from the simulation's own
// ordering — in a cold run, the stream that ran the op (its last recorded
// op, and the ops that fired the events it waited on; src/sim/stream.h); in
// the server, the request's last recorded node. An edge can only enter the
// node being recorded, from an earlier node of the same request, so the
// graph is acyclic by construction and each request self-contained.
//
// Node timestamps are absolute simulation time. Transfer nodes additionally
// carry `solo_ns`, the duration the same transfer would have taken alone on
// its path (min link capacity, same ceil-to-ns rounding and latency tail the
// fabric applies); the critical-path engine turns the excess over solo into
// the PCIe-contention component.
//
// Nodes are plain data: labels, resources and hop link names are interned
// once into the graph's string table (CpStrings) and a node holds their ids,
// so recording a node copies no strings. Recorders intern their names up
// front (Intern) and hand AddNode the ids.
//
// Cost model: components hold a `CausalGraph*` that is nullptr when
// profiling is off, and a graph constructed disabled drops every call
// without touching its buffers, so the disabled hot path stays a pointer
// test and simulation behaviour is bit-for-bit unchanged either way.
//
// A recorded graph is its DPJL journal (src/obs/journal_stream.h). The graph
// buffers each request only while it is open; EndRequest hands the request's
// nodes and edges to a JournalWriter and reclaims them. The writer is the
// one AttachSink names (a file), or else one the graph owns that writes the
// journal into memory, read back with journal(). Every analysis of an
// in-memory graph (the profile report, the what-if replay, ToJson) reads
// that journal through the same validating reader the tools run on a file,
// so memory is bounded by in-flight requests plus the encoded journal, and
// the 1M-request scaling point records to a file at all. Since every edge is
// intra-request, a retired request is a self-contained record. Request ids
// are issued densely and in order, so the open requests are a ring indexed
// by offset from the oldest open id; an open record's nodes are in id order,
// so AddNode checks a predecessor by binary search in the one record it
// writes; and retired records are reused with their capacity: recording a
// node costs no lookup by key and, once the ring and records have grown, no
// allocation.
//
// Determinism: the simulator is single-threaded, so requests retire in
// simulation order; parallel sweeps record one graph per task and stitch
// their journals with Adopt() in task order, making the merged journal
// byte-identical for any DEEPPLAN_JOBS value.
#ifndef SRC_OBS_CAUSAL_GRAPH_H_
#define SRC_OBS_CAUSAL_GRAPH_H_

#include <array>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/util/logging.h"
#include "src/util/thread_annotations.h"
#include "src/util/time.h"

namespace deepplan {

using CpNodeId = std::int32_t;
// Index into a string table: the CausalGraph's own (CausalGraph::str) or a
// decoded journal chunk's (JournalChunk::str in src/obs/journal_stream.h).
using CpStrId = std::uint32_t;

// Interned strings: each distinct string once, addressed by a dense id in
// first-intern order. Id 0 is the empty string. Strings never move, so the
// index's views stay valid as the table grows and when it is moved.
class CpStrings {
 public:
  CpStrings();
  CpStrings(CpStrings&&) = default;
  CpStrings& operator=(CpStrings&&) = default;
  CpStrings(const CpStrings&) = delete;
  CpStrings& operator=(const CpStrings&) = delete;

  CpStrId Intern(std::string_view s);
  const std::string& operator[](CpStrId id) const {
    DP_CHECK(id < strings_.size());
    return strings_[id];
  }
  std::size_t size() const { return strings_.size(); }

 private:
  std::deque<std::string> strings_;
  std::unordered_map<std::string_view, CpStrId> ids_;  // views into strings_
};

enum class CpKind {
  kArrival,  // request root: zero-duration point at arrival time
  kEvict,    // LRU teardown making room for a cold start
  kPcie,     // host->GPU transfer over a PCIe lane
  kNvlink,   // GPU->GPU migration over an NVLink
  kExec,     // layer execution (or a whole warm inference) on a GPU
};

// Canonical lowercase name ("arrival", "evict", "pcie", "nvlink", "exec").
const char* CpKindName(CpKind kind);

// Most hops a transfer node's route can have: the fabric's inline route
// (LinkPath::kMax in src/sim/fabric.h) holds no more, so the journal readers
// reject longer paths instead of handing the what-if replay an unroutable
// node.
inline constexpr std::size_t kCpMaxHops = 4;

// One fabric link a transfer crossed, with its configured capacity. The
// what-if replay engine (src/obs/whatif) rebuilds the fabric from these hops,
// so per-link overlap — and therefore contention — can be re-derived under
// perturbed link speeds. `link` is the link's name ("uplink/sw0",
// "pcie/gpu1", "nvlink/0-1") as an id into the owning string table.
struct CpHop {
  CpStrId link = 0;
  double capacity = 0.0;  // bytes/second
};

// A node's route, in route order: at most kCpMaxHops hops, stored inline so
// a node owns no heap memory. More than kCpMaxHops hops DP_CHECK-fails.
class CpPath {
 public:
  CpPath() = default;
  CpPath(std::initializer_list<CpHop> hops) {
    for (const CpHop& hop : hops) {
      push_back(hop);
    }
  }

  void push_back(const CpHop& hop) {
    DP_CHECK(size_ < kCpMaxHops && "a route has at most kCpMaxHops hops");
    hops_[size_++] = hop;
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const CpHop* begin() const { return hops_.data(); }
  const CpHop* end() const { return hops_.data() + size_; }
  CpHop* begin() { return hops_.data(); }
  CpHop* end() { return hops_.data() + size_; }

 private:
  std::array<CpHop, kCpMaxHops> hops_{};
  std::uint8_t size_ = 0;
};

// One node of the DAG. `label` and `resource` are ids into the string table
// of the graph or decoded chunk that owns the node, so a node is plain data.
struct CpNode {
  CpNodeId id = -1;
  int request = -1;
  CpKind kind = CpKind::kExec;
  CpStrId label = 0;     // e.g. "load encoder.3.attn", "exec(DHA) pooler"
  CpStrId resource = 0;  // e.g. "pcie/gpu0", "nvlink/1->0", "gpu0"
  Nanos start = 0;
  Nanos end = 0;
  std::int64_t bytes = 0;  // transfers only
  Nanos solo = -1;         // transfers: contention-free duration; -1 = n/a
  // Transfers: the links crossed, in route order (empty when not recorded).
  CpPath path{};
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
// ToJson() emits edges interleaved across requests in recording order; `seq`
// preserves that order through per-request chunking so a journal written in
// retirement order still exports byte-identical JSON.
struct CpEdgeRec {
  std::int64_t seq = -1;
  CpNodeId from = -1;
  CpNodeId to = -1;
};

// A retired request with everything recorded for it: the self-contained unit
// the streaming journal writer chunks. Nodes are in id (= append) order and
// edges in seq order; node and edge ids stay global, and the nodes' string
// ids index the retiring graph's table.
struct CpRequestRecord {
  CpRequest request;
  std::vector<CpNode> nodes;
  std::vector<CpEdgeRec> edges;
};

class JournalWriter;

class CausalGraph {
 public:
  CausalGraph() : CausalGraph(/*enabled=*/true) {}
  explicit CausalGraph(bool enabled);
  // A moved-from graph may only be assigned to or destroyed.
  CausalGraph(CausalGraph&&) noexcept;
  CausalGraph& operator=(CausalGraph&&) noexcept;
  ~CausalGraph();

  bool enabled() const { return enabled_; }

  // Names a process group (one per strategy/replay). Returns the process id
  // to tag requests with. Disabled graphs return 0 without allocating.
  int RegisterProcess(std::string_view name);

  // The id of `s` in this graph's string table, added on first use: the
  // label, resource and hop link ids a node holds. Disabled graphs return 0
  // without touching the table.
  CpStrId Intern(std::string_view s);

  // Opens a request rooted at a zero-duration arrival node. Returns the
  // request id (-1 when disabled).
  int BeginRequest(int process, int instance, Nanos arrival);

  // Records one unit of causally-ordered work, whole: `node` carries its
  // kind, label and resource (ids from Intern) and interval, plus a
  // transfer's bytes, solo duration and route, or an exec node's DHA share;
  // its id and request are assigned here. Each of `preds` becomes an edge
  // into it and must be an earlier node of the same open request
  // (DP_CHECKed). Returns the node id (-1 when disabled or `request` is -1).
  CpNodeId AddNode(int request, const CpNode& node,
                   std::span<const CpNodeId> preds);
  CpNodeId AddNode(int request, const CpNode& node,
                   std::initializer_list<CpNodeId> preds) {
    return AddNode(request, node, std::span(preds.begin(), preds.size()));
  }

  // Flags a request as a cold start (known at dispatch, not at arrival).
  void MarkCold(int request);

  // Closes a request: `terminal` is the node whose completion finished it,
  // by default (-1) the request's last recorded node. The request retires to
  // the writer, and nothing more can be recorded in it.
  void EndRequest(int request, Nanos completion, CpNodeId terminal = -1);

  // The request's most recently recorded node (its arrival node until
  // another is added); -1 when disabled or `request` is -1. The request
  // must be open.
  CpNodeId last_node(int request) const;

  // Records into `sink` instead of the graph's own journal: a file, for runs
  // whose journal is too large to hold. The graph must be enabled and still
  // empty, and `sink` must outlive its last mutation; journal(), ToJson()
  // and the analyses of the graph are then invalid — its journal lives in
  // the sink.
  void AttachSink(JournalWriter* sink);

  // Retires every still-open request (completion -1) in request-id order,
  // so an interrupted or tail-truncated run still journals
  // deterministically. Call once after the simulation drains.
  void FlushOpenRequests();

  // Appends `other`'s journal to this graph's sink, re-encoding each record
  // with its process, request, node and edge-seq ids moved past the ones
  // this graph has issued and its strings interned into this graph's table
  // (stitches per-task graphs from a parallel sweep, in deterministic task
  // order). This graph must have no open request.
  void Adopt(CausalGraph&& other);

  // The graph's own journal as DPJL bytes: on the first call every open
  // request retires (FlushOpenRequests) and the journal gets its footer, and
  // the graph records nothing after. A disabled graph's is the empty
  // journal. Invalid once AttachSink has named a sink.
  std::string_view journal() const;

  // {"causal_journal":{"processes":[...],"requests":[...],"nodes":[...],
  //  "edges":[[from,to],...]}} — CausalJournalJson of the graph's journal
  // (src/obs/journal_stream.h), the same bytes journal_convert --to-json
  // writes for it. An export only (journal_convert, the engine golden):
  // journals on disk are DPJL, and nothing parses this back.
  std::string ToJson() const;

 private:
  // Per-id state for ids issued densely and in order: the window
  // [begin(), end()) of a ring indexed by id modulo its power-of-two size.
  // push_back appends id end(), pop_front drops id begin(). The ring doubles
  // when full and is otherwise reused, so a window of bounded width stops
  // allocating.
  template <typename T>
  class IdRing {
   public:
    std::int64_t begin() const { return begin_; }
    std::int64_t end() const { return begin_ + static_cast<std::int64_t>(size_); }
    bool empty() const { return size_ == 0; }
    bool contains(std::int64_t id) const { return id >= begin_ && id < end(); }
    T& operator[](std::int64_t id) { return ring_[static_cast<std::size_t>(id) & mask_]; }
    void push_back(const T& value) {
      if (size_ == ring_.size()) {
        std::vector<T> grown(ring_.empty() ? 16 : 2 * ring_.size());
        const std::size_t mask = grown.size() - 1;
        for (std::int64_t id = begin_; id < end(); ++id) {
          grown[static_cast<std::size_t>(id) & mask] = (*this)[id];
        }
        ring_ = std::move(grown);
        mask_ = mask;
      }
      ++size_;
      (*this)[end() - 1] = value;
    }
    void pop_front() {
      ++begin_;
      --size_;
    }
    // Moves the empty window on to start at `id`: the ids before it were
    // issued elsewhere (Adopt).
    void SkipTo(std::int64_t id) {
      DP_CHECK(empty() && id >= begin_);
      begin_ = id;
    }

   private:
    std::vector<T> ring_;
    std::size_t mask_ = 0;  // ring_.size() - 1
    std::int64_t begin_ = 0;
    std::size_t size_ = 0;
  };

  // An enabled graph's recording state: the open requests' records (nullptr
  // once retired, until the window passes them), indexed by id from the
  // oldest still open; the window's end is the next request id to issue.
  // Records come from a pool that keeps retired records with their capacity.
  // This is the bounded-memory state, and it is the one part of the graph
  // that is internally synchronized: retirement is the PDES hand-off point,
  // so every field is GUARDED_BY the state's own mutex and helpers that
  // expect it held are REQUIRES-annotated. The state lives behind a
  // unique_ptr so the graph stays movable despite owning a Mutex. Lock
  // order: stream_->mu before the writer's internal lock (RetireLocked calls
  // the writer while holding mu), never the reverse — the writer never calls
  // back into the graph.
  struct StreamState {
    // Records into a journal of the graph's own, in memory, or into `sink`.
    StreamState();
    explicit StreamState(JournalWriter* s);

    const std::unique_ptr<JournalWriter> own;  // null when a sink is attached
    JournalWriter* const sink;                 // own, or the attached sink
    Mutex mu;
    // Set, with `bytes`, when journal() first reads the own journal; `bytes`
    // never changes after.
    bool closed GUARDED_BY(mu) = false;
    std::string bytes;
    CpNodeId next_node GUARDED_BY(mu) = 0;
    std::int64_t next_edge GUARDED_BY(mu) = 0;
    IdRing<CpRequestRecord*> open GUARDED_BY(mu);
    std::deque<CpRequestRecord> records GUARDED_BY(mu);  // every record made
    std::vector<CpRequestRecord*> free_records GUARDED_BY(mu);
  };

  CpStrId ArrivalLabel() REQUIRES(stream_->mu);
  // The record of `request`, DP_CHECK-failing unless that request is open.
  CpRequestRecord* OpenRecord(int request) const REQUIRES(stream_->mu);
  CpNodeId AddNodeLocked(int request, const CpNode& node,
                         std::span<const CpNodeId> preds)
      REQUIRES(stream_->mu);
  // Retires `request`, or every open request in id order; const, since
  // journal() retires what is open when it first reads the journal.
  void RetireLocked(int request) const REQUIRES(stream_->mu);
  void RetireOpenLocked() const REQUIRES(stream_->mu);

  bool enabled_ = true;
  // Registered on the recording thread; the sink is internally
  // synchronized, so registration takes no graph lock.
  int num_processes_ = 0;
  // Interned under stream_->mu, which the sink reads the table under too.
  CpStrings strings_;
  CpStrId arrival_label_ = 0;  // "arrival"'s id, 0 until first interned
  std::unique_ptr<StreamState> stream_;  // non-null iff enabled_
};

}  // namespace deepplan

#endif  // SRC_OBS_CAUSAL_GRAPH_H_
