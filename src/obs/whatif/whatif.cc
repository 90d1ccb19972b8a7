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

// True when the replay re-schedules a request: the journal completed it at
// a terminal node. Other requests are skipped entirely.
bool Replayed(const CpRequest& r) {
  return r.completion >= 0 && r.terminal_node >= 0;
}

// Replayed requests chained into dispatch domains: requests sharing a
// (process, terminal resource) domain, in request-id order.
struct DomainChain {
  std::vector<int> next;   // request id -> next request of its domain, or -1
  std::vector<char> head;  // request id -> first request of its domain
};

// `resource[i]` is request i's terminal resource as any dense id.
DomainChain ChainDomains(const std::vector<CpRequest>& requests,
                         const std::vector<std::int64_t>& resource) {
  DomainChain chain;
  chain.next.assign(requests.size(), -1);
  chain.head.assign(requests.size(), 0);
  std::map<std::pair<int, std::int64_t>, int> tail;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const CpRequest& r = requests[i];
    if (!Replayed(r)) {
      continue;
    }
    const auto [it, first] =
        tail.try_emplace({r.process, resource[i]}, r.id);
    if (first) {
      chain.head[i] = 1;
    } else {
      chain.next[Idx(it->second)] = r.id;
      it->second = r.id;
    }
  }
  return chain;
}

// One of the events a replay starts with: a domain's first release or a
// request's arrival, for request arg >> 1 (arg & 1: the arrival). `order` is
// its place in request-id order, which is the order the replay would
// schedule them in up front.
struct StartEvent {
  Nanos when = 0;
  std::uint64_t order = 0;
  std::uint64_t arg = 0;
};

// The start events sorted by (when, order), the order they fire in.
std::vector<StartEvent> StartEvents(const std::vector<CpRequest>& requests,
                                    const DomainChain& domains) {
  std::vector<StartEvent> events;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!Replayed(requests[i])) {
      continue;
    }
    const Nanos when = requests[i].arrival;
    if (domains.head[i] != 0) {
      events.push_back({when, events.size(), std::uint64_t{i} << 1});
    }
    events.push_back({when, events.size(), (std::uint64_t{i} << 1) | 1});
  }
  std::sort(events.begin(), events.end(),
            [](const StartEvent& a, const StartEvent& b) {
              return a.when != b.when ? a.when < b.when : a.order < b.order;
            });
  return events;
}

// A chunk of the journal the replay holds in memory, plus one replay's
// scheduling state for its nodes, which are addressed by their index in
// chunk.nodes.
struct ResidentChunk {
  JournalChunk chunk;
  // CSR over chunk.edges: node i's successors, in seq order, are
  // succ[succ_begin[i] .. succ_begin[i + 1]).
  std::vector<std::uint32_t> succ_begin;
  std::vector<std::uint32_t> succ;
  // Per node: predecessors not yet finished, plus the release token of a
  // non-arrival node.
  std::vector<std::int32_t> pending;
  // Per record of a replayed request: nodes not yet finished, plus its
  // release and its completion. The request leaves the window at 0.
  std::vector<std::uint32_t> remaining;
  // Chunk string id -> the replay's link-name id, resolved on first use.
  std::vector<std::int32_t> link_of_string;
  std::uint32_t index = 0;     // which chunk of the journal this is
  std::uint32_t replayed = 0;  // requests of the chunk the replay runs
  std::uint32_t open = 0;      // of those, still in the window
};

// What the Replayer reads: a journal, file or bytes, with chunk-windowed
// residency. Open's one validating sequential pass indexes the request
// metadata, the dispatch-domain chain, each request's place and each chunk's
// offset; a replay then decodes a chunk into a ResidentChunk slot the first
// time one of its requests is dispatched (or its arrival fires) and retires
// the slot once every replayed request in it has finished.
struct JournalWindow {
  // Indexes the journal the reader was just opened on, chunk by chunk.
  bool Index(std::string* error) {
    // Decoded into a resident slot's chunk, whose storage the replays reuse.
    const std::uint32_t scratch = AcquireSlot();
    JournalChunk& chunk = slot(scratch).chunk;
    for (std::uint64_t at = reader.next_offset();
         reader.Next(&chunk) == JournalReadStatus::kChunk;
         at = reader.next_offset()) {
      IndexChunk(&chunk);
      chunk_offsets.push_back(at);
    }
    *error = reader.error();
    if (!error->empty()) {
      return false;
    }
    ReleaseSlot(scratch);
    FinishIndex();
    return true;
  }

  // Indexes the next chunk, taking its process names.
  void IndexChunk(JournalChunk* chunk) {
    for (std::string& name : chunk->new_processes) {
      processes.push_back(std::move(name));
    }
    resource_of_string_.assign(chunk->num_strings(), -1);
    // In file order until the footer has bounded the ids.
    for (std::size_t k = 0; k < chunk->requests.size(); ++k) {
      const JournalChunk::Record& rec = chunk->requests[k];
      requests.push_back(rec.request);
      chunk_of.push_back(static_cast<std::uint32_t>(chunk_offsets.size()));
      record_of.push_back(static_cast<std::uint32_t>(k));
      std::int64_t resource = -1;
      if (rec.terminal_index >= 0) {
        const CpStrId s = chunk->nodes[Idx(rec.terminal_index)].resource;
        if (resource_of_string_[s] < 0) {
          resource_of_string_[s] = resources_.Intern(chunk->str(s));
        }
        resource = resource_of_string_[s];
      }
      terminal_resource_.push_back(resource);
    }
  }

  // After the last chunk: swaps each entry to its request's id in place (the
  // ids are dense, as the reader's sequential pass checks) and chains the
  // dispatch domains.
  void FinishIndex() {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      for (std::size_t j = Idx(requests[i].id); j != i; j = Idx(requests[i].id)) {
        DP_CHECK(j < requests.size() && Idx(requests[j].id) != j &&
                 "request ids are dense");
        std::swap(requests[i], requests[j]);
        std::swap(chunk_of[i], chunk_of[j]);
        std::swap(record_of[i], record_of[j]);
        std::swap(terminal_resource_[i], terminal_resource_[j]);
      }
    }
    domains = ChainDomains(requests, std::exchange(terminal_resource_, {}));
    start_events = StartEvents(requests, domains);
  }

  // Fills `out` with chunk `index`, reusing its storage.
  void Load(std::uint32_t index, JournalChunk* out) {
    const bool ok =
        reader.ReadChunkAt(chunk_offsets[index], processes.size(), out);
    DP_CHECK(ok);  // the sequential pass already validated this chunk
  }

  // A free slot; its buffers keep their capacity from earlier loads.
  std::uint32_t AcquireSlot() {
    if (free_slots_.empty()) {
      slots_.push_back(std::make_unique<ResidentChunk>());
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  void ReleaseSlot(std::uint32_t slot) { free_slots_.push_back(slot); }
  ResidentChunk& slot(std::uint32_t s) { return *slots_[s]; }

  std::vector<std::string> processes;
  std::vector<CpRequest> requests;       // by id
  DomainChain domains;
  std::vector<StartEvent> start_events;  // StartEvents(requests, domains)
  std::vector<std::uint32_t> chunk_of;   // request id -> chunk index
  std::vector<std::uint32_t> record_of;  // request id -> record in its chunk
  std::size_t max_resident = 0;          // replayed requests, high-water mark
  std::vector<std::uint64_t> chunk_offsets;  // per chunk, in file order
  JournalReader reader;

 private:
  // Terminal resources as dense ids, each chunk string looked up once.
  CpStrings resources_;
  std::vector<std::int64_t> terminal_resource_;
  std::vector<std::int64_t> resource_of_string_;
  std::vector<std::unique_ptr<ResidentChunk>> slots_;
  std::vector<std::uint32_t> free_slots_;
};

// Event-driven forward re-scheduling of the journal DAG. Every non-arrival
// node waits for (a) all of its happens-before predecessors and (b) its
// request's dispatch ("release"). Releases re-derive the server's per-GPU
// FIFO rule: requests sharing a (process, terminal resource) domain serialize
// in request-id order, each releasing at max(its arrival, the previous
// domain request's replayed completion). Transfers run through a per-process
// fair-share Fabric rebuilt from the recorded hops at scaled capacities, so
// contention re-emerges from the replayed overlap instead of being copied.
//
// A node is addressed by a handle: its resident slot in the high 32 bits and
// its index in the slot's chunk in the low 32, so every per-node step is
// array indexing, and every event is an Action carrying the handle.
class Replayer {
 public:
  Replayer(JournalWindow& src, const WhatIfExperiment& exp)
      : src_(src), exp_(exp), requests_(src.requests) {}

  WhatIfReplay Run() {
    const std::size_t num_requests = requests_.size();
    out_.latency.assign(num_requests, -1);
    out_.pcie_time.assign(num_requests, 0);
    out_.nvlink_time.assign(num_requests, 0);
    out_.exec_time.assign(num_requests, 0);

    int num_processes = static_cast<int>(src_.processes.size());
    for (const CpRequest& r : requests_) {
      num_processes = std::max(num_processes, r.process + 1);
    }
    fabrics_.resize(Idx(num_processes));
    links_.resize(Idx(num_processes));
    slot_of_chunk_.assign(src_.chunk_offsets.size(), kNotLoaded);

    // Each domain's first request releases at its arrival; every replayed
    // request's arrival node finishes at its recorded time. These events
    // take their sequence numbers up front, so they fire exactly where they
    // would if all were queued now, but are fed one at a time: the queue
    // holds only the events in flight, not one per request.
    if (!src_.start_events.empty()) {
      start_seq_ = sim_.ReserveSeq(src_.start_events.size());
      ScheduleStart(0);
    }

    sim_.Run();

    for (std::size_t i = 0; i < num_requests; ++i) {
      if (Replayed(requests_[i])) {
        // A stuck replay means a node never became ready; the readers
        // reject the cyclic and cross-request edges that could cause it.
        DP_CHECK(out_.latency[i] >= 0);
      }
    }
    return std::move(out_);
  }

 private:
  static constexpr std::int64_t kNotLoaded = -1;
  static constexpr std::int64_t kRetired = -2;

  static std::uint64_t Handle(std::uint32_t slot, std::uint32_t index) {
    return (std::uint64_t{slot} << 32) | index;
  }
  static std::uint32_t SlotOf(std::uint64_t handle) {
    return static_cast<std::uint32_t>(handle >> 32);
  }
  static std::uint32_t IndexOf(std::uint64_t handle) {
    return static_cast<std::uint32_t>(handle);
  }

  // The slot holding request `id`'s chunk, loading the chunk on first touch.
  std::uint32_t Resident(int id) {
    const std::uint32_t c = src_.chunk_of[Idx(id)];
    std::int64_t& state = slot_of_chunk_[c];
    if (state >= 0) {
      return static_cast<std::uint32_t>(state);
    }
    // A chunk retires only after all its requests are done, so none of
    // them can touch it again.
    DP_CHECK(state == kNotLoaded);
    const std::uint32_t slot = src_.AcquireSlot();
    ResidentChunk& rc = src_.slot(slot);
    src_.Load(c, &rc.chunk);
    Prepare(c, &rc);
    state = slot;
    resident_ += rc.replayed;
    src_.max_resident = std::max(src_.max_resident, resident_);
    return slot;
  }

  // Builds one replay's scheduling state over a freshly loaded chunk.
  static void Prepare(std::uint32_t index, ResidentChunk* rc) {
    const JournalChunk& chunk = rc->chunk;
    const std::size_t n = chunk.nodes.size();
    rc->index = index;
    rc->succ_begin.assign(n + 1, 0);
    rc->pending.assign(n, 0);
    for (const JournalChunk::Edge& e : chunk.edges) {
      ++rc->succ_begin[e.from + 1];
      ++rc->pending[e.to];
    }
    for (std::size_t i = 0; i < n; ++i) {
      rc->succ_begin[i + 1] += rc->succ_begin[i];
    }
    // Filling advances each node's begin to its end, i.e. the next node's
    // begin; shifting by one restores the begins.
    rc->succ.resize(chunk.edges.size());
    for (const JournalChunk::Edge& e : chunk.edges) {
      rc->succ[rc->succ_begin[e.from]++] = e.to;
    }
    for (std::size_t i = n; i > 0; --i) {
      rc->succ_begin[i] = rc->succ_begin[i - 1];
    }
    rc->succ_begin[0] = 0;
    rc->remaining.assign(chunk.requests.size(), 0);
    rc->replayed = 0;
    for (std::size_t k = 0; k < chunk.requests.size(); ++k) {
      const JournalChunk::Record& rec = chunk.requests[k];
      if (!Replayed(rec.request)) {
        continue;  // never replayed: its nodes are never touched
      }
      ++rc->replayed;
      rc->remaining[k] = rec.num_nodes + 2;
      for (std::uint32_t i = rec.first_node; i < rec.first_node + rec.num_nodes;
           ++i) {
        if (chunk.nodes[i].kind != CpKind::kArrival) {
          ++rc->pending[i];  // the release token
        }
      }
    }
    rc->open = rc->replayed;
    rc->link_of_string.assign(chunk.num_strings(), -1);
  }

  // Counts one of a replayed request's window tokens down; the chunk
  // retires when its last request leaves the window.
  void Settle(std::uint32_t slot, int request) {
    ResidentChunk& rc = src_.slot(slot);
    if (--rc.remaining[src_.record_of[Idx(request)]] != 0 || --rc.open != 0) {
      return;
    }
    slot_of_chunk_[rc.index] = kRetired;
    resident_ -= rc.replayed;
    src_.ReleaseSlot(slot);
  }

  Fabric& FabricFor(int process) {
    auto& fabric = fabrics_[Idx(process)];
    if (!fabric) {
      fabric = std::make_unique<Fabric>(&sim_);
    }
    return *fabric;
  }

  // The replay's id for the link a hop names, resolved once per chunk
  // string.
  std::int32_t LinkName(ResidentChunk& rc, CpStrId link) {
    std::int32_t& id = rc.link_of_string[link];
    if (id < 0) {
      const std::string_view name = rc.chunk.str(link);
      id = static_cast<std::int32_t>(link_names_.Intern(name));
      if (Idx(id) >= link_nvlink_.size()) {
        // NVLink links are named "nvlink/..."; everything else ("pcie/...",
        // "uplink/...") is PCIe infrastructure and follows the PCIe knob.
        link_nvlink_.resize(Idx(id) + 1, 0);
        link_nvlink_[Idx(id)] = name.starts_with("nvlink") ? 1 : 0;
      }
    }
    return id;
  }

  double ScaleFor(std::int32_t link) const {
    return link_nvlink_[Idx(link)] != 0 ? exp_.nvlink_scale : exp_.pcie_scale;
  }

  LinkId LinkFor(int process, std::int32_t link, double capacity) {
    auto& table = links_[Idx(process)];
    if (Idx(link) >= table.size()) {
      table.resize(Idx(link) + 1);
    }
    LinkSlot& slot = table[Idx(link)];
    if (slot.id >= 0) {
      DP_CHECK(slot.capacity == capacity);  // journal self-consistency
      return slot.id;
    }
    slot.id = FabricFor(process).AddLink(link_names_[static_cast<CpStrId>(link)],
                                         capacity * ScaleFor(link));
    slot.capacity = capacity;
    return slot.id;
  }

  void ScheduleStart(std::uint64_t pos) {
    const StartEvent& e = src_.start_events[pos];
    sim_.ScheduleReserved(e.when, start_seq_ + e.order,
                          MakeAction<&Replayer::FireStart>(this, pos));
  }

  // Event: start event `pos` is due; the next one is queued first.
  void FireStart(std::uint64_t pos) {
    if (pos + 1 < src_.start_events.size()) {
      ScheduleStart(pos + 1);
    }
    const std::uint64_t arg = src_.start_events[pos].arg;
    if ((arg & 1) != 0) {
      Arrive(arg >> 1);
    } else {
      Release(arg >> 1);
    }
  }

  // Event: request `id` is dispatched; its non-arrival nodes get their
  // release token.
  void Release(std::uint64_t id) {
    const int request = static_cast<int>(id);
    const std::uint32_t slot = Resident(request);
    const JournalChunk& chunk = src_.slot(slot).chunk;
    const JournalChunk::Record& rec =
        chunk.requests[src_.record_of[Idx(request)]];
    for (std::uint32_t i = rec.first_node; i < rec.first_node + rec.num_nodes;
         ++i) {
      if (chunk.nodes[i].kind != CpKind::kArrival) {
        Arm(Handle(slot, i));
      }
    }
    Settle(slot, request);
  }

  // Event: request `id`'s arrival node finishes at its recorded time.
  void Arrive(std::uint64_t id) {
    const int request = static_cast<int>(id);
    const std::uint32_t slot = Resident(request);
    const JournalChunk& chunk = src_.slot(slot).chunk;
    FinishNode(Handle(slot, chunk.requests[src_.record_of[Idx(request)]]
                                .arrival_index),
               0);
  }

  void Arm(std::uint64_t handle) {
    std::int32_t& pending = src_.slot(SlotOf(handle)).pending[IndexOf(handle)];
    DP_CHECK(pending > 0);
    if (--pending == 0) {
      StartNode(handle);
    }
  }

  // The PCIe-scaled share of an exec node's replayed duration (DHA parameter
  // streaming). The remainder of the node scales only with the exec knob.
  Nanos ScaledDhaShare(const CpNode& n) const {
    const Nanos dha = std::clamp<Nanos>(n.dha_pcie, 0, n.end - n.start);
    return static_cast<Nanos>(static_cast<double>(dha) /
                              (exp_.exec_scale * exp_.pcie_scale));
  }

  // The bandwidth-independent tail of a recorded transfer (DMA setup,
  // completion signalling): the recorded solo is body-at-min-capacity plus
  // this tail, so it falls out exactly.
  static Nanos TransferLatency(const CpNode& n) {
    if (n.solo < 0) {
      return 0;
    }
    double min_cap = std::numeric_limits<double>::infinity();
    for (const CpHop& hop : n.path) {
      min_cap = std::min(min_cap, hop.capacity);
    }
    return std::max<Nanos>(0, n.solo - CeilTransferBody(n.bytes, min_cap));
  }

  // How long node `n` runs under the experiment, or -1 for a transfer the
  // rebuilt fabric times. A pure function of the node and the experiment,
  // so a timed finish recomputes it instead of storing it.
  Nanos TimedDuration(ResidentChunk& rc, const CpNode& n) {
    const Nanos recorded = n.end - n.start;
    switch (n.kind) {
      case CpKind::kArrival:
        DP_CHECK(false);  // arrivals are scheduled directly, never armed
        break;
      case CpKind::kEvict:
        return exp_.remove_evictions ? 0 : recorded;
      case CpKind::kExec: {
        const Nanos dha = std::clamp<Nanos>(n.dha_pcie, 0, recorded);
        const auto rest = static_cast<Nanos>(
            static_cast<double>(recorded - dha) / exp_.exec_scale);
        return rest + ScaledDhaShare(n);
      }
      case CpKind::kPcie:
      case CpKind::kNvlink:
        break;
    }
    if (n.path.empty()) {
      // Journal predates hop recording: no fabric to rebuild, so degrade to
      // scaling the recorded (or, contention-free, the solo) duration.
      const double knob =
          n.kind == CpKind::kNvlink ? exp_.nvlink_scale : exp_.pcie_scale;
      const Nanos base =
          exp_.zero_contention && n.solo >= 0 ? n.solo : recorded;
      return static_cast<Nanos>(static_cast<double>(base) / knob);
    }
    if (!exp_.zero_contention) {
      return -1;
    }
    double min_scaled = std::numeric_limits<double>::infinity();
    for (const CpHop& hop : n.path) {
      min_scaled =
          std::min(min_scaled, hop.capacity * ScaleFor(LinkName(rc, hop.link)));
    }
    return CeilTransferBody(n.bytes, min_scaled) + TransferLatency(n);
  }

  void StartNode(std::uint64_t handle) {
    ResidentChunk& rc = src_.slot(SlotOf(handle));
    const CpNode& n = rc.chunk.nodes[IndexOf(handle)];
    const Nanos duration = TimedDuration(rc, n);
    if (duration >= 0) {
      sim_.ScheduleAfter(duration, MakeAction<&Replayer::FinishTimed>(this, handle));
      return;
    }
    const int process = n.request >= 0 ? requests_[Idx(n.request)].process : 0;
    LinkPath path;
    for (const CpHop& hop : n.path) {
      path.push_back(LinkFor(process, LinkName(rc, hop.link), hop.capacity));
    }
    FabricFor(process).Start(path, n.bytes, TransferLatency(n),
                             MakeTransferDone<&Replayer::FinishNode>(this, handle));
  }

  void FinishTimed(std::uint64_t handle) {
    ResidentChunk& rc = src_.slot(SlotOf(handle));
    FinishNode(handle, TimedDuration(rc, rc.chunk.nodes[IndexOf(handle)]));
  }

  void FinishNode(std::uint64_t handle, Nanos elapsed) {
    const Nanos now = sim_.now();
    const std::uint32_t slot = SlotOf(handle);
    const std::uint32_t index = IndexOf(handle);
    // Slots are stable objects, so `rc` and `n` survive chunks loading
    // below; the chunk can only retire in the final Settle.
    ResidentChunk& rc = src_.slot(slot);
    const CpNode& n = rc.chunk.nodes[index];
    const int request = n.request;
    if (request >= 0) {
      switch (n.kind) {
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
    for (std::uint32_t k = rc.succ_begin[index]; k < rc.succ_begin[index + 1];
         ++k) {
      Arm(Handle(slot, rc.succ[k]));
    }
    if (request < 0) {
      return;
    }
    const CpRequest& r = requests_[Idx(request)];
    if (r.terminal_node == n.id && r.completion >= 0) {
      out_.latency[Idx(r.id)] = now - r.arrival;
      const int next = src_.domains.next[Idx(r.id)];
      if (next >= 0) {
        const Nanos arrival = requests_[Idx(next)].arrival;
        if (arrival <= now) {
          Release(static_cast<std::uint64_t>(next));
        } else {
          sim_.ScheduleAt(arrival, MakeAction<&Replayer::Release>(
                                       this, static_cast<std::uint64_t>(next)));
        }
      }
      Settle(slot, request);
    }
    if (Replayed(r)) {
      Settle(slot, request);
    }
  }

  // Per process and link name: the rebuilt fabric's link and the recorded
  // (unscaled) capacity every hop over it must agree on.
  struct LinkSlot {
    LinkId id = -1;
    double capacity = 0.0;
  };

  JournalWindow& src_;
  const WhatIfExperiment& exp_;
  const std::vector<CpRequest>& requests_;
  Simulator sim_;
  WhatIfReplay out_;
  std::vector<std::unique_ptr<Fabric>> fabrics_;
  CpStrings link_names_;
  std::vector<char> link_nvlink_;  // per link name: follows the NVLink knob
  std::vector<std::vector<LinkSlot>> links_;  // [process][link name]
  // Per chunk: its slot while resident, else kNotLoaded or kRetired.
  std::vector<std::int64_t> slot_of_chunk_;
  std::size_t resident_ = 0;  // replayed requests in resident chunks
  std::uint64_t start_seq_ = 0;  // sequence number of start event order 0
};

}  // namespace

// The replay engine above keeps internal linkage, so it names the window by
// a type of its own; WindowedJournal's private Impl is that window.
struct WindowedJournal::Impl : JournalWindow {};

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
      if (k < kMinWhatIfScale || k > kMaxWhatIfScale) {
        *error = "scale out of range in what-if clause '" + tok + "' (want " +
                 Json::Num(kMinWhatIfScale) + " to " + Json::Num(kMaxWhatIfScale) +
                 ": replayed nanosecond times and link capacities must stay "
                 "finite)";
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
  WindowedJournal journal;
  std::string error;
  const bool opened = journal.OpenBytes(graph.journal(), &error);
  DP_CHECK(opened);
  return journal.Replay(exp);
}

WindowedJournal::WindowedJournal() : impl_(std::make_unique<Impl>()) {}
WindowedJournal::~WindowedJournal() = default;

bool WindowedJournal::Open(const std::string& path, std::string* error) {
  DP_CHECK(error != nullptr);
  impl_->reader.Open(path);
  return impl_->Index(error);
}

bool WindowedJournal::OpenBytes(std::string_view bytes, std::string* error) {
  DP_CHECK(error != nullptr);
  impl_->reader.OpenBytes(bytes);
  return impl_->Index(error);
}

const std::vector<std::string>& WindowedJournal::processes() const {
  return impl_->processes;
}

const std::vector<CpRequest>& WindowedJournal::requests() const {
  return impl_->requests;
}

WhatIfReplay WindowedJournal::Replay(const WhatIfExperiment& exp) {
  return Replayer(*impl_, exp).Run();
}

std::size_t WindowedJournal::max_resident_requests() const {
  return impl_->max_resident;
}

}  // namespace deepplan
