// CUDA-stream-like in-order work queues plus cross-stream synchronization
// events, mirroring the execution-coordination layer of Section 4.3.4: the
// load stream records a SyncEvent after each layer transfer
// (cudaEventRecord), the execute stream waits on it (cudaStreamWaitEvent).
//
// The streams and events are also the causal graph's one source of edges
// (src/obs/causal_graph.h): an event remembers the causal node of the op
// that fired it, and a stream remembers the node of its last recorded op
// plus the fire nodes of the events it has waited on since. Those are the
// predecessors of the next op it records (Stream::preds), so the recorded
// happens-before DAG is the ordering that actually ran the work.
#ifndef SRC_SIM_STREAM_H_
#define SRC_SIM_STREAM_H_

#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "src/obs/causal_graph.h"
#include "src/sim/fabric.h"
#include "src/sim/simulator.h"
#include "src/util/time.h"

namespace deepplan {

class Stream;

// One-shot synchronization point. Fires once; streams waiting on it resume
// at fire time in the order they started waiting, and a wait reached after
// the fire passes inline. A default-constructed event is inert until Reset
// attaches a simulator; Reset also rearms a fired event for reuse (pooled
// cold-run bookkeeping retains the waiter vector's capacity across runs).
class SyncEvent {
 public:
  SyncEvent() = default;
  explicit SyncEvent(Simulator* sim) : sim_(sim) {}

  void Reset(Simulator* sim) {
    sim_ = sim;
    fired_ = false;
    fire_time_ = -1;
    node_ = -1;
    waiters_.clear();
  }

  bool fired() const { return fired_; }
  Nanos fire_time() const { return fire_time_; }
  // The causal node of the op that fired the event; -1 when none was
  // recorded.
  CpNodeId node() const { return node_; }

  // Marks the event fired at the current simulated time by the op recorded
  // as causal node `node` (-1: none), and resumes waiters.
  void Fire(CpNodeId node = -1);

 private:
  friend class Stream;

  Simulator* sim_ = nullptr;
  bool fired_ = false;
  CpNodeId node_ = -1;
  Nanos fire_time_ = -1;
  std::vector<Stream*> waiters_;  // streams blocked on a Wait op
};

// In-order asynchronous work queue of typed ops. The next op starts only
// after the previous one finished. Delay, Transfer, and a Wait on an unfired
// event finish later (from a simulator event, the fabric's completion
// callback, or SyncEvent::Fire); Record, Marker, and a Wait on a fired event
// finish inline. Whoever finishes an op also starts the ops after it, up to
// the next one that finishes later, before returning: a Transfer followed by
// a Marker runs the Marker inside the transfer's completion callback, then
// starts the op after it, and schedules no event of its own.
//
// An op is one trivially-copyable record (enum + POD payload): a Transfer
// carries its LinkPath inline and a Marker an EventQueue::Action, so
// enqueueing and running ops never allocates once the op vector has grown.
class Stream {
 public:
  enum class OpKind { kDelay, kWait, kRecord, kTransfer, kMarker };

  struct Op {
    OpKind kind = OpKind::kDelay;
    Nanos duration = 0;          // kDelay: occupancy; kTransfer: latency tail
    SyncEvent* event = nullptr;  // kWait, kRecord
    Fabric* fabric = nullptr;    // kTransfer
    LinkPath path{};             // kTransfer
    std::int64_t bytes = 0;      // kTransfer
    EventQueue::Action marker{};  // kMarker
  };

  // A default-constructed stream is inert until Reset attaches a simulator.
  Stream() = default;
  Stream(Simulator* sim, std::string name);
  // Discards the markers of ops that never started (EventQueue::Discard).
  ~Stream();
  Stream(Stream&&) = default;

  // Rearms a drained stream for reuse (pooled cold-run bookkeeping), its
  // next recorded op hanging off causal node `last` (-1: none). The stream
  // must be idle: no queued ops, no op in flight.
  void Reset(Simulator* sim, std::string name, CpNodeId last = -1);

  const std::string& name() const { return name_; }
  bool idle() const { return !running_ && next_ == ops_.size(); }

  // Occupies the stream for `duration` (one simulator event).
  void EnqueueDelay(Nanos duration);

  // Blocks the stream until `event` fires.
  void EnqueueWait(SyncEvent* event);

  // Fires `event`, with the stream's last recorded node, when the stream
  // reaches this point.
  void EnqueueRecord(SyncEvent* event);

  // Moves `bytes` across `path` of `fabric` as one Fabric::Start (`latency`
  // is the transfer's completion tail); finishes when the transfer does.
  void EnqueueTransfer(Fabric* fabric, LinkPath path, std::int64_t bytes, Nanos latency);

  // Runs `marker` inline (zero duration) when the stream reaches it. Its
  // context must outlive the op (pooled cold runs pass their own records).
  void EnqueueMarker(EventQueue::Action marker);
  // The same for any other callable (EventQueue::Box).
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventQueue::Action>)
  void EnqueueMarker(F&& fn) {
    EnqueueMarker(EventQueue::Box(std::forward<F>(fn)));
  }

  // Total time this stream spent with work enqueued but blocked on a wait op
  // (approximate pipeline-stall accounting for diagnostics).
  Nanos wait_time() const { return wait_time_; }

  // The causal predecessors of the op the stream records next: the node of
  // its last recorded op, then the fire nodes of the events it has waited on
  // since, in wait order, consecutive repeats folded. Nodes of -1 (nothing
  // recorded) are left out after the first.
  std::span<const CpNodeId> preds() const { return preds_; }
  // The op that just finished was recorded as causal node `node`: it is the
  // next op's one predecessor until the stream waits again.
  void Recorded(CpNodeId node) {
    preds_.resize(1);
    preds_[0] = node;
  }

 private:
  friend class SyncEvent;

  void Push(const Op& op);
  // Starts queued ops until one finishes later or the queue drains.
  void Pump();
  // The in-flight op finished (delay elapsed or transfer completed).
  void Finish();
  // A Wait op passed an event fired by causal node `node`.
  void Waited(CpNodeId node) {
    if (node >= 0 && node != preds_.back()) {
      preds_.push_back(node);
    }
  }
  // The event the in-flight Wait op blocked on fired, by causal node `node`.
  void EndWait(CpNodeId node);

  Simulator* sim_ = nullptr;
  std::string name_;
  // Enqueued ops; those before next_ have started. The storage is reused
  // once every op has started, so a pooled stream stops allocating.
  std::vector<Op> ops_;
  std::size_t next_ = 0;
  bool running_ = false;
  Nanos wait_start_ = 0;  // when the in-flight Wait op blocked
  Nanos wait_time_ = 0;
  // When the most recent op started; the validator asserts in-order starts.
  Nanos last_start_ = -1;
  std::vector<CpNodeId> preds_{-1};  // see preds(); never empty
};

static_assert(std::is_trivially_copyable_v<Stream::Op>);

}  // namespace deepplan

#endif  // SRC_SIM_STREAM_H_
