// Event-driven execution engine: runs cold-start (provisioning + inference)
// and warm inferences on the simulated server fabric. This is the ground
// truth the analytic pipeline model approximates; under contention (multiple
// GPUs loading at once) only the engine is accurate, because transfers share
// PCIe switch uplinks through the max-min fair fabric.
//
// Per Section 4.3.4, a cold run uses three kinds of streams (src/sim/stream):
// a load stream per partition (a Transfer op per layer or transmission group
// over the GPU's PCIe lane, each followed by a Marker that lands its layers),
// a migration stream per secondary GPU (Wait ops on the layers reaching it,
// then one NVLink Transfer and a landing Marker per forwarded item), and one
// execute stream on the primary GPU: a Wait on each loaded layer's arrival
// event (cudaStreamWaitEvent semantics) and a Delay per layer.
//
// Observation has one path: when a trace recorder or causal graph is
// attached, a Marker after each finished op computes the op's name, track
// (the stream's name) and interval once and writes them to both.
#ifndef SRC_ENGINE_ENGINE_H_
#define SRC_ENGINE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/plan.h"
#include "src/hw/topology.h"
#include "src/obs/causal_graph.h"
#include "src/obs/trace_recorder.h"
#include "src/model/model.h"
#include "src/perf/perf_model.h"
#include "src/sim/fabric.h"
#include "src/sim/simulator.h"
#include "src/util/time.h"

namespace deepplan {

// Topology-aware route table over a Fabric: one uplink link per PCIe switch,
// one downstream link per GPU, one link per NVLink-connected GPU pair.
class ServerFabric {
 public:
  ServerFabric(Simulator* sim, const Topology* topology);

  Fabric& fabric() { return fabric_; }
  const Topology& topology() const { return *topology_; }

  LinkPath HostToGpuPath(GpuId gpu) const;
  LinkPath GpuToGpuPath(GpuId from, GpuId to) const;

  LinkId pcie_link(GpuId gpu) const;

 private:
  Simulator* sim_;
  const Topology* topology_;
  Fabric fabric_;
  std::vector<LinkId> uplink_of_switch_;
  std::vector<LinkId> pcie_of_gpu_;
  std::vector<std::vector<LinkId>> nvlink_;  // -1 when absent
};

// How partitions k>0 reach the primary GPU.
enum class MigrationMode {
  kPipelined,  // forward each layer as it lands (paper's parallel-pipeline)
  kBulk,       // forward the whole partition after it fully lands ("parallel")
};

struct PartitionStats {
  std::int64_t bytes = 0;   // parameter bytes shipped over this PCIe lane
  Nanos pcie_start = -1;    // first transfer start (relative to run start)
  Nanos pcie_done = 0;      // last byte over PCIe
  Nanos arrival_done = 0;   // last byte available on the primary GPU
};

struct InferenceResult {
  Nanos latency = 0;     // request start -> last layer executed
  Nanos exec_busy = 0;   // sum of layer execution times
  Nanos stall = 0;       // execute-stream idle time waiting on arrivals
  Nanos load_done = 0;   // all parameters resident on the primary GPU
  bool cold = false;
  std::vector<PartitionStats> partitions;
  // Last exec node recorded in the causal graph (-1 unless a graph was
  // attached and ColdRunOptions.causal_request was set); the caller passes it
  // to CausalGraph::EndRequest as the request's terminal node.
  CpNodeId causal_terminal = -1;
};

struct ColdRunOptions {
  int batch = 1;
  // false reproduces the Baseline: execution starts only after the full model
  // is resident.
  bool pipelined = true;
  MigrationMode migration = MigrationMode::kPipelined;
  // Consecutive parameterized layers coalesced into one PCIe transfer.
  // 1 = per-layer transmission (the paper's framing); larger groups amortize
  // the per-copy DMA setup like PipeSwitch's transmission groups, at the
  // cost of coarser pipelining. See bench/ablation_group_size.
  int transfer_group_layers = 1;
  // Causal-graph wiring (profiling): the request this cold run belongs to in
  // the graph attached via set_causal, and the node the run's first
  // operations hang off (an evict node, or the request's arrival node).
  // -1 disables node emission for this run.
  int causal_request = -1;
  CpNodeId causal_root = -1;
};

// Pooled cold-run bookkeeping (defined in engine.cc): an ObjectPool of
// ColdRun records backed by src/util/arena, so a million-cold-start replay
// recycles sync events, streams, and per-partition item lists instead of
// allocating them per run.
struct EngineScratch;
namespace engine_internal {
struct ColdRun;
struct LoadItem;
}  // namespace engine_internal

class Engine {
 public:
  Engine(Simulator* sim, ServerFabric* fabric, const PerfModel* perf);
  ~Engine();

  // Attaches a trace recorder: every cold-run load/migrate/exec operation is
  // then recorded in *absolute* simulation time on the track of the stream
  // that ran it ("pcie/gpu<g>", "nvlink/<a>-><b>", "exec/gpu<g>"), so one
  // recorder covers all GPUs and requests of a whole server run. Transfers
  // export as async intervals, layer executions as complete slices. nullptr
  // detaches; the disabled cost is one pointer test.
  void set_telemetry(TraceRecorder* recorder, int pid = 0);

  // Attaches a causal graph: cold runs whose options carry a causal_request
  // then record every PCIe transfer, NVLink migration, and layer execution as
  // a happens-before DAG node (with solo durations and routes on transfers
  // for contention attribution). The fabric's link names are interned here,
  // once per attached graph. nullptr detaches; disabled cost is one pointer
  // test per operation.
  void set_causal(CausalGraph* graph);

  // Cold start: provision `model` according to `plan` onto `primary`
  // (partitions k>0 load via secondaries[k-1]) and execute one inference.
  // `done` fires at completion. Multiple concurrent runs interact through the
  // shared fabric.
  void RunCold(const Model& model, const ExecutionPlan& plan, GpuId primary,
               const std::vector<GpuId>& secondaries, const ColdRunOptions& options,
               std::function<void(const InferenceResult&)> done);

  // Duration a warm inference takes (closed form): parameters already placed
  // per `plan`, with DHA layers executing from host memory even when warm —
  // that is DeepPlan's residency tradeoff. Pass a default all-load plan for
  // fully GPU-resident models. Serving hot loops cache it per registered
  // model (it is a pure function of the plan) and schedule the warm
  // completion themselves.
  Nanos WarmDuration(const Model& model, const ExecutionPlan& plan, int batch) const;

  // PCIe-bandwidth-dependent share of WarmDuration: the summed DHA parameter
  // streaming time of the plan's direct-host-access layers. Recorded on warm
  // exec nodes so the what-if engine can rescale them under virtual PCIe
  // speedups.
  Nanos WarmDhaPcieTime(const Model& model, const ExecutionPlan& plan,
                        int batch) const;

 private:
  // Cold-run markers call back into the engine (Observe, causal_, scratch_).
  friend struct engine_internal::ColdRun;
  friend struct engine_internal::LoadItem;

  Simulator* sim_;
  ServerFabric* fabric_;
  const PerfModel* perf_;

  // A cold-run op's track or name: the text the trace recorder writes and
  // its id in the causal graph (unused when the run records no causal
  // nodes).
  struct OpName {
    std::string_view text;
    CpStrId id = 0;
  };

  // Names an observed run's ops (load items, migrations, layer executions)
  // for the trace recorder and, when the run records causal nodes, interns
  // the names it did not hold ids for in the attached graph already.
  void NameOps(engine_internal::ColdRun* run, const Model& model,
               const ExecutionPlan& plan);

  // Writes one finished cold-run op, [start, now()] on `track`, to the trace
  // recorder and (when `request` >= 0) the causal graph. Transfer kinds carry
  // `path`, `bytes` and `latency` into the graph's solo duration and route.
  // Returns the causal node, or -1 when none was recorded.
  CpNodeId Observe(int request, CpKind kind, OpName track, OpName name,
                   Nanos start, const LinkPath& path = {},
                   std::int64_t bytes = 0, Nanos latency = 0);

  TraceRecorder* recorder_ = nullptr;
  CausalGraph* causal_ = nullptr;
  // Counts set_causal calls, so a pooled run can tell whether the op labels
  // it holds are ids in the graph attached now.
  std::uint64_t causal_epoch_ = 0;
  std::vector<CpStrId> link_label_;  // per fabric link, its name in causal_
  int pid_ = 0;
  // Pairs async begin/end events for load/migrate intervals: concurrent cold
  // runs share PCIe/NVLink tracks, so their transfer slices may overlap and
  // cannot be exported as complete (nesting) slices.
  std::uint64_t next_async_id_ = 0;
  std::unique_ptr<EngineScratch> scratch_;
};

}  // namespace deepplan

#endif  // SRC_ENGINE_ENGINE_H_
