// The DL inference server (Section 5.3): replays an arrival trace against a
// multi-GPU server. Each GPU runs one inference at a time (as in Clockwork);
// requests queue FIFO at their instance's home GPU. A request whose instance
// is GPU-resident runs warm; otherwise it cold-starts through the configured
// strategy (Baseline / PipeSwitch / DeepPlan DHA / PT / PT+DHA), evicting
// least-recently-used idle instances when GPU memory is short. Concurrent
// cold-starts on different GPUs contend for PCIe switch uplinks through the
// shared fabric, so parallel-transmission interference (Table 4) is modelled,
// not assumed away.
#ifndef SRC_SERVING_SERVER_H_
#define SRC_SERVING_SERVER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/engine/strategies.h"
#include "src/obs/causal_graph.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace_recorder.h"
#include "src/serving/instance.h"
#include "src/serving/metrics.h"
#include "src/workload/trace.h"

namespace deepplan {

struct ServerOptions {
  Strategy strategy = Strategy::kDeepPlanPtDha;
  int batch = 1;
  Nanos slo = Millis(100);
  // GPU memory available for model parameters (the rest holds activations,
  // workspaces, and the parallel-transmission staging area). 10.95 GB per
  // V100 reproduces the paper's instance capacities (100 PipeSwitch / 124
  // DeepPlan BERT-Base instances on 4 GPUs, Figure 13).
  std::int64_t usable_bytes_per_gpu = 10'950'000'000;
  // Victim selection when GPU memory runs out (LRU in the paper).
  EvictionPolicy eviction_policy = EvictionPolicy::kLru;
};

class Server {
 public:
  Server(const Topology& topology, const PerfModel& perf, ServerOptions options);
  // Shares an external simulator, for callers that feed arrivals themselves
  // (a chained feeder that schedules one arrival at a time, as bench_scaling
  // and the benchmark do): arrivals are then fed via Submit() from callbacks
  // scheduled on that simulator, and the caller drives sim->Run(). Run()
  // works here too.
  Server(Simulator* sim, const Topology& topology, const PerfModel& perf,
         ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Registers a model type: profiles it and generates the server strategy's
  // plan. Returns the model-type id used by AddInstances.
  int RegisterModelType(Model model);

  // Adds `count` instances of the model type, placed round-robin over GPUs.
  void AddInstances(int model_type, int count);

  int num_instances() const;
  // Instances resident after warmup (the capacity line of Figure 13).
  int WarmCapacity() const;

  // Replays the trace (instance ids must be < num_instances) and runs the
  // simulator until it drains; on a shared simulator that includes every
  // other event queued there. Returns the metrics, moved out of the server
  // (metrics() is empty afterwards). Can be called once per Server.
  // Arrivals are fed one at a time, each at a sequence number reserved up
  // front (Simulator::ReserveSeq), so events pop in the order of scheduling
  // the whole trace at once while the queue holds one pending arrival, not
  // one per request.
  ServingMetrics Run(const Trace& trace);

  // External-simulator interface: pre-provision instances, submit one
  // request (call from a simulator callback at the arrival time), and read
  // the accumulated metrics.
  void Warmup();
  void Submit(int instance);
  const ServingMetrics& metrics() const;

  // Attaches telemetry (either pointer may be nullptr) and forwards it to the
  // engine and fabric; call before Warmup()/Run(). `pid` is this server's
  // process group in the recorder (one per strategy when a bench traces
  // several replays).
  // While attached: per-GPU queue-depth counters ("queue/gpu<g>"), cold-start
  // phase spans on "coldstart/gpu<g>" (queue/evict/transfer/exec), warm exec
  // spans on "exec/gpu<g>", and registry counters (server.requests,
  // server.cold_starts, server.warm_hits, server.evictions) plus a
  // server.latency_ms histogram. Detached cost: one null test per hook.
  void set_telemetry(TraceRecorder* recorder, MetricsRegistry* registry,
                     int pid = 0);

  // Attaches a causal graph for critical-path profiling; call before
  // Warmup()/Run(). `process` is this server's process group in the graph.
  // Every submitted request then opens a causal request at arrival, cold
  // starts thread evict/transfer/exec nodes through the engine, and warm
  // runs record a single exec node; completion closes the request. nullptr
  // detaches; the disabled cost is one pointer test per request.
  void set_causal(CausalGraph* graph, int process = 0);

 private:
  struct ModelEntry;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace deepplan

#endif  // SRC_SERVING_SERVER_H_
