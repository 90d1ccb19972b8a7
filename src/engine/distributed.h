// The road not taken (Section 2.3): distributed execution. Instead of
// merging partitions onto the primary GPU over NVLink, leave each partition
// on the GPU that loaded it and run the inference *across* GPUs, paying a
// GPU-to-GPU activation transfer at every partition boundary — on the cold
// path AND on every warm inference thereafter. The paper rejects this because
// "it pays the cost of GPU-to-GPU communication while inferencing [and] can
// pose additional latency even for in-memory executions"; this module
// implements it so the ablation bench can quantify that argument.
#ifndef SRC_ENGINE_DISTRIBUTED_H_
#define SRC_ENGINE_DISTRIBUTED_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/engine/engine.h"

namespace deepplan {

struct DistributedRunOptions {
  int batch = 1;
  // Per-boundary synchronization cost (kernel on the next GPU cannot start
  // until the activation transfer's completion event is observed).
  Nanos boundary_sync_overhead = Micros(15);
};

class DistributedEngine {
 public:
  DistributedEngine(Simulator* sim, ServerFabric* fabric, const PerfModel* perf);
  ~DistributedEngine();

  // Cold start: partition p of `plan` loads onto gpus[p] over its own PCIe
  // lane (no NVLink weight forwarding); execution walks the layers in order,
  // crossing NVLink with the activation tensor wherever the partition index
  // changes. DHA layers execute from host memory on the GPU owning their
  // partition.
  void RunCold(const Model& model, const ExecutionPlan& plan,
               const std::vector<GpuId>& gpus, const DistributedRunOptions& options,
               std::function<void(const InferenceResult&)> done);

  // Steady-state latency once all partitions are resident: execution plus the
  // recurring boundary transfers. This is the "additional latency even for
  // in-memory executions" the paper calls out.
  Nanos WarmDuration(const Model& model, const ExecutionPlan& plan,
                     const std::vector<GpuId>& gpus,
                     const DistributedRunOptions& options) const;

 private:
  // Activation bytes crossing a boundary after layer i (its output tensor).
  static std::int64_t BoundaryBytes(const Layer& layer, int batch);

  struct Run;  // one cold run's events and streams (distributed.cc)

  Simulator* sim_;
  ServerFabric* fabric_;
  const PerfModel* perf_;
  // Runs in flight plus those finished since the last RunCold: a run's
  // execute stream still unwinds after its `done` returns, so it is freed at
  // the next RunCold.
  std::vector<std::unique_ptr<Run>> runs_;
};

}  // namespace deepplan

#endif  // SRC_ENGINE_DISTRIBUTED_H_
