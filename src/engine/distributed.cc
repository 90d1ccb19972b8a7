#include "src/engine/distributed.h"

#include <algorithm>
#include <memory>

#include "src/sim/stream.h"
#include "src/util/index.h"
#include "src/util/logging.h"

namespace deepplan {

struct DistributedEngine::Run {
  Nanos start = 0;
  InferenceResult result;
  std::vector<SyncEvent> arrived;  // per layer, on its partition's GPU
  std::vector<Stream> load;        // per partition
  Stream exec;
  bool finished = false;
};

DistributedEngine::DistributedEngine(Simulator* sim, ServerFabric* fabric,
                                     const PerfModel* perf)
    : sim_(sim), fabric_(fabric), perf_(perf) {
  DP_CHECK(sim != nullptr && fabric != nullptr && perf != nullptr);
}

DistributedEngine::~DistributedEngine() = default;

std::int64_t DistributedEngine::BoundaryBytes(const Layer& layer, int batch) {
  // The output activation is roughly half the layer's in+out traffic; floor
  // at 4 KiB for control tensors.
  const std::int64_t bytes = layer.act_bytes / 2 * batch;
  return bytes < 4096 ? 4096 : bytes;
}

void DistributedEngine::RunCold(const Model& model, const ExecutionPlan& plan,
                                const std::vector<GpuId>& gpus,
                                const DistributedRunOptions& options,
                                std::function<void(const InferenceResult&)> done) {
  const std::size_t n = model.num_layers();
  DP_CHECK(plan.num_layers() == n);
  DP_CHECK(static_cast<int>(gpus.size()) >= plan.num_partitions());

  std::erase_if(runs_, [](const std::unique_ptr<Run>& r) { return r->finished; });
  Run* run = runs_.emplace_back(std::make_unique<Run>()).get();
  run->start = sim_->now();
  run->result.cold = true;
  run->result.partitions.resize(Idx(plan.num_partitions()));
  run->arrived.resize(n);
  run->load.resize(Idx(plan.num_partitions()));
  run->exec.Reset(sim_, "exec/distributed");

  // Per-partition PCIe load streams to each partition's own GPU: one
  // transfer per layer, then a marker that lands it.
  for (int p = 0; p < plan.num_partitions(); ++p) {
    const GpuId target = gpus[Idx(p)];
    Stream& load = run->load[Idx(p)];
    load.Reset(sim_, "pcie/gpu" + std::to_string(target));
    for (std::size_t i = 0; i < n; ++i) {
      const Layer& layer = model.layer(i);
      if (plan.partition(i) != p || plan.method(i) != ExecMethod::kLoad ||
          !layer.has_params()) {
        continue;
      }
      run->arrived[i].Reset(sim_);
      run->result.partitions[Idx(p)].bytes += layer.param_bytes;
      load.EnqueueTransfer(&fabric_->fabric(), fabric_->HostToGpuPath(target),
                           layer.param_bytes,
                           perf_->calibration().pcie_transfer_overhead);
      load.EnqueueMarker([this, run, p, i]() {
        run->arrived[i].Fire();
        run->result.partitions[Idx(p)].pcie_done = sim_->now() - run->start;
        run->result.load_done =
            std::max(run->result.load_done, sim_->now() - run->start);
      });
    }
  }

  // Execution stream: walk layers in order; cross NVLink with the activation
  // at each partition boundary.
  int prev_part = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Layer& layer = model.layer(i);
    const int p = plan.partition(i);
    if (p != prev_part) {
      const GpuId from = gpus[Idx(prev_part)];
      const GpuId to = gpus[Idx(p)];
      const std::int64_t bytes =
          i > 0 ? BoundaryBytes(model.layer(i - 1), options.batch) : 4096;
      run->exec.EnqueueTransfer(
          &fabric_->fabric(), fabric_->GpuToGpuPath(from, to), bytes,
          fabric_->topology().nvlink().transfer_latency + options.boundary_sync_overhead);
      prev_part = p;
    }
    if (plan.method(i) == ExecMethod::kLoad && layer.has_params()) {
      run->exec.EnqueueWait(&run->arrived[i]);
    }
    const Nanos exec = plan.method(i) == ExecMethod::kDirectHostAccess
                           ? perf_->ExecDha(layer, options.batch)
                           : perf_->ExecInMemory(layer, options.batch);
    run->exec.EnqueueDelay(exec);
    run->result.exec_busy += exec;
  }
  run->exec.EnqueueMarker([this, run, done = std::move(done)]() {
    run->result.latency = sim_->now() - run->start;
    run->result.stall = run->exec.wait_time();
    done(run->result);
    run->finished = true;
  });
}

Nanos DistributedEngine::WarmDuration(const Model& model, const ExecutionPlan& plan,
                                      const std::vector<GpuId>& gpus,
                                      const DistributedRunOptions& options) const {
  DP_CHECK(plan.num_layers() == model.num_layers());
  DP_CHECK(static_cast<int>(gpus.size()) >= plan.num_partitions());
  const NvlinkSpec& nvlink = fabric_->topology().nvlink();
  Nanos total = 0;
  int prev_part = 0;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    const int p = plan.partition(i);
    if (p != prev_part) {
      const std::int64_t bytes =
          i > 0 ? BoundaryBytes(model.layer(i - 1), options.batch) : 4096;
      const double secs = static_cast<double>(bytes) / nvlink.bw_bytes_per_sec;
      total += nvlink.transfer_latency + options.boundary_sync_overhead +
               static_cast<Nanos>(secs * kNanosPerSecond);
      prev_part = p;
    }
    total += plan.method(i) == ExecMethod::kDirectHostAccess
                 ? perf_->ExecDha(model.layer(i), options.batch)
                 : perf_->ExecInMemory(model.layer(i), options.batch);
  }
  return total;
}

}  // namespace deepplan
