#include "src/engine/engine.h"

#include <algorithm>
#include <memory>

#include "src/obs/selfprof.h"
#include "src/sim/stream.h"
#include "src/util/arena.h"
#include "src/util/index.h"
#include "src/util/logging.h"

namespace deepplan {

ServerFabric::ServerFabric(Simulator* sim, const Topology* topology)
    : sim_(sim), topology_(topology), fabric_(sim) {
  DP_CHECK(topology != nullptr);
  for (int s = 0; s < topology_->num_switches(); ++s) {
    uplink_of_switch_.push_back(
        fabric_.AddLink("uplink/sw" + std::to_string(s), topology_->switch_uplink_bw()));
  }
  for (GpuId g = 0; g < topology_->num_gpus(); ++g) {
    pcie_of_gpu_.push_back(fabric_.AddLink(
        "pcie/gpu" + std::to_string(g), topology_->pcie().effective_bw_bytes_per_sec));
  }
  const int n = topology_->num_gpus();
  nvlink_.assign(Idx(n), std::vector<LinkId>(Idx(n), -1));
  for (GpuId a = 0; a < n; ++a) {
    for (GpuId b = 0; b < n; ++b) {
      if (a != b && topology_->HasNvlink(a, b)) {
        nvlink_[Idx(a)][Idx(b)] =
            fabric_.AddLink("nvlink/" + std::to_string(a) + "-" + std::to_string(b),
                            topology_->nvlink().bw_bytes_per_sec);
      }
    }
  }
}

std::vector<LinkId> ServerFabric::HostToGpuPath(GpuId gpu) const {
  DP_CHECK(gpu >= 0 && gpu < topology_->num_gpus());
  return {uplink_of_switch_[Idx(topology_->switch_of(gpu))], pcie_of_gpu_[Idx(gpu)]};
}

std::vector<LinkId> ServerFabric::GpuToGpuPath(GpuId from, GpuId to) const {
  DP_CHECK(from >= 0 && from < topology_->num_gpus());
  DP_CHECK(to >= 0 && to < topology_->num_gpus());
  const LinkId link = nvlink_[Idx(from)][Idx(to)];
  DP_CHECK(link >= 0 && "no NVLink between GPUs");
  return {link};
}

LinkId ServerFabric::pcie_link(GpuId gpu) const {
  DP_CHECK(gpu >= 0 && gpu < topology_->num_gpus());
  return pcie_of_gpu_[Idx(gpu)];
}

std::vector<CpHop> ServerFabric::CausalHops(const std::vector<LinkId>& path) const {
  std::vector<CpHop> hops;
  hops.reserve(path.size());
  for (const LinkId l : path) {
    hops.push_back(CpHop{fabric_.link_name(l), fabric_.link_capacity(l)});
  }
  return hops;
}

namespace engine_internal {

// One transfer unit on a PCIe load stream: one layer, or several
// consecutive layers coalesced into a transmission group (PipeSwitch-style
// grouping amortizes per-copy overhead at the cost of coarser pipelining).
struct LoadItem {
  std::vector<std::size_t> layer_indices;
  std::int64_t bytes = 0;
  // Label for recorder/causal output; left empty (not built) when no
  // observer is attached, which is the serving hot path.
  std::string name;
};

// All mutable state of one in-flight cold run. Runs are pooled: the engine
// recycles a retired run's record — sync events, streams, per-partition item
// lists — so a million-cold-start replay reuses the same buffers instead of
// allocating hundreds of heap objects per run. The record stays owned by the
// pool for the engine's lifetime, so the raw pointers captured by in-flight
// ops can never dangle. Stream names double as trace/causal tracks.
struct ColdRun {
  Nanos start = 0;
  InferenceResult result;
  std::vector<SyncEvent> arrived;       // per layer, primary GPU
  std::vector<SyncEvent> at_secondary;  // per layer, secondary GPU
  SyncEvent all_loaded;                 // Baseline gate
  Stream exec;                          // "exec/gpu<primary>"
  std::vector<Stream> load;             // per partition, "pcie/gpu<target>"
  std::vector<Stream> migration;  // per partition, "nvlink/<src>-><primary>"
                                  // (index 0 unused)
  std::vector<std::vector<LoadItem>> part_items;
  int pending_arrivals = 0;
  // A trace recorder or causal graph wants this run's ops.
  bool observed = false;
  // Causal-graph cursors (only populated when the run records profiling
  // nodes): chains thread happens-before edges through these.
  int causal_request = -1;
  CpNodeId causal_root = -1;
  std::vector<CpNodeId> layer_source;      // node that delivered each layer
  std::vector<CpNodeId> secondary_source;  // PCIe node per layer (partitions>0)
  std::vector<CpNodeId> pcie_prev;         // per-partition PCIe chain cursor
  std::vector<CpNodeId> mig_prev;          // per-partition migration cursor
  CpNodeId last_exec = -1;
  CpNodeId all_loaded_source = -1;  // node whose arrival fired all_loaded

  // Layer `layer` of `partition` became resident on the primary GPU.
  void Arrive(std::size_t layer, int partition, Nanos now) {
    arrived[layer].Fire();
    auto& ps = result.partitions[Idx(partition)];
    ps.arrival_done = std::max(ps.arrival_done, now - start);
    result.load_done = std::max(result.load_done, now - start);
    if (--pending_arrivals == 0) {
      if (causal_request >= 0) {
        // The node that delivered the last layer is what a non-pipelined
        // Baseline's gated exec ops causally wait on.
        all_loaded_source = layer_source[layer];
      }
      all_loaded.Fire();
    }
  }
};

}  // namespace engine_internal

using engine_internal::ColdRun;
using engine_internal::LoadItem;

// Pool of reusable ColdRun records plus the deferred-release list. A run
// cannot be released the moment its completion callback fires: the execute
// stream's op machinery still runs (on the run's own Stream member) after the
// marker returns, and the callback may synchronously start another inference.
// Retired runs are instead recycled at the next RunCold, which always begins
// from a fresh event dispatch, by which point every prior run is quiescent.
struct EngineScratch {
  ObjectPool<ColdRun> pool;
  std::vector<ColdRun*> retired;
};

Engine::Engine(Simulator* sim, ServerFabric* fabric, const PerfModel* perf)
    : sim_(sim), fabric_(fabric), perf_(perf),
      scratch_(std::make_unique<EngineScratch>()) {
  DP_CHECK(sim != nullptr && fabric != nullptr && perf != nullptr);
}

Engine::~Engine() = default;

void Engine::set_telemetry(TraceRecorder* recorder, int pid) {
  recorder_ = recorder;
  pid_ = pid;
}

CpNodeId Engine::Observe(int request, CpKind kind, const std::string& track,
                         const std::string& name, Nanos start,
                         const std::vector<LinkId>& path, std::int64_t bytes,
                         Nanos latency) {
  const bool transfer = kind != CpKind::kExec;
  if (recorder_ != nullptr) {
    if (transfer) {
      // Async interval, not a complete slice: another run's stream may be
      // draining through the same link at the same time.
      const std::uint64_t aid = next_async_id_++;
      recorder_->AsyncBegin(pid_, track, name, aid, start);
      recorder_->AsyncEnd(pid_, track, name, aid, sim_->now());
    } else {
      recorder_->Span(pid_, track, name, start, sim_->now() - start);
    }
  }
  if (request < 0) {
    return -1;
  }
  if (!transfer) {
    return causal_->AddNode(request, kind, name, track, start, sim_->now());
  }
  const CpNodeId node =
      causal_->AddNode(request, kind, name, track, start, sim_->now(), bytes,
                       fabric_->fabric().SoloDuration(path, bytes, latency));
  causal_->SetNodePath(node, fabric_->CausalHops(path));
  return node;
}

void Engine::RunCold(const Model& model, const ExecutionPlan& plan, GpuId primary,
                     std::vector<GpuId> secondaries, const ColdRunOptions& options,
                     std::function<void(InferenceResult)> done) {
  // Times the synchronous DAG construction (per-layer op enqueues); the ops
  // themselves execute later under sim.dispatch / exec.stream.
  DP_SELFPROF_SCOPE(kColdStart);
  const std::size_t n = model.num_layers();
  DP_CHECK(plan.num_layers() == n);
  DP_CHECK(static_cast<int>(secondaries.size()) >= plan.num_partitions() - 1);

  // Recycle runs that retired since the last call (see EngineScratch).
  for (ColdRun* r : scratch_->retired) {
    scratch_->pool.Release(r);
  }
  scratch_->retired.clear();

  ColdRun* run = scratch_->pool.Acquire();
  const std::size_t parts = Idx(plan.num_partitions());
  run->start = sim_->now();
  run->result.latency = 0;
  run->result.exec_busy = 0;
  run->result.stall = 0;
  run->result.load_done = 0;
  run->result.cold = true;
  run->result.partitions.clear();
  run->result.partitions.resize(parts);
  run->result.causal_terminal = -1;
  if (run->arrived.size() < n) {
    run->arrived.resize(n);
    run->at_secondary.resize(n);
  }
  run->all_loaded.Reset(sim_);
  run->exec.Reset(sim_, "exec/gpu" + std::to_string(primary));
  if (run->load.size() < parts) {
    run->load.resize(parts);
    run->migration.resize(parts);
  }
  for (auto& items : run->part_items) {
    items.clear();
  }
  if (run->part_items.size() < parts) {
    run->part_items.resize(parts);
  }
  run->pending_arrivals = 0;
  run->causal_request = -1;
  run->causal_root = -1;
  run->last_exec = -1;
  run->all_loaded_source = -1;

  // Causal profiling is per-run: active only when a graph is attached AND
  // this run was given a request to hang its nodes off.
  if (causal_ != nullptr && causal_->enabled() && options.causal_request >= 0) {
    run->causal_request = options.causal_request;
    run->causal_root = options.causal_root >= 0
                           ? options.causal_root
                           : causal_->arrival_node(options.causal_request);
    run->layer_source.assign(n, -1);
    run->secondary_source.assign(n, -1);
    run->pcie_prev.assign(parts, run->causal_root);
    run->mig_prev.assign(parts, run->causal_root);
    run->last_exec = run->causal_root;
    run->all_loaded_source = run->causal_root;
  }
  // Item labels are consumed only by the trace recorder and the causal
  // graph; skip the string building entirely when neither is active for this
  // run (the serving hot path).
  run->observed = recorder_ != nullptr || run->causal_request >= 0;

  for (std::size_t i = 0; i < n; ++i) {
    const Layer& layer = model.layer(i);
    if (plan.method(i) == ExecMethod::kLoad && layer.has_params()) {
      const int p = plan.partition(i);
      auto& items = run->part_items[Idx(p)];
      const int group = options.transfer_group_layers;
      if (!items.empty() &&
          static_cast<int>(items.back().layer_indices.size()) < group) {
        items.back().layer_indices.push_back(i);
        items.back().bytes += layer.param_bytes;
        if (run->observed) {
          items.back().name += "+" + layer.name;
        }
      } else {
        items.push_back(LoadItem{
            {i}, layer.param_bytes, run->observed ? layer.name : std::string()});
      }
      run->arrived[i].Reset(sim_);
      run->at_secondary[i].Reset(sim_);
      ++run->pending_arrivals;
      run->result.partitions[Idx(p)].bytes += layer.param_bytes;
    }
  }
  if (run->pending_arrivals == 0) {
    run->all_loaded.Fire();
  }

  // PCIe load streams: one per partition, each through its own GPU's PCIe
  // lane (primary for partition 0, secondaries for the rest). The
  // per-transfer DMA-setup overhead is the fabric latency term, so it
  // serializes into the stream exactly as back-to-back cudaMemcpyAsync calls.
  // After each transfer a marker lands its layers: on the primary they are
  // ready to execute, on a secondary they are ready to migrate.
  const Nanos pcie_overhead = perf_->calibration().pcie_transfer_overhead;
  for (int p = 0; p < plan.num_partitions(); ++p) {
    const auto& items = run->part_items[Idx(p)];
    if (items.empty()) {
      continue;
    }
    const GpuId target = p == 0 ? primary : secondaries[Idx(p - 1)];
    run->result.partitions[Idx(p)].pcie_start = 0;
    Stream* load = &run->load[Idx(p)];
    load->Reset(sim_, "pcie/gpu" + std::to_string(target));
    for (std::size_t k = 0; k < items.size(); ++k) {
      load->EnqueueTransfer(&fabric_->fabric(), fabric_->HostToGpuPath(target),
                            items[k].bytes, pcie_overhead);
      load->EnqueueMarker([this, run, p, k, target]() {
        PartitionStats& ps = run->result.partitions[Idx(p)];
        // The transfer began when the previous one on this lane finished.
        const Nanos started = run->start + ps.pcie_done;
        ps.pcie_done = sim_->now() - run->start;
        const LoadItem& item = run->part_items[Idx(p)][k];
        if (run->observed) {
          const CpNodeId node = Observe(
              run->causal_request, CpKind::kPcie, run->load[Idx(p)].name(),
              "load " + item.name, started, fabric_->HostToGpuPath(target),
              item.bytes, perf_->calibration().pcie_transfer_overhead);
          if (run->causal_request >= 0) {
            causal_->AddEdge(run->pcie_prev[Idx(p)], node);
            run->pcie_prev[Idx(p)] = node;
            for (const std::size_t li : item.layer_indices) {
              (p == 0 ? run->layer_source : run->secondary_source)[li] = node;
            }
          }
        }
        for (const std::size_t li : item.layer_indices) {
          if (p == 0) {
            run->Arrive(li, p, sim_->now());
          } else {
            run->at_secondary[li].Fire();
          }
        }
      });
    }
  }

  // NVLink migration: forward partitions > 0 from their secondary GPU to the
  // primary. Pipelined mode forwards each load item as soon as it lands
  // (parallel-pipeline); bulk mode forwards the whole partition as one item
  // once all of it has landed.
  const NvlinkSpec& nvlink = fabric_->topology().nvlink();
  for (int p = 1; p < plan.num_partitions(); ++p) {
    const auto& items = run->part_items[Idx(p)];
    if (items.empty()) {
      continue;
    }
    const GpuId src = secondaries[Idx(p - 1)];
    Stream* mig = &run->migration[Idx(p)];
    mig->Reset(sim_, "nvlink/" + std::to_string(src) + "->" + std::to_string(primary));
    const bool bulk = options.migration == MigrationMode::kBulk;
    const std::size_t span = bulk ? items.size() : 1;
    for (std::size_t first = 0; first < items.size(); first += span) {
      const std::size_t last = first + span;
      std::int64_t bytes = 0;
      for (std::size_t k = first; k < last; ++k) {
        for (const std::size_t li : items[k].layer_indices) {
          mig->EnqueueWait(&run->at_secondary[li]);
        }
        bytes += items[k].bytes;
      }
      mig->EnqueueTransfer(&fabric_->fabric(), fabric_->GpuToGpuPath(src, primary),
                           bytes, nvlink.transfer_latency);
      mig->EnqueueMarker([this, run, p, first, last, bulk, src, primary, bytes]() {
        const auto& part = run->part_items[Idx(p)];
        if (run->observed) {
          // The transfer began once the stream was free (the previous
          // migration landed) and every layer it waited on had reached the
          // secondary GPU.
          Nanos started = run->start + run->result.partitions[Idx(p)].arrival_done;
          for (std::size_t k = first; k < last; ++k) {
            for (const std::size_t li : part[k].layer_indices) {
              started = std::max(started, run->at_secondary[li].fire_time());
            }
          }
          const CpNodeId node = Observe(
              run->causal_request, CpKind::kNvlink, run->migration[Idx(p)].name(),
              bulk ? "migrate bulk p" + std::to_string(p) : "migrate " + part[first].name,
              started, fabric_->GpuToGpuPath(src, primary), bytes,
              fabric_->topology().nvlink().transfer_latency);
          if (run->causal_request >= 0) {
            causal_->AddEdge(run->mig_prev[Idx(p)], node);
            // The migration waited on each item's PCIe delivery to the
            // secondary GPU (one PCIe node covers a whole item).
            for (std::size_t k = first; k < last; ++k) {
              causal_->AddEdge(run->secondary_source[part[k].layer_indices.front()],
                               node);
            }
            run->mig_prev[Idx(p)] = node;
            for (std::size_t k = first; k < last; ++k) {
              for (const std::size_t li : part[k].layer_indices) {
                run->layer_source[li] = node;
              }
            }
          }
        }
        for (std::size_t k = first; k < last; ++k) {
          for (const std::size_t li : part[k].layer_indices) {
            run->Arrive(li, p, sim_->now());
          }
        }
      });
    }
  }

  // Execute stream on the primary GPU, gated on per-layer arrival events
  // (or on the all-loaded event for the non-pipelined Baseline).
  for (std::size_t i = 0; i < n; ++i) {
    const Layer& layer = model.layer(i);
    const bool loads = plan.method(i) == ExecMethod::kLoad && layer.has_params();
    if (loads) {
      run->exec.EnqueueWait(options.pipelined ? &run->arrived[i]
                                              : &run->all_loaded);
    }
    const bool dha = plan.method(i) == ExecMethod::kDirectHostAccess;
    const Nanos exec = dha ? perf_->ExecDha(layer, options.batch)
                           : perf_->ExecInMemory(layer, options.batch);
    run->exec.EnqueueDelay(exec);
    run->result.exec_busy += exec;
    if (!run->observed) {
      continue;
    }
    run->exec.EnqueueMarker([this, run, i, exec, loads, pipelined = options.pipelined,
                             dha_pcie = dha ? perf_->DhaPcieTime(layer, options.batch) : 0,
                             label = (dha ? "exec(DHA) " : "exec ") + layer.name]() {
      const CpNodeId node = Observe(run->causal_request, CpKind::kExec,
                                    run->exec.name(), label, sim_->now() - exec);
      if (run->causal_request >= 0) {
        if (dha_pcie > 0) {
          causal_->SetNodeDhaPcie(node, dha_pcie);
        }
        causal_->AddEdge(run->last_exec, node);
        if (loads) {
          causal_->AddEdge(pipelined ? run->layer_source[i] : run->all_loaded_source,
                           node);
        }
        run->last_exec = node;
      }
    });
  }
  run->exec.EnqueueMarker([this, run, done = std::move(done)]() {
    run->result.latency = sim_->now() - run->start;
    run->result.stall = run->exec.wait_time();
    if (run->causal_request >= 0 && run->last_exec != run->causal_root) {
      run->result.causal_terminal = run->last_exec;
    }
    done(run->result);
    // The run is over, but its execute stream still unwinds after this
    // marker returns (and `done` may have synchronously started new work),
    // so the record only retires here; the next RunCold recycles it.
    scratch_->retired.push_back(run);
  });
}

Nanos Engine::WarmDuration(const Model& model, const ExecutionPlan& plan,
                           int batch) const {
  DP_CHECK(plan.num_layers() == model.num_layers());
  Nanos total = 0;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    total += plan.method(i) == ExecMethod::kDirectHostAccess
                 ? perf_->ExecDha(model.layer(i), batch)
                 : perf_->ExecInMemory(model.layer(i), batch);
  }
  return total;
}

Nanos Engine::WarmDhaPcieTime(const Model& model, const ExecutionPlan& plan,
                              int batch) const {
  DP_CHECK(plan.num_layers() == model.num_layers());
  Nanos total = 0;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    if (plan.method(i) == ExecMethod::kDirectHostAccess) {
      total += perf_->DhaPcieTime(model.layer(i), batch);
    }
  }
  return total;
}

void Engine::RunWarm(const Model& model, const ExecutionPlan& plan, int batch,
                     std::function<void(InferenceResult)> done) {
  RunWarmFor(WarmDuration(model, plan, batch), std::move(done));
}

void Engine::RunWarmFor(Nanos duration, std::function<void(InferenceResult)> done) {
  const Nanos start = sim_->now();
  sim_->ScheduleAfter(duration, [this, start, duration, done = std::move(done)]() {
    InferenceResult result;
    result.latency = sim_->now() - start;
    result.exec_busy = duration;
    result.cold = false;
    done(result);
  });
}

}  // namespace deepplan
