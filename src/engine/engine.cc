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

LinkPath ServerFabric::HostToGpuPath(GpuId gpu) const {
  DP_CHECK(gpu >= 0 && gpu < topology_->num_gpus());
  return {uplink_of_switch_[Idx(topology_->switch_of(gpu))], pcie_of_gpu_[Idx(gpu)]};
}

LinkPath ServerFabric::GpuToGpuPath(GpuId from, GpuId to) const {
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

// Every route the fabric can carry fits a journal node, and back.
static_assert(LinkPath::kMax == kCpMaxHops);

namespace engine_internal {

// One transfer unit on a PCIe load stream: one layer, or several
// consecutive layers coalesced into a transmission group (PipeSwitch-style
// grouping amortizes per-copy overhead at the cost of coarser pipelining).
// The item is its own stream markers' context: Loaded lands it after its
// PCIe transfer, Migrated after the NVLink transfer that forwards it.
struct LoadItem {
  ColdRun* run = nullptr;
  int partition = 0;
  std::size_t index = 0;  // position in its partition's item list
  std::vector<std::size_t> layer_indices;
  std::int64_t bytes = 0;
  // Observed runs only (see Engine::NameOps): the names of this item's load
  // and migration ops, as text for the trace recorder and as ids in the
  // causal graph.
  std::string load_name;     // "load <layer>[+<layer>...]"
  std::string migrate_name;  // "migrate <layer>[+...]" or "migrate bulk p<k>"
  CpStrId load_label = 0;
  CpStrId migrate_label = 0;

  void Loaded();
  // Forwards `count` items of this partition, starting with this one.
  void Migrated(std::uint64_t count);
};

// A partition's load items. Records past `size` are left over from earlier
// runs and are reused, buffers and all, before any new one is constructed.
struct ItemList {
  std::vector<LoadItem> items;
  std::size_t size = 0;

  LoadItem& Add() {
    if (size == items.size()) {
      items.emplace_back();
    }
    return items[size++];
  }
  LoadItem& back() { return items[size - 1]; }
};

// What the exec stream's per-layer marker records (observed runs only).
struct ExecStep {
  Nanos duration = 0;
  Nanos dha_pcie = 0;
  bool loads = false;  // waits on a loaded layer's arrival
  std::string name;    // "exec <layer>" or "exec(DHA) <layer>"
  CpStrId label = 0;   // `name` in the causal graph
};

// All mutable state of one in-flight cold run. Runs are pooled: the engine
// recycles a retired run's record — sync events, streams, per-partition item
// lists — so a million-cold-start replay reuses the same buffers instead of
// allocating hundreds of heap objects per run. The record stays owned by the
// pool for the engine's lifetime, so the raw pointers in in-flight ops' marker
// Actions can never dangle. Stream names double as trace/causal tracks; a run
// that records causal nodes interns them (and its op names) up front.
struct ColdRun {
  Engine* engine = nullptr;
  Nanos start = 0;
  GpuId primary = 0;
  bool pipelined = true;
  bool bulk_migration = false;
  InferenceResult result;
  std::function<void(const InferenceResult&)> done;
  std::vector<SyncEvent> arrived;       // per layer, primary GPU
  std::vector<SyncEvent> at_secondary;  // per layer, secondary GPU
  SyncEvent all_loaded;                 // Baseline gate
  Stream exec;                          // "exec/gpu<primary>"
  std::vector<Stream> load;             // per partition, "pcie/gpu<target>"
  std::vector<Stream> migration;  // per partition, "nvlink/<src>-><primary>"
                                  // (index 0 unused)
  // The streams' names in the causal graph (runs that record causal nodes).
  CpStrId exec_track = 0;
  std::vector<CpStrId> load_track;
  std::vector<CpStrId> migration_track;
  // The Engine::causal_epoch_ the op labels of this record's items and exec
  // steps are ids in; 0 when they are ids in no attached graph.
  std::uint64_t labels_epoch = 0;
  std::vector<GpuId> part_gpu;    // per partition, the GPU it loads onto
  std::vector<ItemList> part_items;
  std::vector<ExecStep> exec_steps;  // per layer (observed runs only)
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

  // Exec-stream markers: layer `layer` executed (observed runs), and the
  // last op of the run finished.
  void Executed(std::uint64_t layer);
  void Finish();
};

}  // namespace engine_internal

using engine_internal::ColdRun;
using engine_internal::ExecStep;
using engine_internal::ItemList;
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
  std::string name;  // NameOps' buffer for the next op name
};

namespace engine_internal {

void LoadItem::Loaded() {
  Engine& e = *run->engine;
  const Nanos now = e.sim_->now();
  PartitionStats& ps = run->result.partitions[Idx(partition)];
  // The transfer began when the previous one on this lane finished.
  const Nanos started = run->start + ps.pcie_done;
  ps.pcie_done = now - run->start;
  if (run->observed) {
    const CpNodeId node =
        e.Observe(run->causal_request, CpKind::kPcie,
                  {run->load[Idx(partition)].name(), run->load_track[Idx(partition)]},
                  {load_name, load_label}, started,
                  e.fabric_->HostToGpuPath(run->part_gpu[Idx(partition)]), bytes,
                  e.perf_->calibration().pcie_transfer_overhead);
    if (run->causal_request >= 0) {
      e.causal_->AddEdge(run->pcie_prev[Idx(partition)], node);
      run->pcie_prev[Idx(partition)] = node;
      for (const std::size_t li : layer_indices) {
        (partition == 0 ? run->layer_source : run->secondary_source)[li] = node;
      }
    }
  }
  for (const std::size_t li : layer_indices) {
    if (partition == 0) {
      run->Arrive(li, partition, now);
    } else {
      run->at_secondary[li].Fire();
    }
  }
}

void LoadItem::Migrated(std::uint64_t count) {
  Engine& e = *run->engine;
  const Nanos now = e.sim_->now();
  const std::vector<LoadItem>& part = run->part_items[Idx(partition)].items;
  const std::size_t first = index;
  const std::size_t last = first + count;
  if (run->observed) {
    // The transfer began once the stream was free (the previous migration
    // landed) and every layer it waited on had reached the secondary GPU.
    Nanos started = run->start + run->result.partitions[Idx(partition)].arrival_done;
    std::int64_t moved = 0;
    for (std::size_t k = first; k < last; ++k) {
      for (const std::size_t li : part[k].layer_indices) {
        started = std::max(started, run->at_secondary[li].fire_time());
      }
      moved += part[k].bytes;
    }
    const CpNodeId node = e.Observe(
        run->causal_request, CpKind::kNvlink,
        {run->migration[Idx(partition)].name(), run->migration_track[Idx(partition)]},
        {migrate_name, migrate_label}, started,
        e.fabric_->GpuToGpuPath(run->part_gpu[Idx(partition)], run->primary), moved,
        e.fabric_->topology().nvlink().transfer_latency);
    if (run->causal_request >= 0) {
      e.causal_->AddEdge(run->mig_prev[Idx(partition)], node);
      // The migration waited on each item's PCIe delivery to the secondary
      // GPU (one PCIe node covers a whole item).
      for (std::size_t k = first; k < last; ++k) {
        e.causal_->AddEdge(run->secondary_source[part[k].layer_indices.front()], node);
      }
      run->mig_prev[Idx(partition)] = node;
      for (std::size_t k = first; k < last; ++k) {
        for (const std::size_t li : part[k].layer_indices) {
          run->layer_source[li] = node;
        }
      }
    }
  }
  for (std::size_t k = first; k < last; ++k) {
    for (const std::size_t li : part[k].layer_indices) {
      run->Arrive(li, partition, now);
    }
  }
}

void ColdRun::Executed(std::uint64_t layer) {
  const ExecStep& step = exec_steps[layer];
  const CpNodeId node =
      engine->Observe(causal_request, CpKind::kExec, {exec.name(), exec_track},
                      {step.name, step.label}, engine->sim_->now() - step.duration);
  if (causal_request >= 0) {
    CausalGraph& causal = *engine->causal_;
    if (step.dha_pcie > 0) {
      causal.SetNodeDhaPcie(node, step.dha_pcie);
    }
    causal.AddEdge(last_exec, node);
    if (step.loads) {
      causal.AddEdge(pipelined ? layer_source[layer] : all_loaded_source, node);
    }
    last_exec = node;
  }
}

void ColdRun::Finish() {
  result.latency = engine->sim_->now() - start;
  result.stall = exec.wait_time();
  if (causal_request >= 0 && last_exec != causal_root) {
    result.causal_terminal = last_exec;
  }
  // Moved out so the callable dies after this call, as a one-shot should.
  const std::function<void(const InferenceResult&)> callback = std::move(done);
  done = nullptr;
  callback(result);
  // The run is over, but its execute stream still unwinds after this
  // marker returns (and `callback` may have synchronously started new work),
  // so the record only retires here; the next RunCold recycles it.
  engine->scratch_->retired.push_back(this);
}

}  // namespace engine_internal

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

void Engine::set_causal(CausalGraph* graph) {
  causal_ = graph;
  ++causal_epoch_;
  link_label_.clear();
  if (graph != nullptr) {
    const Fabric& fabric = fabric_->fabric();
    for (LinkId l = 0; l < fabric.num_links(); ++l) {
      link_label_.push_back(graph->Intern(fabric.link_name(l)));
    }
  }
}

CpNodeId Engine::Observe(int request, CpKind kind, OpName track, OpName name,
                         Nanos start, const LinkPath& path, std::int64_t bytes,
                         Nanos latency) {
  const bool transfer = kind != CpKind::kExec;
  if (recorder_ != nullptr) {
    if (transfer) {
      // Async interval, not a complete slice: another run's stream may be
      // draining through the same link at the same time.
      const std::uint64_t aid = next_async_id_++;
      recorder_->AsyncBegin(pid_, track.text, name.text, aid, start);
      recorder_->AsyncEnd(pid_, track.text, name.text, aid, sim_->now());
    } else {
      recorder_->Span(pid_, track.text, name.text, start, sim_->now() - start);
    }
  }
  if (request < 0) {
    return -1;
  }
  if (!transfer) {
    return causal_->AddNode(request, kind, name.id, track.id, start, sim_->now());
  }
  Fabric& fabric = fabric_->fabric();
  const CpNodeId node =
      causal_->AddNode(request, kind, name.id, track.id, start, sim_->now(), bytes,
                       fabric.SoloDuration(path, bytes, latency));
  // The route, the per-link overlap export the what-if replay rebuilds its
  // fabric from.
  CpPath hops;
  for (const LinkId l : path) {
    DP_CHECK(Idx(l) < link_label_.size());
    hops.push_back(CpHop{link_label_[Idx(l)], fabric.link_capacity(l)});
  }
  causal_->SetNodePath(node, hops);
  return node;
}

void Engine::RunCold(const Model& model, const ExecutionPlan& plan, GpuId primary,
                     const std::vector<GpuId>& secondaries, const ColdRunOptions& options,
                     std::function<void(const InferenceResult&)> done) {
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
  run->engine = this;
  run->start = sim_->now();
  run->primary = primary;
  run->pipelined = options.pipelined;
  run->bulk_migration = options.migration == MigrationMode::kBulk;
  run->done = std::move(done);
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
    run->load_track.resize(parts);
    run->migration_track.resize(parts);
    run->part_gpu.resize(parts);
    run->part_items.resize(parts);
  }
  for (ItemList& items : run->part_items) {
    items.size = 0;
  }
  for (std::size_t p = 0; p < parts; ++p) {
    run->part_gpu[p] = p == 0 ? primary : secondaries[p - 1];
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
  // Op names are consumed only by the trace recorder and the causal graph;
  // skip them entirely when neither is active for this run (the serving hot
  // path). A run that records causal nodes interns its stream names here and
  // its op names in NameOps, so its markers hand the graph ids.
  run->observed = recorder_ != nullptr || run->causal_request >= 0;
  const bool causal = run->causal_request >= 0;
  if (causal) {
    run->exec_track = causal_->Intern(run->exec.name());
  }
  if (run->observed && run->exec_steps.size() < n) {
    run->exec_steps.resize(n);
  }

  for (std::size_t i = 0; i < n; ++i) {
    const Layer& layer = model.layer(i);
    if (plan.method(i) == ExecMethod::kLoad && layer.has_params()) {
      const int p = plan.partition(i);
      ItemList& items = run->part_items[Idx(p)];
      const int group = options.transfer_group_layers;
      if (items.size > 0 && static_cast<int>(items.back().layer_indices.size()) < group) {
        LoadItem& item = items.back();
        item.layer_indices.push_back(i);
        item.bytes += layer.param_bytes;
      } else {
        LoadItem& item = items.Add();
        item.run = run;
        item.partition = p;
        item.index = items.size - 1;
        item.layer_indices.assign(1, i);
        item.bytes = layer.param_bytes;
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
  if (run->observed) {
    NameOps(run, model, plan);
  }

  // PCIe load streams: one per partition, each through its own GPU's PCIe
  // lane (primary for partition 0, secondaries for the rest). The
  // per-transfer DMA-setup overhead is the fabric latency term, so it
  // serializes into the stream exactly as back-to-back cudaMemcpyAsync calls.
  // After each transfer a marker lands its layers: on the primary they are
  // ready to execute, on a secondary they are ready to migrate.
  const Nanos pcie_overhead = perf_->calibration().pcie_transfer_overhead;
  for (std::size_t p = 0; p < parts; ++p) {
    ItemList& items = run->part_items[p];
    if (items.size == 0) {
      continue;
    }
    const GpuId target = run->part_gpu[p];
    run->result.partitions[p].pcie_start = 0;
    Stream* load = &run->load[p];
    load->Reset(sim_, "pcie/gpu" + std::to_string(target));
    if (causal) {
      run->load_track[p] = causal_->Intern(load->name());
    }
    const LinkPath route = fabric_->HostToGpuPath(target);
    for (std::size_t k = 0; k < items.size; ++k) {
      load->EnqueueTransfer(&fabric_->fabric(), route, items.items[k].bytes, pcie_overhead);
      load->EnqueueMarker(MakeAction<&LoadItem::Loaded>(&items.items[k]));
    }
  }

  // NVLink migration: forward partitions > 0 from their secondary GPU to the
  // primary. Pipelined mode forwards each load item as soon as it lands
  // (parallel-pipeline); bulk mode forwards the whole partition as one item
  // once all of it has landed.
  const NvlinkSpec& nvlink = fabric_->topology().nvlink();
  for (std::size_t p = 1; p < parts; ++p) {
    ItemList& items = run->part_items[p];
    if (items.size == 0) {
      continue;
    }
    const GpuId src = run->part_gpu[p];
    Stream* mig = &run->migration[p];
    mig->Reset(sim_, "nvlink/" + std::to_string(src) + "->" + std::to_string(primary));
    if (causal) {
      run->migration_track[p] = causal_->Intern(mig->name());
    }
    const LinkPath route = fabric_->GpuToGpuPath(src, primary);
    const std::size_t span = run->bulk_migration ? items.size : 1;
    for (std::size_t first = 0; first < items.size; first += span) {
      std::int64_t bytes = 0;
      for (std::size_t k = first; k < first + span; ++k) {
        for (const std::size_t li : items.items[k].layer_indices) {
          mig->EnqueueWait(&run->at_secondary[li]);
        }
        bytes += items.items[k].bytes;
      }
      mig->EnqueueTransfer(&fabric_->fabric(), route, bytes, nvlink.transfer_latency);
      mig->EnqueueMarker(MakeAction<&LoadItem::Migrated>(&items.items[first], span));
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
    ExecStep& step = run->exec_steps[i];
    step.duration = exec;
    step.dha_pcie = dha ? perf_->DhaPcieTime(layer, options.batch) : 0;
    step.loads = loads;
    run->exec.EnqueueMarker(MakeAction<&ColdRun::Executed>(run, i));
  }
  run->exec.EnqueueMarker(MakeAction<&ColdRun::Finish>(run));
}

void Engine::NameOps(ColdRun* run, const Model& model, const ExecutionPlan& plan) {
  const bool causal = run->causal_request >= 0;
  const bool current = causal && run->labels_epoch == causal_epoch_;
  std::string& text = scratch_->name;
  // Gives an op the name in `text`: a pooled record keeps its names and
  // labels from run to run, so the graph is asked only for a name that
  // changed or whose label is an id in no current graph.
  const auto name_op = [&](std::string* name, CpStrId* label) {
    const bool changed = *name != text;
    if (changed) {
      name->swap(text);
    }
    if (causal && (changed || !current)) {
      *label = causal_->Intern(*name);
    }
  };
  for (std::size_t p = 0; p < run->part_items.size(); ++p) {
    ItemList& items = run->part_items[p];
    for (std::size_t k = 0; k < items.size; ++k) {
      LoadItem& item = items.items[k];
      // The item's layers, as "<layer>[+<layer>...]" after `prefix`.
      const auto layers = [&](const char* prefix) {
        text.assign(prefix);
        for (const std::size_t li : item.layer_indices) {
          if (li != item.layer_indices.front()) {
            text += '+';
          }
          text += model.layer(li).name;
        }
      };
      layers("load ");
      name_op(&item.load_name, &item.load_label);
      if (p == 0 || (run->bulk_migration && k > 0)) {
        continue;  // no migration op of its own
      }
      if (run->bulk_migration) {
        text.assign("migrate bulk p").append(std::to_string(p));
      } else {
        layers("migrate ");
      }
      name_op(&item.migrate_name, &item.migrate_label);
    }
  }
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    const bool dha = plan.method(i) == ExecMethod::kDirectHostAccess;
    text.assign(dha ? "exec(DHA) " : "exec ").append(model.layer(i).name);
    name_op(&run->exec_steps[i].name, &run->exec_steps[i].label);
  }
  run->labels_epoch = causal ? causal_epoch_ : 0;
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

}  // namespace deepplan
