#include "src/serving/server.h"

#include <algorithm>
#include <utility>

#include "src/core/profiler.h"
#include "src/core/transmission.h"
#include "src/obs/selfprof.h"
#include "src/util/index.h"
#include "src/util/logging.h"

namespace deepplan {

namespace {

// Fixed cost of unloading one evicted instance (stream teardown + free).
constexpr Nanos kEvictionCost = Micros(200);
// Seed of the noisy profiling run behind each registered model's plan.
constexpr std::uint64_t kProfilerSeed = 42;

// Feeds Server::Run's trace to the server one arrival at a time. Arrival i
// fires at the sequence number reserved for it, first_seq + i, so the pop
// order is the one of queueing the whole trace up front; but arrival i + 1
// is queued only when arrival i fires, so the queue holds one pending arrival
// instead of one per request.
struct ArrivalFeed {
  Simulator* sim;
  Server* server;
  const std::vector<Arrival>* arrivals;
  std::uint64_t first_seq;

  void Schedule(std::uint64_t i) {
    sim->ScheduleReserved((*arrivals)[i].time, first_seq + i,
                          MakeAction<&ArrivalFeed::Fire>(this, i));
  }
  // Event: arrival i is due; the next one is queued first.
  void Fire(std::uint64_t i) {
    if (i + 1 < arrivals->size()) {
      Schedule(i + 1);
    }
    server->Submit((*arrivals)[i].instance);
  }
};

}  // namespace

struct Server::ModelEntry {
  Model model;
  ModelProfile profile;
  ExecutionPlan plan;
  std::int64_t footprint = 0;
  // Warm-path constants, cached at registration: WarmDuration and
  // WarmDhaPcieTime are pure functions of (model, plan, batch), and the batch
  // is fixed per server, so re-summing every layer on every warm hit (the
  // serving hot path) is pure waste.
  Nanos warm_duration = 0;
  Nanos warm_dha_pcie = 0;
  // Per primary GPU, the secondaries a multi-partition plan loads through:
  // chosen at the first cold start on that GPU (empty until then).
  std::vector<std::vector<GpuId>> secondaries;
};

struct PendingRequest {
  int instance = -1;
  Nanos arrival = 0;
  int causal = -1;  // causal-graph request id (-1 when profiling is off)
};

// The request a GPU is serving. A GPU runs one request at a time, so its
// completion events carry only the GPU id and read the rest from here.
struct InFlight {
  PendingRequest req;
  Nanos start = 0;
  Nanos evict_delay = 0;
  int num_evicted = 0;
};

struct Server::Impl {
  Topology topology;
  PerfModel perf;
  ServerOptions options;

  Simulator own_sim;
  Simulator* sim = nullptr;  // &own_sim unless an external simulator is shared
  std::unique_ptr<ServerFabric> fabric;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<InstanceManager> instances;

  std::vector<ModelEntry> models;
  std::vector<int> instance_model;  // instance id -> model type
  std::vector<std::deque<PendingRequest>> queues;  // per GPU
  std::vector<bool> gpu_busy;
  std::vector<InFlight> running;  // per GPU, valid while gpu_busy
  int next_gpu = 0;  // round-robin placement cursor
  std::vector<int> evicted;  // a cold start's victims; storage reused
  bool warmed_up = false;

  ServingMetrics metrics;

  CausalGraph* causal = nullptr;
  int causal_process = 0;
  // Names in `causal`, interned once per attached graph: per GPU its exec
  // track and its evict resource, and per instance its warm-request label
  // (0 until the instance first finishes a warm request).
  std::vector<CpStrId> causal_exec_track;
  std::vector<CpStrId> causal_gpu;
  std::vector<CpStrId> causal_warm_label;
  // Requests retired so far, surfaced to the simulator's DEEPPLAN_PROGRESS
  // heartbeat (registered below, removed in ~Impl).
  std::uint64_t retired = 0;

  Impl(Simulator* external_sim, const Topology& topo, const PerfModel& perf_model,
       ServerOptions opts)
      : topology(topo), perf(perf_model), options(opts) {
    sim = external_sim != nullptr ? external_sim : &own_sim;
    fabric = std::make_unique<ServerFabric>(sim, &topology);
    engine = std::make_unique<Engine>(sim, fabric.get(), &perf);
    instances = std::make_unique<InstanceManager>(
        topology.num_gpus(), options.usable_bytes_per_gpu, options.eviction_policy);
    queues.resize(Idx(topology.num_gpus()));
    gpu_busy.assign(Idx(topology.num_gpus()), false);
    running.resize(Idx(topology.num_gpus()));
    sim->AddProgressCounter(&retired);
  }

  ~Impl() {
    // An external simulator outlives this server (existing contract); for the
    // owned one, members are still alive while this body runs.
    sim->RemoveProgressCounter(&retired);
  }

  void Dispatch(GpuId gpu);
  // Event actions (arg = GPU): the warm inference finished; the eviction
  // delay elapsed and the cold start begins.
  void FinishWarm(std::uint64_t gpu);
  void StartCold(std::uint64_t gpu);
  void FinishRequest(GpuId gpu, int instance, const PendingRequest& req, Nanos start,
                     bool cold, Nanos evict_delay, Nanos load_done, int num_evicted);
  CpStrId WarmLabel(int instance);
  const std::vector<GpuId>& Secondaries(ModelEntry& entry, GpuId primary);
};

Server::Server(const Topology& topology, const PerfModel& perf, ServerOptions options)
    : impl_(std::make_unique<Impl>(nullptr, topology, perf, options)) {}

Server::Server(Simulator* sim, const Topology& topology, const PerfModel& perf,
               ServerOptions options)
    : impl_(std::make_unique<Impl>(sim, topology, perf, options)) {}

Server::~Server() = default;

int Server::RegisterModelType(Model model) {
  Impl& s = *impl_;
  ModelEntry entry;
  ProfilerOptions popts;
  popts.batch = s.options.batch;
  popts.seed = kProfilerSeed;
  Profiler profiler(&s.perf, popts);
  entry.profile = profiler.Profile(model);
  PipelineOptions pipeline;
  pipeline.nvlink = s.topology.nvlink();
  // Degree is topology-wide here; per-primary secondaries resolved at
  // dispatch time.
  const int degree = StrategyDegree(s.options.strategy, s.topology, /*primary=*/0);
  entry.plan = MakeStrategyPlan(s.options.strategy, entry.profile, degree, pipeline);
  entry.footprint = entry.plan.GpuResidentBytes(entry.profile);
  entry.model = std::move(model);
  entry.warm_duration =
      s.engine->WarmDuration(entry.model, entry.plan, s.options.batch);
  entry.warm_dha_pcie =
      s.engine->WarmDhaPcieTime(entry.model, entry.plan, s.options.batch);
  entry.secondaries.resize(Idx(s.topology.num_gpus()));
  s.models.push_back(std::move(entry));
  return static_cast<int>(s.models.size() - 1);
}

void Server::AddInstances(int model_type, int count) {
  Impl& s = *impl_;
  DP_CHECK(model_type >= 0 && model_type < static_cast<int>(s.models.size()));
  const ModelEntry& entry = s.models[Idx(model_type)];
  for (int i = 0; i < count; ++i) {
    const int id = s.instances->AddInstance(model_type, s.next_gpu, entry.footprint);
    s.instance_model.resize(Idx(id + 1));
    s.instance_model[Idx(id)] = model_type;
    s.next_gpu = (s.next_gpu + 1) % s.topology.num_gpus();
  }
}

int Server::num_instances() const { return impl_->instances->num_instances(); }

int Server::WarmCapacity() const { return impl_->instances->ResidentCount(); }

CpStrId Server::Impl::WarmLabel(int instance) {
  if (Idx(instance) >= causal_warm_label.size()) {
    causal_warm_label.resize(Idx(instances->num_instances()), 0);
  }
  CpStrId& label = causal_warm_label[Idx(instance)];
  if (label == 0) {
    label = causal->Intern("warm i" + std::to_string(instance));
  }
  return label;
}

void Server::Impl::FinishRequest(GpuId gpu, int instance, const PendingRequest& req,
                                 Nanos start, bool cold, Nanos evict_delay,
                                 Nanos load_done, int num_evicted) {
  instances->SetBusy(instance, false);
  instances->MarkUsed(instance, sim->now());
  RequestRecord record;
  record.arrival = req.arrival;
  record.start = start;
  record.completion = sim->now();
  record.instance = instance;
  record.cold = cold;
  record.evict = evict_delay;
  record.load = load_done;
  record.evictions = num_evicted;
  metrics.Record(record);
  ++retired;
  if (causal != nullptr && req.causal >= 0) {
    if (!cold) {
      // Warm requests never enter the engine's cold path; their whole DAG is
      // arrival -> one exec node. DHA plans stream parameters during warm
      // execution too; the node records the PCIe-bandwidth-dependent share
      // for the what-if engine.
      const ModelEntry& entry = models[Idx(instance_model[Idx(instance)])];
      causal->AddNode(req.causal,
                      {.kind = CpKind::kExec,
                       .label = WarmLabel(instance),
                       .resource = causal_exec_track[Idx(gpu)],
                       .start = start,
                       .end = sim->now(),
                       .dha_pcie = entry.warm_dha_pcie},
                      {causal->last_node(req.causal)});
    }
    // A request ends at its last recorded node: the warm exec node, or the
    // cold run's last layer execution.
    causal->EndRequest(req.causal, sim->now());
  }
  gpu_busy[Idx(gpu)] = false;
  Dispatch(gpu);
}

void Server::Impl::Dispatch(GpuId gpu) {
  if (gpu_busy[Idx(gpu)] || queues[Idx(gpu)].empty()) {
    return;
  }
  const PendingRequest req = queues[Idx(gpu)].front();
  queues[Idx(gpu)].pop_front();
  gpu_busy[Idx(gpu)] = true;

  const int instance = req.instance;
  const ModelEntry& entry = models[Idx(instance_model[Idx(instance)])];
  const Nanos start = sim->now();
  instances->SetBusy(instance, true);

  InFlight& flight = running[Idx(gpu)];
  flight = InFlight{.req = req, .start = start};
  if (instances->instance(instance).resident) {
    instances->MarkUsed(instance, start);
    sim->ScheduleAfter(entry.warm_duration, MakeAction<&Impl::FinishWarm>(this, Idx(gpu)));
    return;
  }

  // Cold start: make room (LRU eviction), pay the eviction cost, then run the
  // strategy's provisioning + inference path.
  evicted.clear();
  const bool fits = instances->MakeResident(instance, start, &evicted);
  DP_CHECK(fits && "instance footprint exceeds GPU capacity");
  flight.num_evicted = static_cast<int>(evicted.size());
  flight.evict_delay = kEvictionCost * static_cast<Nanos>(evicted.size());
  if (causal != nullptr && req.causal >= 0) {
    causal->MarkCold(req.causal);
    if (flight.evict_delay > 0) {
      // Eviction spans [start, start + evict_delay] deterministically, so
      // the node can be recorded up front; the cold run hangs off it.
      causal->AddNode(
          req.causal,
          {.kind = CpKind::kEvict,
           .label = causal->Intern("evict x" + std::to_string(flight.num_evicted)),
           .resource = causal_gpu[Idx(gpu)],
           .start = start,
           .end = start + flight.evict_delay},
          {causal->last_node(req.causal)});
    }
  }
  sim->ScheduleAfter(flight.evict_delay, MakeAction<&Impl::StartCold>(this, Idx(gpu)));
}

void Server::Impl::FinishWarm(std::uint64_t gpu) {
  const InFlight flight = running[gpu];
  FinishRequest(static_cast<GpuId>(gpu), flight.req.instance, flight.req, flight.start,
                /*cold=*/false, /*evict_delay=*/0, /*load_done=*/0, /*num_evicted=*/0);
}

const std::vector<GpuId>& Server::Impl::Secondaries(ModelEntry& entry, GpuId primary) {
  std::vector<GpuId>& chosen = entry.secondaries[Idx(primary)];
  if (chosen.empty() && entry.plan.num_partitions() > 1) {
    chosen = TransmissionPlanner::ChooseSecondaries(topology, primary,
                                                    entry.plan.num_partitions());
  }
  return chosen;
}

void Server::Impl::StartCold(std::uint64_t gpu_arg) {
  const auto gpu = static_cast<GpuId>(gpu_arg);
  const InFlight& flight = running[gpu_arg];
  ModelEntry& entry = models[Idx(instance_model[Idx(flight.req.instance)])];
  ColdRunOptions cold_options = MakeColdRunOptions(options.strategy, options.batch);
  cold_options.causal_request = flight.req.causal;
  engine->RunCold(entry.model, entry.plan, gpu, Secondaries(entry, gpu), cold_options,
                  [this, gpu](const InferenceResult& result) {
                    const InFlight done = running[Idx(gpu)];
                    FinishRequest(gpu, done.req.instance, done.req, done.start,
                                  /*cold=*/true, done.evict_delay, result.load_done,
                                  done.num_evicted);
                  });
}

void Server::Warmup() {
  DP_SELFPROF_SCOPE(kWarmup);
  Impl& s = *impl_;
  if (s.warmed_up) {
    return;
  }
  s.warmed_up = true;
  // Provision instances in id order (round-robin homes) until GPUs are full,
  // mirroring the paper's pre-warmed steady state.
  for (int id = 0; id < s.instances->num_instances(); ++id) {
    const InstanceState& inst = s.instances->instance(id);
    if (s.instances->used_bytes(inst.home_gpu) + inst.footprint <=
        s.instances->capacity_bytes()) {
      std::vector<int> evicted;
      const bool ok = s.instances->MakeResident(id, 0, &evicted);
      DP_CHECK(ok);
      DP_CHECK(evicted.empty());
    }
  }
}

void Server::Submit(int instance) {
  Impl& s = *impl_;
  DP_CHECK(instance >= 0 && instance < s.instances->num_instances());
  const GpuId gpu = s.instances->instance(instance).home_gpu;
  int causal_request = -1;
  if (s.causal != nullptr) {
    causal_request =
        s.causal->BeginRequest(s.causal_process, instance, s.sim->now());
  }
  s.queues[Idx(gpu)].push_back(
      PendingRequest{instance, s.sim->now(), causal_request});
  s.Dispatch(gpu);
}

void Server::set_telemetry(std::nullptr_t, MetricsRegistry* registry) {
  impl_->fabric->fabric().set_telemetry(nullptr, registry);
}

void Server::set_causal(CausalGraph* graph, int process) {
  Impl& s = *impl_;
  s.causal = graph;
  s.causal_process = process;
  s.causal_exec_track.clear();
  s.causal_gpu.clear();
  s.causal_warm_label.clear();
  if (graph != nullptr) {
    for (GpuId g = 0; g < s.topology.num_gpus(); ++g) {
      s.causal_exec_track.push_back(graph->Intern("exec/gpu" + std::to_string(g)));
      s.causal_gpu.push_back(graph->Intern("gpu" + std::to_string(g)));
    }
  }
  s.engine->set_causal(graph);
}

const ServingMetrics& Server::metrics() const { return impl_->metrics; }

ServingMetrics Server::Run(const Trace& trace) {
  Impl& s = *impl_;
  Warmup();
  for (const Arrival& a : trace.arrivals()) {
    DP_CHECK(a.instance >= 0 && a.instance < s.instances->num_instances());
  }
  ArrivalFeed feed{s.sim, this, &trace.arrivals(), s.sim->ReserveSeq(trace.size())};
  if (!trace.empty()) {
    feed.Schedule(0);
  }
  s.sim->Run();
  return std::move(s.metrics);
}

}  // namespace deepplan
