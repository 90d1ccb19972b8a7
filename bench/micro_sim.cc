// google-benchmark microbenchmarks for the simulation substrate: event-queue
// throughput (boxed lambdas and plain Actions), stream ops, fabric transfer
// scheduling alone and under contention, cold-run simulation, and workload
// generation. These bound the wall-clock cost of the serving experiments
// (Figures 13-15); each layer's ns/op reads on its own.
#include <benchmark/benchmark.h>

#include "src/deepplan.h"
#include "src/sim/stream.h"

namespace deepplan {
namespace {

void BM_EventQueueScheduleFire(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.ScheduleAfter(i, [] {});
    }
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleFire);

// The same 1000 events as plain Actions, the record the simulator's hot paths
// schedule: the lambda case above minus boxing.
struct FireCounter {
  std::int64_t fired = 0;
  void Fire() { ++fired; }
};

void BM_ScheduleActionFire(benchmark::State& state) {
  FireCounter counter;
  for (auto _ : state) {
    Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.ScheduleAfter(i, MakeAction<&FireCounter::Fire>(&counter));
    }
    sim.Run();
  }
  benchmark::DoNotOptimize(counter.fired);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ScheduleActionFire);

// One stream op: 1000 back-to-back Delay ops, each one event.
void BM_StreamDelayOps(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    Stream stream(&sim, "exec");
    for (int i = 0; i < 1000; ++i) {
      stream.EnqueueDelay(10);
    }
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_StreamDelayOps);

// One uncontended transfer: each of 1000 starts from the previous one's
// completion on a two-link route, so every Start and drain re-solves a
// single-transfer component and schedules its completion and latency tail.
struct TransferChain {
  Fabric* fabric;
  LinkPath route;
  int left = 1000;
  void Next() {
    if (left-- > 0) {
      fabric->Start(route, 1'000'000, 1000, MakeTransferDone<&TransferChain::Next>(this));
    }
  }
};

void BM_FabricStartComplete(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    Fabric fabric(&sim);
    const LinkId uplink = fabric.AddLink("uplink", 12e9);
    const LinkId lane = fabric.AddLink("lane", 12e9);
    TransferChain chain{&fabric, {uplink, lane}};
    chain.Next();
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_FabricStartComplete);

void BM_FabricContendedTransfers(benchmark::State& state) {
  const int transfers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    Fabric fabric(&sim);
    const LinkId uplink = fabric.AddLink("uplink", 12e9);
    const LinkId a = fabric.AddLink("a", 12e9);
    const LinkId b = fabric.AddLink("b", 12e9);
    for (int i = 0; i < transfers; ++i) {
      fabric.Start({uplink, i % 2 == 0 ? a : b}, 1'000'000, 0);
    }
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * transfers);
}
BENCHMARK(BM_FabricContendedTransfers)->Arg(4)->Arg(16)->Arg(64);

void BM_ColdRunBertBase(benchmark::State& state) {
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  const Model model = ModelZoo::BertBase();
  ProfilerOptions opts;
  opts.noise_stddev = 0.0;
  const ModelProfile profile = Profiler(&perf, opts).Profile(model);
  const ExecutionPlan plan =
      MakeStrategyPlan(Strategy::kDeepPlanPtDha, profile, 2);
  for (auto _ : state) {
    Simulator sim;
    ServerFabric fabric(&sim, &topology);
    Engine engine(&sim, &fabric, &perf);
    engine.RunCold(model, plan, 0, {2}, ColdRunOptions{}, [](const InferenceResult&) {});
    sim.Run();
  }
}
BENCHMARK(BM_ColdRunBertBase);

void BM_PoissonTraceGeneration(benchmark::State& state) {
  PoissonOptions opts;
  opts.rate_per_sec = 1000;
  opts.duration = Seconds(10);
  opts.num_instances = 100;
  for (auto _ : state) {
    opts.seed++;
    benchmark::DoNotOptimize(GeneratePoissonTrace(opts));
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_PoissonTraceGeneration);

void BM_AzureTraceGeneration(benchmark::State& state) {
  AzureTraceOptions opts;
  opts.target_rate_per_sec = 150;
  opts.duration = Seconds(60);
  opts.num_instances = 90;
  for (auto _ : state) {
    opts.seed++;
    benchmark::DoNotOptimize(GenerateAzureTrace(opts));
  }
}
BENCHMARK(BM_AzureTraceGeneration);

void BM_ServingThousandRequests(benchmark::State& state) {
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  for (auto _ : state) {
    ServerOptions options;
    options.strategy = Strategy::kDeepPlanPtDha;
    Server server(topology, perf, options);
    const int type = server.RegisterModelType(ModelZoo::BertBase());
    server.AddInstances(type, 140);
    PoissonOptions w;
    w.rate_per_sec = 100;
    w.num_instances = 140;
    w.duration = Seconds(10);
    benchmark::DoNotOptimize(server.Run(GeneratePoissonTrace(w)));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ServingThousandRequests)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace deepplan
