// google-benchmark microbenchmarks for the simulation substrate: event-queue
// throughput (boxed lambdas and plain Actions), stream ops, fabric transfer
// scheduling alone and under contention, cold-run simulation with and
// without streaming causal-journal recording, the recording of one warm
// request, DPJL chunk decode and windowed what-if replay per recorded
// request, and workload generation. These bound the wall-clock cost of the
// serving experiments (Figures 13-15); each layer's ns/op reads on its own.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/scaling_common.h"
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

// A streaming causal journal, as journal_record records one: the graph
// retires each request into a writer on a temporary file, removed at the end.
class StreamingJournal {
 public:
  explicit StreamingJournal(const std::string& name)
      : path_((std::filesystem::temp_directory_path() / name).string()) {
    if (!writer_.Open(path_)) {
      std::fprintf(stderr, "cannot open %s\n", path_.c_str());
      std::abort();
    }
    graph_.AttachSink(&writer_);
    process_ = graph_.RegisterProcess("micro_sim");
  }
  ~StreamingJournal() {
    graph_.FlushOpenRequests();
    writer_.Finish();
    std::remove(path_.c_str());
  }

  CausalGraph& graph() { return graph_; }
  int process() const { return process_; }

 private:
  std::string path_;
  JournalWriter writer_;  // outlives the graph that streams into it
  CausalGraph graph_{/*enabled=*/true};
  int process_ = 0;
};

// One BERT-Base PT+DHA cold start per iteration on a simulator, fabric and
// engine kept across iterations, as a server keeps them, so every run after
// the first reuses a pooled cold-run record. With `journal` set, each cold
// start is one recorded request.
void ColdStartsBertBase(benchmark::State& state, StreamingJournal* journal) {
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  const Model model = ModelZoo::BertBase();
  ProfilerOptions opts;
  opts.noise_stddev = 0.0;
  const ModelProfile profile = Profiler(&perf, opts).Profile(model);
  const ExecutionPlan plan =
      MakeStrategyPlan(Strategy::kDeepPlanPtDha, profile, 2);
  Simulator sim;
  ServerFabric fabric(&sim, &topology);
  Engine engine(&sim, &fabric, &perf);
  CausalGraph* graph = journal != nullptr ? &journal->graph() : nullptr;
  engine.set_causal(graph);
  for (auto _ : state) {
    ColdRunOptions options;
    if (graph != nullptr) {
      options.causal_request = graph->BeginRequest(journal->process(), 0, sim.now());
    }
    InferenceResult result;
    engine.RunCold(model, plan, 0, {2}, options,
                   [&result](const InferenceResult& r) { result = r; });
    sim.Run();
    if (graph != nullptr) {
      graph->EndRequest(options.causal_request, sim.now(), result.causal_terminal);
    }
  }
}

void BM_ColdRunBertBase(benchmark::State& state) { ColdStartsBertBase(state, nullptr); }
BENCHMARK(BM_ColdRunBertBase);

// The same cold starts recording every op into a streaming journal: the
// difference of the two rows is the recording cost of one cold start.
void BM_ColdRunBertBaseRecorded(benchmark::State& state) {
  StreamingJournal journal("micro_sim_cold_run.dpj");
  ColdStartsBertBase(state, &journal);
}
BENCHMARK(BM_ColdRunBertBaseRecorded);

// The recording calls the server makes for one warm request: its arrival,
// one exec node with a DHA share, one edge, and its retirement into the
// journal writer. A warm request costs nothing else to record.
void BM_RecordWarmRequest(benchmark::State& state) {
  StreamingJournal journal("micro_sim_warm.dpj");
  CausalGraph& graph = journal.graph();
  const CpStrId label = graph.Intern("warm i7");
  const CpStrId track = graph.Intern("exec/gpu0");
  Nanos now = 0;
  for (auto _ : state) {
    const int request = graph.BeginRequest(journal.process(), 7, now);
    const CpNodeId exec =
        graph.AddNode(request, CpKind::kExec, label, track, now, now + 1000);
    graph.SetNodeDhaPcie(exec, 300);
    graph.AddEdge(graph.arrival_node(request), exec);
    graph.EndRequest(request, now + 1000, exec);
    now += 1000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordWarmRequest);

// A small recorded journal: the synthetic scaling point (BERT-Base, PT+DHA,
// 120 rps) at 4,000 requests, streamed to a temporary file that is removed
// at the end.
class RecordedJournal {
 public:
  RecordedJournal()
      : path_((std::filesystem::temp_directory_path() / "micro_sim_replay.dpj").string()) {
    bench::ScalingPointOptions options;
    options.num_requests = 4000;
    options.journal_out = path_;
    if (!bench::RunScalingPoint(options).journaled) {
      std::fprintf(stderr, "cannot record %s\n", path_.c_str());
      std::abort();
    }
  }
  ~RecordedJournal() { std::remove(path_.c_str()); }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Decoding the recorded journal's chunks, per request: each iteration reads,
// CRC-checks and decodes every chunk into one reused JournalChunk, as a
// windowed replay does for each chunk it makes resident.
void BM_DecodeJournalRequest(benchmark::State& state) {
  const RecordedJournal recorded;
  JournalReader reader;
  if (!reader.Open(recorded.path())) {
    state.SkipWithError(reader.error().c_str());
    return;
  }
  JournalChunk chunk;
  std::vector<std::uint64_t> offsets;
  std::size_t requests = 0;
  for (std::uint64_t offset = reader.next_offset();
       reader.Next(&chunk) == JournalReadStatus::kChunk; offset = reader.next_offset()) {
    offsets.push_back(offset);
    requests += chunk.requests.size();
  }
  const std::uint64_t processes = reader.num_processes();
  for (auto _ : state) {
    for (const std::uint64_t offset : offsets) {
      if (!reader.ReadChunkAt(offset, processes, &chunk)) {
        state.SkipWithError(reader.error().c_str());
        return;
      }
    }
    benchmark::DoNotOptimize(chunk.nodes.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(requests));
}
BENCHMARK(BM_DecodeJournalRequest);

// One identity what-if replay of the recorded journal, per request: chunk
// decode, the replayed fabric and event queue, and the replay's bookkeeping.
void BM_WindowedReplayRequest(benchmark::State& state) {
  const RecordedJournal recorded;
  WindowedJournal journal;
  std::string error;
  if (!journal.Open(recorded.path(), &error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  WhatIfExperiment identity;
  identity.name = "baseline";
  for (auto _ : state) {
    benchmark::DoNotOptimize(journal.Replay(identity));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(journal.requests().size()));
}
BENCHMARK(BM_WindowedReplayRequest)->Unit(benchmark::kMillisecond);

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
