// Quickstart: profile a model, generate DeepPlan execution plans, and compare
// cold-start latency across all five strategies on a simulated 4x V100 server
// (AWS p3.8xlarge).
//
//   ./build/examples/quickstart [--model=bert_base] [--batch=1]
#include <cstdio>
#include <iostream>

#include "src/deepplan.h"

int main(int argc, char** argv) {
  using namespace deepplan;

  Flags flags;
  flags.DefineString("model", "bert_base",
                     "one of: resnet50 resnet101 bert_base bert_large roberta_base "
                     "roberta_large gpt2 gpt2_medium");
  flags.DefinePositiveInt("batch", 1, "inference batch size");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }

  // 1. Pick a model and a server.
  const Model model = ModelZoo::ByName(flags.GetString("model"));
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  const int batch = static_cast<int>(flags.GetInt("batch"));

  std::cout << "Model: " << model.name() << " (" << model.num_layers() << " layers, "
            << FormatBytes(model.total_param_bytes()) << ")\n";
  std::cout << "Server: " << topology.name() << " — " << topology.num_gpus() << "x "
            << topology.gpu().name << ", " << topology.pcie().name << "\n";
  std::cout << "Warm (in-GPU-memory) latency: "
            << FormatDuration(perf.WarmLatency(model, batch)) << "\n\n";

  // 2. One-time profiling pre-run (Figure 10, step 1).
  ProfilerOptions popts;
  popts.batch = batch;
  Profiler profiler(&perf, popts);
  const ModelProfile profile = profiler.Profile(model);

  // 3. Run every strategy's cold start and report latency.
  Table table({"strategy", "plan", "cold latency", "stall", "speedup vs baseline"});
  Nanos baseline_latency = 0;
  for (const Strategy strategy : AllStrategies()) {
    Simulator sim;
    ServerFabric fabric(&sim, &topology);
    Engine engine(&sim, &fabric, &perf);

    const int degree = StrategyDegree(strategy, topology, /*primary=*/0);
    PipelineOptions pipeline;
    pipeline.nvlink = topology.nvlink();
    const ExecutionPlan plan = MakeStrategyPlan(strategy, profile, degree, pipeline);
    const std::vector<GpuId> secondaries =
        TransmissionPlanner::ChooseSecondaries(topology, /*primary=*/0, degree);

    InferenceResult result;
    engine.RunCold(model, plan, /*primary=*/0, secondaries,
                   MakeColdRunOptions(strategy, batch),
                   [&](const InferenceResult& r) { result = r; });
    sim.Run();

    if (strategy == Strategy::kBaseline) {
      baseline_latency = result.latency;
    }
    const std::string plan_desc = std::to_string(plan.CountDha()) + " DHA / " +
                                  std::to_string(plan.num_partitions()) + " partitions";
    table.AddRow({StrategyName(strategy), plan_desc, FormatDuration(result.latency),
                  FormatDuration(result.stall),
                  Table::Num(static_cast<double>(baseline_latency) /
                                 static_cast<double>(result.latency),
                             2) +
                      "x"});
  }
  table.Print(std::cout);
  return 0;
}
