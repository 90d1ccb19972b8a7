// Serving simulation: run the multi-GPU inference server on a Poisson
// workload with any strategy and report the tail latency / goodput /
// cold-start profile — a configurable, single-command version of the paper's
// Figure 13 experiments.
//
//   ./build/examples/serving_sim --model=bert_base --strategy=pt_dha
//       --instances=180 --rate=100 --seconds=10 --slo_ms=100
#include <iostream>

#include "src/deepplan.h"

namespace {

deepplan::Strategy StrategyFromName(const std::string& name) {
  using deepplan::Strategy;
  if (name == "baseline") return Strategy::kBaseline;
  if (name == "pipeswitch") return Strategy::kPipeSwitch;
  if (name == "dha") return Strategy::kDeepPlanDha;
  if (name == "pt") return Strategy::kDeepPlanPt;
  if (name == "pt_dha") return Strategy::kDeepPlanPtDha;
  std::cerr << "unknown strategy '" << name
            << "' (use baseline|pipeswitch|dha|pt|pt_dha); defaulting to pt_dha\n";
  return Strategy::kDeepPlanPtDha;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace deepplan;

  Flags flags;
  flags.DefineString("model", "bert_base", "zoo model name");
  flags.DefineString("strategy", "pt_dha",
                     "baseline|pipeswitch|dha|pt|pt_dha");
  flags.DefinePositiveInt("instances", 140, "number of model instances");
  flags.DefinePositiveDouble("rate", 100.0, "offered load, requests/second");
  flags.DefinePositiveDouble("seconds", 10.0, "workload duration");
  flags.DefinePositiveDouble("slo_ms", 100.0, "latency SLO in milliseconds");
  flags.DefineInt("seed", 42, "workload seed");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }

  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  ServerOptions options;
  options.strategy = StrategyFromName(flags.GetString("strategy"));
  options.slo = Millis(flags.GetDouble("slo_ms"));

  Server server(topology, perf, options);
  const int type = server.RegisterModelType(ModelZoo::ByName(flags.GetString("model")));
  server.AddInstances(type, static_cast<int>(flags.GetInt("instances")));

  PoissonOptions w;
  w.rate_per_sec = flags.GetDouble("rate");
  w.num_instances = static_cast<int>(flags.GetInt("instances"));
  w.duration = Seconds(flags.GetDouble("seconds"));
  w.seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
  const Trace trace = GeneratePoissonTrace(w);

  std::cout << "Serving " << flags.GetInt("instances") << "x "
            << flags.GetString("model") << " with "
            << StrategyName(options.strategy) << " on " << topology.name() << " ("
            << trace.size() << " requests @ " << w.rate_per_sec << " rps)\n";
  const ServingMetrics m = server.Run(trace);

  std::cout << "\nresident after warmup: " << server.WarmCapacity() << " / "
            << server.num_instances() << " instances\n";
  Table table({"metric", "value"});
  table.AddRow({"requests", std::to_string(m.count())});
  table.AddRow({"mean latency", Table::Num(m.MeanLatencyMs(), 2) + " ms"});
  table.AddRow({"p50 latency", Table::Num(m.LatencyPercentileMs(50), 2) + " ms"});
  table.AddRow({"p99 latency", Table::Num(m.LatencyPercentileMs(99), 2) + " ms"});
  table.AddRow({"goodput (SLO " + Table::Num(flags.GetDouble("slo_ms"), 0) + "ms)",
                Table::Pct(m.Goodput(options.slo))});
  table.AddRow({"cold-start rate", Table::Pct(m.ColdStartRate())});
  table.Print(std::cout);
  return 0;
}
