// Trace replay: generate (or load) an Azure-Functions-like arrival trace,
// save it to CSV, and replay it against the serving system — the paper's
// Section 5.3.2 workflow. Use --trace to replay a real MAF-derived CSV
// ("<time_ns>,<instance>" rows).
//
//   ./build/examples/trace_replay --minutes=5 --rate=120 --save=trace.csv
//   ./build/examples/trace_replay --trace=trace.csv --strategy=pipeswitch
#include <iostream>

#include "src/deepplan.h"

int main(int argc, char** argv) {
  using namespace deepplan;

  Flags flags;
  flags.DefineString("trace", "", "CSV trace to replay (empty = synthesize)");
  flags.DefineString("save", "", "save the synthesized trace to this CSV");
  flags.DefinePositiveInt("minutes", 5, "synthesized trace length");
  flags.DefinePositiveDouble("rate", 120.0, "target request rate (requests/second)");
  flags.DefinePositiveInt("instances", 135, "model instances (BERT:RoBERTa:GPT-2 = 4:4:1)");
  flags.DefineString("strategy", "pt_dha", "baseline|pipeswitch|dha|pt|pt_dha");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  const int instances = static_cast<int>(flags.GetInt("instances"));

  Trace trace;
  if (!flags.GetString("trace").empty()) {
    std::string error;
    auto loaded = Trace::LoadFrom(flags.GetString("trace"), instances, &error);
    if (!loaded.has_value()) {
      std::cerr << "cannot load trace: " << error << "\n";
      return 1;
    }
    trace = std::move(*loaded);
    std::cout << "loaded " << trace.size() << " arrivals from "
              << flags.GetString("trace") << "\n";
  } else {
    AzureTraceOptions w;
    w.num_instances = instances;
    w.duration = Seconds(60.0 * static_cast<double>(flags.GetInt("minutes")));
    w.target_rate_per_sec = flags.GetDouble("rate");
    trace = GenerateAzureTrace(w);
    std::cout << "synthesized MAF-like trace: " << trace.size() << " arrivals, "
              << Table::Num(trace.MeanRate(), 1) << " rps mean\n";
    if (!flags.GetString("save").empty()) {
      if (trace.SaveTo(flags.GetString("save"))) {
        std::cout << "saved to " << flags.GetString("save") << "\n";
      }
    }
  }

  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  ServerOptions options;
  const std::string strategy = flags.GetString("strategy");
  options.strategy = strategy == "baseline"     ? Strategy::kBaseline
                     : strategy == "pipeswitch" ? Strategy::kPipeSwitch
                     : strategy == "dha"        ? Strategy::kDeepPlanDha
                     : strategy == "pt"         ? Strategy::kDeepPlanPt
                                                : Strategy::kDeepPlanPtDha;
  Server server(topology, perf, options);
  const int bert = server.RegisterModelType(ModelZoo::BertBase());
  const int roberta = server.RegisterModelType(ModelZoo::RobertaBase());
  const int gpt2 = server.RegisterModelType(ModelZoo::Gpt2());
  const int unit = instances / 9;
  server.AddInstances(bert, 4 * unit);
  server.AddInstances(roberta, 4 * unit);
  server.AddInstances(gpt2, instances - 8 * unit);

  const ServingMetrics m = server.Run(trace);
  const MinuteSeries series = m.PerMinute(Millis(100));

  std::cout << "\n" << StrategyName(options.strategy) << " on " << topology.name()
            << ": p99 " << Table::Num(m.LatencyPercentileMs(99), 1) << " ms, goodput "
            << Table::Pct(m.Goodput(Millis(100))) << ", cold-starts "
            << m.ColdStartCount() << "\n\n";
  Table table({"minute", "requests", "p99 (ms)", "goodput", "cold starts"});
  for (std::size_t minute = 0; minute < series.requests.size(); ++minute) {
    table.AddRow({std::to_string(minute), std::to_string(series.requests[minute]),
                  Table::Num(series.p99_ms[minute], 1),
                  Table::Pct(series.goodput[minute]),
                  std::to_string(series.cold_starts[minute])});
  }
  table.Print(std::cout);
  return 0;
}
