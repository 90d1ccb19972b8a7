// Figure 14: 99% latency vs concurrency for BERT-Large (30 rps) and GPT-2
// (90 rps) under PipeSwitch, DeepPlan (DHA), and DeepPlan (PT+DHA).
//
// Paper shape: DeepPlan improves tail latency significantly; for GPT-2 the
// DHA and PT+DHA curves nearly coincide (PT has little to add, Figure 11).
#include <iostream>

#include "bench/bench_util.h"

namespace {

using namespace deepplan;

double P99Point(const Model& model, Strategy strategy, int concurrency, double rate,
                int requests) {
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  ServerOptions options;
  options.strategy = strategy;
  options.slo = Millis(200);
  Server server(topology, perf, options);
  const int type = server.RegisterModelType(model);
  server.AddInstances(type, concurrency);
  PoissonOptions w;
  w.rate_per_sec = rate;
  w.num_instances = concurrency;
  w.duration = Seconds(static_cast<double>(requests) / rate);
  w.seed = 7;
  return server.Run(GeneratePoissonTrace(w)).LatencyPercentileMs(99);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.DefinePositiveInt("requests", 600, "requests per point");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  const int requests = static_cast<int>(flags.GetInt("requests"));

  struct Config {
    const char* model;
    double rate;
    std::vector<int> concurrency;
  };
  const std::vector<Config> configs = {
      {"bert_large", 30.0, {10, 20, 30, 40, 50, 60}},
      {"gpt2", 90.0, {20, 40, 60, 80, 100, 120}},
  };
  for (const Config& config : configs) {
    const Model model = ModelZoo::ByName(config.model);
    std::cout << "Figure 14: 99% latency (ms), "
              << deepplan::bench::PrettyModelName(config.model) << " at "
              << config.rate << " rps\n\n";
    Table table({"instances", "PipeSwitch", "DeepPlan (DHA)", "DeepPlan (PT+DHA)"});
    for (const int c : config.concurrency) {
      table.AddRow(
          {std::to_string(c),
           Table::Num(P99Point(model, Strategy::kPipeSwitch, c, config.rate, requests), 1),
           Table::Num(P99Point(model, Strategy::kDeepPlanDha, c, config.rate, requests), 1),
           Table::Num(
               P99Point(model, Strategy::kDeepPlanPtDha, c, config.rate, requests),
               1)});
    }
    table.Print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Paper reference: DeepPlan cuts p99 well below PipeSwitch; "
               "for GPT-2, DHA and PT+DHA are nearly indistinguishable.\n";
  return 0;
}
