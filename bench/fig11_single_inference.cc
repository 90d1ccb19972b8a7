// Figure 11: single cold inference (batch 1) — relative speedup of
// PipeSwitch, DeepPlan (DHA), DeepPlan (PT), and DeepPlan (PT+DHA) over
// Baseline, averaged over 100 runs, for all eight models on 4x V100.
//
// Paper shape: DHA beats PipeSwitch by 1.01-1.43x; PT+DHA reaches 1.94x
// (BERT-Base) and 2.21x (RoBERTa-Base) over PipeSwitch.
#include <iostream>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace deepplan;
  using namespace deepplan::bench;

  Flags flags;
  flags.DefinePositiveInt("runs", 100, "repetitions per (model, strategy)");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  const int runs = static_cast<int>(flags.GetInt("runs"));

  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  const SweepRunner runner;
  BenchReport report("fig11_single_inference", runner.jobs());
  report.config().Set("topology", topology.name()).Set("runs", runs).Set("batch", 1);

  std::cout << "Figure 11: cold single-inference latency and speedup vs "
               "Baseline (batch 1, " << runs << " runs)\n\n";
  Table table({"model", "Baseline", "PipeSwitch", "DHA", "PT", "PT+DHA",
               "PipeSwitch x", "DHA x", "PT x", "PT+DHA x", "PT+DHA/PipeSwitch"});
  for (const Model& model : ModelZoo::PaperModels()) {
    double ms[5];
    int i = 0;
    for (const Strategy s : AllStrategies()) {
      ms[i] = MeanColdLatencyMs(topology, perf, model, s, runs, 1, runner);
      report.AddPoint()
          .Set("model", model.name())
          .Set("strategy", StrategyName(s))
          .Set("mean_cold_ms", ms[i]);
      ++i;
    }
    table.AddRow({PrettyModelName(model.name()), Table::Num(ms[0], 2),
                  Table::Num(ms[1], 2), Table::Num(ms[2], 2), Table::Num(ms[3], 2),
                  Table::Num(ms[4], 2), Table::Num(ms[0] / ms[1], 2) + "x",
                  Table::Num(ms[0] / ms[2], 2) + "x",
                  Table::Num(ms[0] / ms[3], 2) + "x",
                  Table::Num(ms[0] / ms[4], 2) + "x",
                  Table::Num(ms[1] / ms[4], 2) + "x"});
  }
  table.Print(std::cout);
  std::cout << "\nPaper reference (PT+DHA over PipeSwitch): BERT-Base 1.94x, "
               "RoBERTa-Base 2.21x, overall 1.18-2.21x.\n";
  report.Write(&std::cerr);
  return 0;
}
