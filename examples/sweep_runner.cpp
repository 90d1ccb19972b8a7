// SweepRunner walkthrough: fan an experiment sweep out over host cores while
// keeping the aggregated output byte-identical for any thread count.
//
// The sweep here is the Figure-11-style question "mean cold latency of every
// paper model under PipeSwitch vs DeepPlan (PT+DHA)", repeated with noisy
// profiles. Each task is a pure function of its index — it builds its own
// Simulator/ServerFabric/Engine and seeds the profiler from the run number —
// so results land in task order no matter which worker finished first.
//
//   ./sweep_runner                  # all cores (or $DEEPPLAN_JOBS)
//   DEEPPLAN_JOBS=1 ./sweep_runner  # sequential escape hatch, same numbers
//   ./sweep_runner --jobs=8 --runs=50
#include <chrono>
#include <iostream>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace deepplan;
  using namespace deepplan::bench;

  Flags flags;
  flags.DefinePositiveInt("runs", 20, "noisy-profile repetitions per (model, strategy)");
  flags.DefineInt("jobs", 0, "worker threads (0 = DEEPPLAN_JOBS or all cores)");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  const int runs = static_cast<int>(flags.GetInt("runs"));
  const int jobs_flag = static_cast<int>(flags.GetInt("jobs"));
  const SweepRunner runner(jobs_flag > 0 ? jobs_flag : DefaultSweepJobs());

  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  const std::vector<Model> models = ModelZoo::PaperModels();
  const std::vector<Strategy> strategies = {Strategy::kPipeSwitch,
                                            Strategy::kDeepPlanPtDha};

  std::cout << "Sweeping " << models.size() << " models x " << strategies.size()
            << " strategies x " << runs << " runs on " << runner.jobs()
            << " worker thread(s)\n\n";

  // deepplan-lint: allow(raw-entropy, example prints wall-clock speedup; stdout demo only, no golden)
  const auto wall_start = std::chrono::steady_clock::now();

  // One task per (model, strategy) cell; each cell internally sweeps its
  // repetitions on the same runner. Results arrive in cell order.
  BenchReport report("sweep_runner_example", runner.jobs());
  report.config().Set("topology", topology.name()).Set("runs", runs);
  const int cells = static_cast<int>(models.size() * strategies.size());
  const std::vector<double> mean_ms = runner.Map(cells, [&](int i) {
    const Model& model = models[static_cast<std::size_t>(i) / strategies.size()];
    const Strategy strategy = strategies[static_cast<std::size_t>(i) % strategies.size()];
    return MeanColdLatencyMs(topology, perf, model, strategy, runs, 1,
                             SweepRunner(1));  // inner loop stays sequential
  });

  const double wall_ms = std::chrono::duration<double, std::milli>(
                             // deepplan-lint: allow(raw-entropy, example prints wall-clock speedup; stdout demo only, no golden)
                             std::chrono::steady_clock::now() - wall_start)
                             .count();

  Table table({"model", "PipeSwitch (ms)", "PT+DHA (ms)", "speedup"});
  for (std::size_t m = 0; m < models.size(); ++m) {
    const double pipeswitch = mean_ms[m * strategies.size()];
    const double ptdha = mean_ms[m * strategies.size() + 1];
    table.AddRow({PrettyModelName(models[m].name()), Table::Num(pipeswitch, 2),
                  Table::Num(ptdha, 2), Table::Num(pipeswitch / ptdha, 2) + "x"});
    report.AddPoint()
        .Set("model", models[m].name())
        .Set("pipeswitch_ms", pipeswitch)
        .Set("ptdha_ms", ptdha);
  }
  table.Print(std::cout);
  std::cout << "\nwall clock: " << Table::Num(wall_ms, 1) << " ms on "
            << runner.jobs() << " job(s) — rerun with DEEPPLAN_JOBS=1 to "
               "check the numbers above do not move\n";
  report.Write(&std::cerr);
  return 0;
}
