// Timeline export: run one cold start with a trace recorder attached to the
// engine and the fabric, and write a Chrome-trace JSON (open in
// chrome://tracing or ui.perfetto.dev). The resulting picture is the paper's
// Figure 9 — PCIe loads, NVLink migration, and execution overlapping across
// tracks, with per-link bandwidth counters — generated from an actual
// simulated run.
//
//   ./build/examples/timeline_export --model=bert_base --strategy=pt_dha
//       --out=timeline.json
#include <iostream>

#include "src/deepplan.h"

int main(int argc, char** argv) {
  using namespace deepplan;

  Flags flags;
  flags.DefineString("model", "bert_base", "zoo model name");
  flags.DefineString("strategy", "pt_dha", "baseline|pipeswitch|dha|pt|pt_dha");
  flags.DefineString("out", "timeline.json", "output Chrome-trace JSON path");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  const std::string strategy_name = flags.GetString("strategy");
  const Strategy strategy = strategy_name == "baseline"     ? Strategy::kBaseline
                            : strategy_name == "pipeswitch" ? Strategy::kPipeSwitch
                            : strategy_name == "dha"        ? Strategy::kDeepPlanDha
                            : strategy_name == "pt"         ? Strategy::kDeepPlanPt
                                                            : Strategy::kDeepPlanPtDha;

  const Model model = ModelZoo::ByName(flags.GetString("model"));
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  const ModelProfile profile = Profiler(&perf).Profile(model);
  const int degree = StrategyDegree(strategy, topology, 0);
  const ExecutionPlan plan = MakeStrategyPlan(strategy, profile, degree);

  Simulator sim;
  ServerFabric fabric(&sim, &topology);
  Engine engine(&sim, &fabric, &perf);
  TraceRecorder recorder;
  const int pid = recorder.RegisterProcess(StrategyName(strategy));
  engine.set_telemetry(&recorder, pid);
  fabric.fabric().set_telemetry(&recorder, nullptr, pid);
  InferenceResult result;
  engine.RunCold(model, plan, 0,
                 TransmissionPlanner::ChooseSecondaries(topology, 0, degree),
                 MakeColdRunOptions(strategy),
                 [&](const InferenceResult& r) { result = r; });
  sim.Run();

  if (!recorder.WriteTo(flags.GetString("out"))) {
    std::cerr << "failed to write " << flags.GetString("out") << "\n";
    return 1;
  }
  std::cout << StrategyName(strategy) << " cold start of " << model.name() << ": "
            << FormatDuration(result.latency) << " (" << recorder.size()
            << " trace events)\n"
            << "wrote " << flags.GetString("out")
            << " — open in chrome://tracing or ui.perfetto.dev\n";
  return 0;
}
