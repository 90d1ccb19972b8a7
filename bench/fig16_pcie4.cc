// Figure 16: single cold inference speedups (batch 1) on the second system —
// 2x NVIDIA RTX A5000 with NVLink on PCIe 4.0 — showing DeepPlan's plans
// regenerate for different hardware and keep their advantage.
//
// Paper shape: same improvement trend as Figure 11, with smaller absolute
// stalls thanks to PCIe 4.0 bandwidth.
//
// With --whatif_out=<path> (default: $DEEPPLAN_WHATIF) the bench additionally
// validates the what-if replay engine end to end: it journals every
// (model, strategy) cold start with the same box throttled to PCIe 3.0
// bandwidth, predicts the PCIe 4.0 latencies from that journal alone
// (pcie x bw4/bw3 virtual experiment, src/obs/whatif), re-simulates on the
// real PCIe 4.0 spec as ground truth, and DP_CHECKs every per-request
// prediction within 1% of the re-simulation. The {"whatif_report":...} JSON
// lands at <path> (lint with `trace_lint --whatif`).
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/util/logging.h"

namespace {

using namespace deepplan;
using namespace deepplan::bench;

constexpr Strategy kStrategies[] = {Strategy::kBaseline, Strategy::kPipeSwitch,
                                    Strategy::kDeepPlanDha,
                                    Strategy::kDeepPlanPtDha};

// Journals PCIe 3.0 cold starts, predicts PCIe 4.0 from the journal alone,
// and checks the predictions against re-simulated ground truth. Returns 0 on
// success (DP_CHECK aborts on a >1% miss, so failures are loud either way).
int ValidateWhatIf(const Topology& gen4, const PerfModel& perf4,
                   const std::string& whatif_out) {
  const Topology gen3 = gen4.WithPcieBandwidth(
      PcieSpec::Gen3().effective_bw_bytes_per_sec);
  const PerfModel perf3(gen3.gpu(), gen3.pcie());
  const double speedup = gen4.pcie().effective_bw_bytes_per_sec /
                         gen3.pcie().effective_bw_bytes_per_sec;

  // One process per (model, strategy): every cold run used its own
  // simulator/fabric, so each journals as an independent single-request
  // process.
  CausalGraph graph(/*enabled=*/true);
  std::vector<std::string> labels;
  std::vector<Nanos> truth;
  for (const Model& model : ModelZoo::PaperModels()) {
    // The plan is derived from the PCIe 3.0 profile in both runs — the
    // what-if question is "same deployment, faster links", not "replan for
    // new hardware".
    const ModelProfile profile3 = ExactProfile(perf3, model);
    for (const Strategy s : kStrategies) {
      const std::string label =
          PrettyModelName(model.name()) + " " + StrategyName(s);
      const int process = graph.RegisterProcess(label);
      RunColdWithProfile(gen3, perf3, model, s, profile3, /*batch=*/1, &graph,
                         process);
      truth.push_back(RunColdWithProfile(gen4, perf4, model, s, profile3)
                          .result.latency);
      labels.push_back(label);
    }
  }

  WhatIfExperiment exp;
  exp.pcie_scale = speedup;
  exp.name = "pcie=" + Json::Num(speedup);
  const WhatIfReport report = BuildWhatIfReport(graph, {exp});
  DP_CHECK(report.baseline_matches_journal);
  DP_CHECK(report.outcomes.size() == 1);
  DP_CHECK(report.outcomes[0].per_request.size() == truth.size());

  std::cout << "\nWhat-if validation: PCIe 4.0 predicted from the PCIe 3.0 "
               "journal (pcie x "
            << Table::Num(speedup, 3) << ") vs re-simulation\n\n";
  Table table({"run", "PCIe3 (ms)", "predicted PCIe4", "simulated PCIe4",
               "error"});
  double max_err = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const WhatIfPerRequest& row = report.outcomes[0].per_request[i];
    const double err =
        std::abs(static_cast<double>(row.predicted_ns - truth[i])) /
        static_cast<double>(truth[i]);
    max_err = std::max(max_err, err);
    table.AddRow({labels[i], Table::Num(ToMillis(row.baseline_ns)),
                  Table::Num(ToMillis(row.predicted_ns)),
                  Table::Num(ToMillis(truth[i])), Table::Pct(err, 3)});
    // The acceptance bar: journal-only predictions must land within 1% of
    // re-simulating the faster hardware.
    DP_CHECK(err <= 0.01);
  }
  table.Print(std::cout);
  std::cout << "\nAll " << truth.size()
            << " predictions within 1% of re-simulation (max error "
            << Table::Pct(max_err, 3) << ").\n";

  return WriteWhatIf(report, whatif_out) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.DefinePositiveInt("runs", 100, "repetitions per (model, strategy)");
  DefineOutputFlag(&flags, kWhatIfOut);
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  const int runs = static_cast<int>(flags.GetInt("runs"));
  const std::string whatif_out = flags.GetString(kWhatIfOut.name);

  const Topology topology = Topology::A5000Box();
  const PerfModel perf(topology.gpu(), topology.pcie());
  const SweepRunner runner;
  BenchReport report("fig16_pcie4", runner.jobs());
  report.config().Set("topology", topology.name()).Set("runs", runs).Set("batch", 1);

  std::cout << "Figure 16: cold single-inference speedup vs Baseline on 2x "
               "RTX A5000, PCIe 4.0 (batch 1, " << runs << " runs)\n\n";
  Table table({"model", "Baseline", "PipeSwitch", "DHA", "PT+DHA", "PipeSwitch x",
               "DHA x", "PT+DHA x"});
  for (const Model& model : ModelZoo::PaperModels()) {
    double ms[4];
    int i = 0;
    for (const Strategy s : kStrategies) {
      ms[i] = MeanColdLatencyMs(topology, perf, model, s, runs, 1, runner);
      report.AddPoint()
          .Set("model", model.name())
          .Set("strategy", StrategyName(s))
          .Set("mean_cold_ms", ms[i]);
      ++i;
    }
    table.AddRow({PrettyModelName(model.name()), Table::Num(ms[0], 2),
                  Table::Num(ms[1], 2), Table::Num(ms[2], 2), Table::Num(ms[3], 2),
                  Table::Num(ms[0] / ms[1], 2) + "x",
                  Table::Num(ms[0] / ms[2], 2) + "x",
                  Table::Num(ms[0] / ms[3], 2) + "x"});
  }
  table.Print(std::cout);
  std::cout << "\nPaper reference: the Figure 11 trend reproduces on PCIe 4.0 "
               "hardware; DeepPlan still leads everywhere.\n";
  report.Write(&std::cerr);
  if (!whatif_out.empty()) {
    return ValidateWhatIf(topology, perf, whatif_out);
  }
  return 0;
}
