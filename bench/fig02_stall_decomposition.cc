// Figure 2: decomposition of cold-inference latency under the pipelining
// approach (PipeSwitch) into GPU execution time and pipeline-stall time,
// batch size 1, for all eight models.
//
// Paper shape: BERT/RoBERTa stall 73-75%; ResNet and GPT-2 roughly 25-45%.
//
// With --profile_out=<path> (default: $DEEPPLAN_PROFILE) every cold start
// records its happens-before DAG into a causal journal written to <path> in
// the binary DPJL format (read it with tools/profile_report), and a second
// table re-derives the decomposition from critical-path attribution — the
// engine's own stall accounting and the profiler's must agree exactly
// (DP_CHECK), which is the cross-check that keeps the attribution taxonomy
// honest.
//
// With --whatif_out=<path> (default: $DEEPPLAN_WHATIF) the run additionally
// replays its journal under the default virtual-hardware experiments
// (src/obs/whatif) and writes the {"whatif_report":...} JSON to <path>;
// journaling turns on even without --profile_out.
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/util/logging.h"

int main(int argc, char** argv) {
  using namespace deepplan;
  using namespace deepplan::bench;

  Flags flags;
  DefineOutputFlag(&flags, kProfileOut);
  DefineOutputFlag(&flags, kWhatIfOut);
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  const std::string profile_out = flags.GetString(kProfileOut.name);
  const bool profiling = !profile_out.empty();
  const std::string whatif_out = flags.GetString(kWhatIfOut.name);
  const bool journaling = profiling || !whatif_out.empty();

  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  CausalGraph graph(journaling);

  std::cout << "Figure 2: inference latency decomposition under PipeSwitch "
               "(batch 1, V100 / PCIe 3.0)\n\n";
  Table table({"model", "total", "exec", "stall", "stall share"});
  std::vector<std::string> names;
  std::vector<InferenceResult> results;
  for (const Model& model : ModelZoo::PaperModels()) {
    const int process = graph.RegisterProcess(model.name());
    const ColdMeasurement m = RunColdWithProfile(
        topology, perf, model, Strategy::kPipeSwitch,
        ExactProfile(perf, model), /*batch=*/1,
        journaling ? &graph : nullptr, process);
    names.push_back(PrettyModelName(model.name()));
    results.push_back(m.result);
    const double share = static_cast<double>(m.result.stall) /
                         static_cast<double>(m.result.latency);
    table.AddRow({PrettyModelName(model.name()), FormatDuration(m.result.latency),
                  FormatDuration(m.result.exec_busy), FormatDuration(m.result.stall),
                  Table::Pct(share)});
  }
  table.Print(std::cout);
  std::cout << "\nPaper reference: BERT/RoBERTa ~73-75% stall; "
               "ResNet/GPT-2 ~27-37% stall.\n";

  if (profiling) {
    const ProfileSummary summary = AnalyzeCriticalPaths(graph);
    DP_CHECK(summary.requests.size() == results.size());
    std::cout << "\nDecomposition derived from causal attribution "
                 "(critical path):\n";
    Table derived({"model", "exec (path)", "pcie", "contention", "other wait",
                   "stall share"});
    for (std::size_t i = 0; i < summary.requests.size(); ++i) {
      const RequestProfile& p = summary.requests[i];
      // The profiler's view and the engine's own accounting must agree
      // exactly: attribution tiles the latency, and latency minus total
      // exec-busy time is the engine's hand-computed stall.
      DP_CHECK(p.attribution.Total() == p.latency);
      DP_CHECK(p.latency - p.exec_busy == results[i].stall);
      const CpAttribution& a = p.attribution;
      const Nanos other = a.queue + a.evict + a.nvlink + a.sync;
      const double share = static_cast<double>(p.latency - p.exec_busy) /
                           static_cast<double>(p.latency);
      derived.AddRow({names[i], FormatDuration(a.exec), FormatDuration(a.pcie),
                      FormatDuration(a.pcie_contention), FormatDuration(other),
                      Table::Pct(share)});
    }
    derived.Print(std::cout);
    std::cout << "\nAttribution agrees with the engine's stall accounting "
                 "for every model (checked).\n";
    if (!WriteJournal(graph, profile_out)) {
      return 1;
    }
  }
  if (!whatif_out.empty()) {
    const WhatIfReport whatif =
        BuildWhatIfReport(graph, DefaultWhatIfExperiments());
    // The identity replay must land every request on its recorded latency —
    // the self-check that licenses the perturbed predictions.
    DP_CHECK(whatif.baseline_matches_journal);
    std::cout << "\n";
    PrintWhatIfReport(whatif, std::cout);
    if (!WriteWhatIf(whatif, whatif_out)) {
      return 1;
    }
  }
  return 0;
}
