// whatif_report: offline virtual-hardware experiments over a causal journal.
// Reads the binary DPJL journal a bench run writes via --profile_out,
// replays the happens-before DAG under each requested experiment with the
// bounded-memory windowed engine, and prints the deterministic text report
// (predicted latency quantiles per experiment plus the ranked
// knob-sensitivity table); --json=<path> additionally writes the
// {"whatif_report":...} document for tools (lint with `trace_lint
// --whatif`). The report is byte-identical to the one the bench's own
// --whatif_out replay writes in process for the same run.
//
//   whatif_report results/profile_fig15.dpj
//   whatif_report results/profile_fig15.dpj --exp=pcie=1.92 --exp=noevict
//       --json=results/whatif.json
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/obs/whatif/whatif.h"
#include "src/obs/whatif/whatif_report.h"

int main(int argc, char** argv) {
  std::string journal_path;
  std::string json_path;
  std::vector<deepplan::WhatIfExperiment> experiments;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--exp=", 0) == 0) {
      deepplan::WhatIfExperiment exp;
      std::string error;
      if (!deepplan::ParseWhatIfExperiment(arg.substr(6), &exp, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
      }
      experiments.push_back(std::move(exp));
    } else if (journal_path.empty()) {
      journal_path = arg;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (journal_path.empty()) {
    std::fprintf(stderr,
                 "usage: %s <journal.dpj> [--exp=<spec>]... "
                 "[--json=<report.json>]\n"
                 "  spec clauses: pcie=K nvlink=K exec=K nocontention "
                 "noevict baseline (comma-separated)\n",
                 argv[0]);
    return 2;
  }
  if (experiments.empty()) {
    experiments = deepplan::DefaultWhatIfExperiments();
  }

  deepplan::WindowedJournal journal;
  std::string error;
  if (!journal.Open(journal_path, &error)) {
    std::fprintf(stderr, "bad journal: %s\n", error.c_str());
    return 1;
  }
  const deepplan::WhatIfReport report =
      deepplan::BuildWhatIfReportWindowed(journal, experiments);
  deepplan::PrintWhatIfReport(report, std::cout);

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    out << deepplan::WhatIfReportJson(report) << "\n";
    std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  }
  // A baseline replay that cannot reproduce its own journal means the
  // journal predates hop/DHA recording (or is damaged): fail loudly so CI
  // never trusts those predictions.
  if (report.requests > 0 && !report.baseline_matches_journal) {
    std::fprintf(stderr,
                 "baseline replay does not match the journal; predictions "
                 "are unreliable\n");
    return 1;
  }
  return 0;
}
