// profile_report: offline critical-path analysis of a causal journal. Reads
// the binary DPJL journal a bench run writes via --profile_out, runs the
// critical-path engine and utilization module, and prints the deterministic
// text report; --json=<path> additionally writes the {"profile_report":...}
// document for tools (lint with `trace_lint --profile`).
//
//   profile_report results/profile_fig15.dpj [--json=results/report.json]
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "src/obs/causal_graph.h"
#include "src/obs/journal_stream.h"
#include "src/obs/profile_report.h"

int main(int argc, char** argv) {
  std::string journal_path;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (journal_path.empty()) {
      journal_path = arg;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (journal_path.empty()) {
    std::fprintf(stderr, "usage: %s <journal.dpj> [--json=<report.json>]\n",
                 argv[0]);
    return 2;
  }

  deepplan::CausalGraph graph;
  std::string error;
  if (!deepplan::ReadJournalToGraph(journal_path, &graph, &error)) {
    std::fprintf(stderr, "bad journal: %s\n", error.c_str());
    return 1;
  }

  const deepplan::ProfileReport report = deepplan::BuildProfileReport(graph);
  deepplan::PrintProfileReport(report, std::cout);

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    out << deepplan::ProfileReportJson(report) << "\n";
    std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  }
  return 0;
}
