// What-if report: the user-facing product of the replay engine. Runs a set
// of virtual hardware experiments over one causal journal and renders the
// predicted latency shifts two ways:
//
//   PrintWhatIfReport  deterministic text tables (per-experiment quantiles,
//                      ranked knob sensitivity) for humans
//   WhatIfReportJson   stable machine-readable document
//                      {"whatif_report":{...}} for tools and the trace
//                      linter's schema check (trace_lint --whatif)
//
// Consumed by tools/whatif_report (offline, from a journal file) and by the
// bench binaries' --whatif_out flag (inline, from the run's own journal in
// memory); both run the one windowed replay over the same DPJL bytes.
//
// Every report starts with an identity replay; `baseline_matches_journal`
// says whether it reproduced each recorded request latency exactly, which is
// the self-check that licenses trusting the perturbed predictions.
#ifndef SRC_OBS_WHATIF_WHATIF_REPORT_H_
#define SRC_OBS_WHATIF_WHATIF_REPORT_H_

#include <ostream>
#include <string>
#include <vector>

#include "src/obs/causal_graph.h"
#include "src/obs/whatif/whatif.h"
#include "src/util/time.h"

namespace deepplan {

// Latency distribution summary (milliseconds, linear-interpolated quantiles).
struct WhatIfQuantiles {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
};

// One request's predicted latency under one experiment. `baseline_ns` is the
// journal's recorded latency; delta = predicted - baseline (negative means
// the virtual hardware made the request faster).
struct WhatIfPerRequest {
  int request = -1;
  int process = 0;
  bool cold = false;
  Nanos baseline_ns = 0;
  Nanos predicted_ns = 0;
  Nanos delta_ns = 0;
};

// Per-process rollup of one experiment's predictions.
struct WhatIfProcessOutcome {
  int process = 0;
  std::string name;
  int requests = 0;
  WhatIfQuantiles baseline;
  WhatIfQuantiles predicted;
};

struct WhatIfOutcome {
  WhatIfExperiment experiment;
  WhatIfQuantiles predicted;
  std::vector<WhatIfProcessOutcome> processes;  // processes with requests only
  std::vector<WhatIfPerRequest> per_request;    // in request-id order
};

// How much tail latency one knob buys: re-run at a +1% hardware speedup and
// measure the quantile shift. `leverage_p99` is the exchange rate — how many
// nanoseconds of p99 one nanosecond shaved off the knob's per-request time
// buys ("1 ns of PCIe buys X ns of p99").
struct WhatIfSensitivity {
  std::string knob;  // "pcie" | "nvlink" | "exec"
  double delta_p50_ms = 0.0;  // baseline minus perturbed (positive = saves)
  double delta_p95_ms = 0.0;
  double delta_p99_ms = 0.0;
  double knob_time_mean_ms = 0.0;  // mean per-request time the knob governs
  double leverage_p99 = 0.0;
};

struct WhatIfReport {
  int requests = 0;          // completed requests replayed
  int skipped_requests = 0;  // journal-incomplete, excluded from replay
  bool baseline_matches_journal = false;
  WhatIfQuantiles baseline;  // recorded journal latencies
  std::vector<std::string> processes;
  std::vector<WhatIfOutcome> outcomes;          // in experiment order
  std::vector<WhatIfSensitivity> sensitivity;   // ranked by delta_p99 desc
};

// The report of an opened journal: one identity replay, one per experiment
// and one per sensitivity knob.
WhatIfReport BuildWhatIfReportWindowed(
    WindowedJournal& journal, const std::vector<WhatIfExperiment>& experiments);

// The same, over `graph`'s own journal (CausalGraph::journal).
WhatIfReport BuildWhatIfReport(const CausalGraph& graph,
                               const std::vector<WhatIfExperiment>& experiments);

// Deterministic text rendering (experiment + sensitivity tables).
void PrintWhatIfReport(const WhatIfReport& report, std::ostream& os);

// {"whatif_report":{"requests":N,"skipped_requests":N,
//  "baseline_matches_journal":B,"baseline":{...},"processes":[...],
//  "experiments":[...],"sensitivity":[...]}}
std::string WhatIfReportJson(const WhatIfReport& report);

}  // namespace deepplan

#endif  // SRC_OBS_WHATIF_WHATIF_REPORT_H_
