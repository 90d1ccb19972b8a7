// Profile report: the user-facing product of the obs analysis layer. Reads a
// causal journal chunk by chunk, runs the critical-path engine and the
// utilization module over each chunk, and renders the result two ways:
//
//   PrintProfileReport  deterministic text tables (per-process attribution,
//                       bottleneck ranking, resource utilization) for humans
//   ProfileReportJson   stable machine-readable document
//                       {"profile_report":{...}} for tools and the trace
//                       linter's schema check
//
// Consumed by tools/profile_report (streaming a journal file) and by the
// bench binaries' --profile_out flag (streaming the run's own journal from
// memory, the same bytes the flag writes).
#ifndef SRC_OBS_PROFILE_REPORT_H_
#define SRC_OBS_PROFILE_REPORT_H_

#include <ostream>
#include <string>

#include "src/obs/causal_graph.h"
#include "src/obs/critical_path.h"
#include "src/obs/journal_stream.h"
#include "src/obs/utilization.h"

namespace deepplan {

// Per-process rollup of request attributions.
struct ProcessProfile {
  int process = 0;
  std::string name;
  int requests = 0;
  int cold_requests = 0;
  CpAttribution attribution;  // summed over the process's requests
  Nanos total_latency = 0;
  Nanos exec_busy = 0;
};

struct ProfileReport {
  ProfileSummary summary;            // per-request attributions
  std::vector<ProcessProfile> processes;  // in process-id order
  UtilizationReport utilization;
  // Name of the dominant attribution component across all requests
  // ("queue", "evict", "pcie", "pcie_contention", "nvlink", "exec", "sync"),
  // empty when the journal holds no completed requests.
  std::string bottleneck;
};

// Builds a report from a journal's chunks, added in file order.
class ProfileReportBuilder {
 public:
  void Add(const JournalChunk& chunk);
  ProfileReport Finish();

 private:
  ProfileReport report_;  // processes and per-request profiles so far
  UtilizationBuilder utilization_;
};

// The report of `graph`'s own journal (CausalGraph::journal).
ProfileReport BuildProfileReport(const CausalGraph& graph);

// Deterministic text rendering (tables + bottleneck line).
void PrintProfileReport(const ProfileReport& report, std::ostream& os);

// {"profile_report":{"requests":N,"cold_requests":N,"bottleneck":...,
//  "totals":{...},"processes":[...],"per_request":[...],"utilization":[...]}}
std::string ProfileReportJson(const ProfileReport& report);

}  // namespace deepplan

#endif  // SRC_OBS_PROFILE_REPORT_H_
