// trace_lint: the one validating command for every artifact this repo
// writes, so CI can lint any captured file (checks: src/check/trace_lint.h,
// and LintJournalFile in src/obs/journal_stream.h). The default mode checks
// Chrome/Perfetto traces (structure, sorted timestamps, pid/tid metadata,
// slice nesting, async balance, cumulative-counter monotonicity); --profile
// the {"profile_report":...} schema (attribution sums, utilization bounds);
// --whatif the {"whatif_report":...} schema (scales, quantile monotonicity,
// per-request deltas, baseline self-check); --selfprof the
// {"selfprof_report":...} schema (lane uniqueness, phase-tree
// exclusive/inclusive arithmetic, aggregate equal to the per-lane sums —
// full reports and deterministic projections both pass); --journal the
// binary DPJL causal journal (header and version, per-chunk CRC32,
// string-table/process references, dangling-edge and truncation diagnosis),
// printing its totals. Exit 0 when every file is clean.
//
//   trace_lint results/trace_fig15.json [more.json ...]
//   trace_lint --profile results/profile_report.json
//   trace_lint --whatif results/whatif_report.json
//   trace_lint --selfprof results/selfprof_scaling.json
//   trace_lint --journal results/profile_fig15.dpj
#include <cstdio>
#include <cstring>
#include <string>

#include "src/check/trace_lint.h"
#include "src/obs/journal_stream.h"

namespace {

using deepplan::JournalLintInfo;
using deepplan::check::TraceLintResult;

struct Mode {
  const char* flag;  // nullptr for the default mode
  TraceLintResult (*lint)(const char* path, JournalLintInfo* info);
  void (*print_ok)(const char* path, const TraceLintResult& result,
                   const JournalLintInfo& info);
};

const Mode kModes[] = {
    {nullptr,
     [](const char* path, JournalLintInfo*) {
       return deepplan::check::LintChromeTraceFile(path);
     },
     [](const char* path, const TraceLintResult& r, const JournalLintInfo&) {
       std::printf(
           "OK %s: %zu events (%zu spans, %zu counters, %zu async) on %zu "
           "tracks\n",
           path, r.num_events, r.num_spans, r.num_counters, r.num_asyncs,
           r.num_tracks);
     }},
    {"--profile",
     [](const char* path, JournalLintInfo*) {
       return deepplan::check::LintProfileReportFile(path);
     },
     [](const char* path, const TraceLintResult&, const JournalLintInfo&) {
       std::printf("OK %s: profile report schema clean\n", path);
     }},
    {"--whatif",
     [](const char* path, JournalLintInfo*) {
       return deepplan::check::LintWhatIfReportFile(path);
     },
     [](const char* path, const TraceLintResult&, const JournalLintInfo&) {
       std::printf("OK %s: what-if report schema clean\n", path);
     }},
    {"--selfprof",
     [](const char* path, JournalLintInfo*) {
       return deepplan::check::LintSelfprofReportFile(path);
     },
     [](const char* path, const TraceLintResult& r, const JournalLintInfo&) {
       std::printf("OK %s: selfprof report schema clean (%zu lanes)\n", path,
                   r.num_tracks);
     }},
    {"--journal",
     [](const char* path, JournalLintInfo* info) {
       return deepplan::LintJournalFile(path, info);
     },
     [](const char* path, const TraceLintResult&, const JournalLintInfo& info) {
       std::printf(
           "OK %s: %llu requests (%llu incomplete), %llu nodes, %llu edges "
           "in %llu chunks across %llu process(es)\n",
           path, static_cast<unsigned long long>(info.totals.requests),
           static_cast<unsigned long long>(info.totals.incomplete_requests),
           static_cast<unsigned long long>(info.totals.nodes),
           static_cast<unsigned long long>(info.totals.edges),
           static_cast<unsigned long long>(info.totals.chunks),
           static_cast<unsigned long long>(info.processes));
     }},
};

}  // namespace

int main(int argc, char** argv) {
  const Mode* mode = &kModes[0];
  int first_file = 1;
  for (const Mode& m : kModes) {
    if (m.flag != nullptr && argc > 1 && std::strcmp(argv[1], m.flag) == 0) {
      mode = &m;
      first_file = 2;
    }
  }
  if (first_file >= argc) {
    std::fprintf(stderr,
                 "usage: %s [--profile|--whatif|--selfprof|--journal] <file> "
                 "[more files ...]\n",
                 argv[0]);
    return 2;
  }
  int failures = 0;
  for (int i = first_file; i < argc; ++i) {
    JournalLintInfo info;
    const TraceLintResult result = mode->lint(argv[i], &info);
    if (result.ok()) {
      mode->print_ok(argv[i], result, info);
      continue;
    }
    ++failures;
    std::fprintf(stderr, "FAIL %s: %zu error(s)\n", argv[i],
                 result.num_errors);
    for (const std::string& error : result.errors) {
      std::fprintf(stderr, "  %s\n", error.c_str());
    }
    if (result.num_errors > result.errors.size()) {
      std::fprintf(stderr, "  ... and %zu more\n",
                   result.num_errors - result.errors.size());
    }
  }
  return failures == 0 ? 0 : 1;
}
