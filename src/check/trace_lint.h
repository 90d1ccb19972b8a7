// Offline validation of the artifacts this repo writes, so CI, `trace_lint`
// and the benchmark fail loudly on a malformed file. Every check here and
// LintJournalFile (src/obs/journal_stream.h) report through one
// SchemaChecker. Lint*File reads a file first (unreadable is an error).
// LintChromeTrace: a "traceEvents" array whose events carry a known "ph"
//   and that phase's fields (pid; tid, name and ts for thread events;
//   dur >= 0 for "X"; one numeric args series per "C"; cat and id for async
//   "b"/"e"); timestamps sorted; every (pid, tid) named by thread_name
//   metadata, and every pid by process_name once any exists; "X" slices per
//   track nested or disjoint; async begin/end balanced and ordered per
//   (pid, cat, id); "cum/" counter series never decreasing.
// LintProfileReport: {"profile_report":...} fields and types, attribution
//   components summing exactly to each request's latency (and the totals
//   to total_latency_ns), utilization busy <= span and contended <= busy.
// LintWhatIfReport: {"whatif_report":...} fields and types, positive
//   hardware scales, quantiles p50 <= p95 <= p99 <= max, one per-request
//   row per request with delta_ns = predicted_ns - baseline_ns, and
//   baseline_matches_journal true (predictions from a replay that cannot
//   reproduce its own journal are untrustworthy).
// LintSelfprofReport: {"selfprof_report":...} schema version, non-empty
//   uniquely named lanes, phase trees rooted at "total" without duplicate
//   children and with consistent counts, exclusive_ns = inclusive_ns -
//   sum(child inclusive_ns) with estimated_ns >= inclusive_ns, and the
//   aggregate lane equal to the per-lane sums. Full reports and their
//   deterministic projection (no *_ns fields, no host block) both pass.
#ifndef SRC_CHECK_TRACE_LINT_H_
#define SRC_CHECK_TRACE_LINT_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "src/util/json_parse.h"

namespace deepplan {
namespace check {

// Every error is counted; only the first this many are kept as messages.
inline constexpr std::size_t kMaxReportedErrors = 20;

struct TraceLintResult {
  bool ok() const { return num_errors == 0; }

  std::size_t num_errors = 0;
  std::vector<std::string> errors;  // first kMaxReportedErrors, with context

  std::size_t num_events = 0;    // entries of traceEvents
  std::size_t num_spans = 0;     // "X"
  std::size_t num_counters = 0;  // "C"
  std::size_t num_asyncs = 0;    // "b" + "e"
  std::size_t num_tracks = 0;    // distinct (pid, tid) thread tracks
};

// The checker every lint reports through. Diagnostics name a context path
// and a key, e.g. `per_request[3]: missing numeric "latency_ns"`.
class SchemaChecker {
 public:
  explicit SchemaChecker(TraceLintResult* result) : result_(result) {}

  // Counts `message`, keeping it while fewer than kMaxReportedErrors are.
  void Error(const std::string& message);

  // Parses `json_text` and returns its top-level object's `key` member when
  // that has `kind`; otherwise reports why and returns nullptr. The parsed
  // document lives as long as the checker.
  const JsonValue* Root(const std::string& json_text, const char* key,
                        JsonValue::Kind kind);

  // `obj`'s `key` member when it has `kind`; otherwise reports
  // `<ctx>: missing <kind> "<key>"` and returns nullptr.
  const JsonValue* Field(const JsonValue& obj, const std::string& ctx,
                         const char* key, JsonValue::Kind kind);

  enum class Sign { kAny, kNonNegative, kPositive };
  // The value of `obj`'s numeric `key` member when it satisfies `sign`;
  // otherwise reports it (missing, `negative` or `non-positive`) and
  // returns nullopt.
  std::optional<double> Number(const JsonValue& obj, const std::string& ctx,
                               const char* key, Sign sign = Sign::kAny);

 private:
  TraceLintResult* result_;
  JsonValue doc_ = JsonValue::Null();
};

TraceLintResult LintChromeTrace(const std::string& json_text);
TraceLintResult LintChromeTraceFile(const std::string& path);

// The report checks leave the trace counters 0, except that
// LintSelfprofReport sets num_tracks to the number of lanes.
TraceLintResult LintProfileReport(const std::string& json_text);
TraceLintResult LintProfileReportFile(const std::string& path);
TraceLintResult LintWhatIfReport(const std::string& json_text);
TraceLintResult LintWhatIfReportFile(const std::string& path);
TraceLintResult LintSelfprofReport(const std::string& json_text);
TraceLintResult LintSelfprofReportFile(const std::string& path);

}  // namespace check
}  // namespace deepplan

#endif  // SRC_CHECK_TRACE_LINT_H_
