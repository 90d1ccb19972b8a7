#include "src/check/trace_lint.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace deepplan {
namespace check {

namespace {

using Kind = JsonValue::Kind;
using Sign = SchemaChecker::Sign;

// Diagnostic names of the JSON kinds, in JsonValue::Kind order.
constexpr const char* kKindNames[] = {"null",   "boolean", "numeric",
                                      "string", "array",   "object"};

// Calls `fn(item, "<ctx>[i]")` for each object of `array`; any other item is
// an error.
template <typename Fn>
void ForEachObject(SchemaChecker& check, const JsonValue& array,
                   const std::string& ctx, Fn fn) {
  for (std::size_t i = 0; i < array.items().size(); ++i) {
    const std::string item_ctx = ctx + "[" + std::to_string(i) + "]";
    if (array.items()[i].is_object()) {
      fn(array.items()[i], item_ctx);
    } else {
      check.Error(item_ctx + ": not an object");
    }
  }
}

}  // namespace

void SchemaChecker::Error(const std::string& message) {
  ++result_->num_errors;
  if (result_->errors.size() < kMaxReportedErrors) {
    result_->errors.push_back(message);
  }
}

const JsonValue* SchemaChecker::Root(const std::string& json_text,
                                     const char* key, Kind kind) {
  JsonParseResult parsed = ParseJson(json_text);
  if (!parsed.ok) {
    Error("not valid JSON: " + parsed.error);
    return nullptr;
  }
  doc_ = std::move(parsed.value);
  return Field(doc_, "top level", key, kind);
}

const JsonValue* SchemaChecker::Field(const JsonValue& obj,
                                      const std::string& ctx, const char* key,
                                      Kind kind) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->kind() != kind) {
    Error(ctx + ": missing " + kKindNames[static_cast<int>(kind)] + " \"" +
          key + "\"");
    return nullptr;
  }
  return v;
}

std::optional<double> SchemaChecker::Number(const JsonValue& obj,
                                            const std::string& ctx,
                                            const char* key, Sign sign) {
  const JsonValue* v = Field(obj, ctx, key, Kind::kNumber);
  if (v == nullptr) {
    return std::nullopt;
  }
  const double value = v->AsNumber();
  if (sign == Sign::kNonNegative && value < 0.0) {
    Error(ctx + ": negative \"" + key + "\"");
    return std::nullopt;
  }
  if (sign == Sign::kPositive && value <= 0.0) {
    Error(ctx + ": non-positive \"" + key + "\"");
    return std::nullopt;
  }
  return value;
}

namespace {

// ------------------------------------------------------------ Chrome trace

// Timestamps are microseconds rendered at nanosecond precision; allow half a
// nanosecond of floating-point slack in interval comparisons.
constexpr double kTsSlackUs = 5e-4;

using Track = std::pair<long long, long long>;  // (pid, tid)

class TraceLinter {
 public:
  explicit TraceLinter(TraceLintResult* result)
      : check_(result), result_(result) {}

  void Lint(const std::string& json_text) {
    const JsonValue* events =
        check_.Root(json_text, "traceEvents", Kind::kArray);
    if (events == nullptr) {
      return;
    }
    result_->num_events = events->items().size();
    for (std::size_t i = 0; i < events->items().size(); ++i) {
      LintEvent(i, events->items()[i]);
    }
    CheckMetadataCoverage();
    CheckNesting();
    CheckAsyncBalance();
    result_->num_tracks = thread_tracks_.size();
  }

 private:
  struct Span {
    std::size_t index;
    double ts;
    double end;
    std::string name;
  };

  struct AsyncState {
    int open = 0;
    double last_begin = 0.0;
  };

  static std::string EventCtx(std::size_t i) {
    return "event " + std::to_string(i);
  }

  // Reports `what` under the context of event `i`.
  void EventError(std::size_t i, const std::string& what) {
    check_.Error(EventCtx(i) + ": " + what);
  }

  Track ThreadTrack(double pid, double tid) {
    const Track track(static_cast<long long>(pid), static_cast<long long>(tid));
    thread_tracks_.insert(track);
    used_pids_.insert(track.first);
    return track;
  }

  void LintEvent(std::size_t i, const JsonValue& e) {
    const std::string ctx = EventCtx(i);
    if (!e.is_object()) {
      check_.Error(ctx + ": not an object");
      return;
    }
    const JsonValue* ph_value = check_.Field(e, ctx, "ph", Kind::kString);
    if (ph_value == nullptr) {
      return;
    }
    const std::string& ph = ph_value->AsString();
    const std::optional<double> pid = check_.Number(e, ctx, "pid");
    if (!pid) {
      return;
    }
    if (ph == "M") {
      LintMetadata(ctx, e, *pid);
      return;
    }
    const std::optional<double> ts = check_.Number(e, ctx, "ts");
    if (!ts) {
      return;
    }
    // The writer emits events sorted by timestamp (metadata first).
    if (seen_ts_ && *ts < last_ts_ - kTsSlackUs) {
      std::ostringstream os;
      os << "ts " << *ts << "us out of order (previous event at " << last_ts_
         << "us)";
      EventError(i, os.str());
    }
    seen_ts_ = true;
    last_ts_ = std::max(last_ts_, *ts);

    if (ph == "X" || ph == "i") {
      const std::optional<double> tid = check_.Number(e, ctx, "tid");
      const JsonValue* name =
          tid ? check_.Field(e, ctx, "name", Kind::kString) : nullptr;
      if (name == nullptr) {
        return;
      }
      const Track track = ThreadTrack(*pid, *tid);
      if (ph == "X") {
        ++result_->num_spans;
        const std::optional<double> dur =
            check_.Number(e, ctx, "dur", Sign::kNonNegative);
        if (dur) {
          spans_[track].push_back(Span{i, *ts, *ts + *dur, name->AsString()});
        }
      }
      return;
    }
    if (ph == "C") {
      ++result_->num_counters;
      used_pids_.insert(static_cast<long long>(*pid));
      const JsonValue* name = check_.Field(e, ctx, "name", Kind::kString);
      const JsonValue* args =
          name != nullptr ? check_.Field(e, ctx, "args", Kind::kObject)
                          : nullptr;
      if (args == nullptr) {
        return;
      }
      if (args->fields().empty()) {
        EventError(i, "counter without args series");
        return;
      }
      for (const auto& [series, value] : args->fields()) {
        if (!value.is_number()) {
          EventError(i, "counter series \"" + series + "\" is not numeric");
          continue;
        }
        // Counters namespaced "cum/" promise to be cumulative: samples on
        // one (pid, name, series) track must never decrease.
        if (name->AsString().rfind("cum/", 0) == 0) {
          CheckCumulative(i, *pid, name->AsString(), series, value.AsNumber());
        }
      }
      return;
    }
    if (ph == "b" || ph == "e") {
      ++result_->num_asyncs;
      const std::optional<double> tid = check_.Number(e, ctx, "tid");
      const JsonValue* cat =
          tid ? check_.Field(e, ctx, "cat", Kind::kString) : nullptr;
      if (cat == nullptr ||
          check_.Field(e, ctx, "name", Kind::kString) == nullptr) {
        return;
      }
      const JsonValue* id = e.Find("id");
      if (id == nullptr || (!id->is_number() && !id->is_string())) {
        EventError(i, "async event without id");
        return;
      }
      ThreadTrack(*pid, *tid);
      std::ostringstream key;
      key << *pid << "/" << cat->AsString() << "/";
      if (id->is_number()) {
        key << id->AsNumber();
      } else {
        key << id->AsString();
      }
      AsyncState& state = asyncs_[key.str()];
      if (ph == "b") {
        ++state.open;
        state.last_begin = *ts;
      } else if (state.open == 0) {
        EventError(i, "async end without matching begin (" + key.str() + ")");
      } else {
        --state.open;
        if (*ts < state.last_begin - kTsSlackUs) {
          EventError(i, "async end before its begin (" + key.str() + ")");
        }
      }
      return;
    }
    EventError(i, "unknown phase \"" + ph + "\"");
  }

  void CheckCumulative(std::size_t i, double pid, const std::string& name,
                       const std::string& series, double value) {
    std::ostringstream key;
    key << pid << "/" << name << "/" << series;
    auto [it, fresh] = cumulative_.emplace(key.str(), value);
    if (fresh) {
      return;
    }
    if (value < it->second - 1e-9) {
      std::ostringstream os;
      os << "cumulative counter \"" << name << "\" series \"" << series
         << "\" decreased: " << it->second << " -> " << value;
      EventError(i, os.str());
    }
    it->second = std::max(it->second, value);
  }

  void LintMetadata(const std::string& ctx, const JsonValue& e, double pid) {
    const JsonValue* name = check_.Field(e, ctx, "name", Kind::kString);
    const JsonValue* args =
        name != nullptr ? check_.Field(e, ctx, "args", Kind::kObject)
                        : nullptr;
    if (args == nullptr ||
        check_.Field(*args, ctx + " args", "name", Kind::kString) ==
            nullptr) {
      return;
    }
    if (name->AsString() == "process_name") {
      named_pids_.insert(static_cast<long long>(pid));
      has_process_names_ = true;
      return;
    }
    if (name->AsString() == "thread_name") {
      if (const std::optional<double> tid = check_.Number(e, ctx, "tid")) {
        named_tracks_.emplace(static_cast<long long>(pid),
                              static_cast<long long>(*tid));
      }
      return;
    }
    check_.Error(ctx + ": unknown metadata record \"" + name->AsString() +
                 "\"");
  }

  void CheckMetadataCoverage() {
    for (const Track& track : thread_tracks_) {
      if (named_tracks_.count(track) == 0) {
        std::ostringstream os;
        os << "no thread_name metadata for pid " << track.first << " tid "
           << track.second;
        check_.Error(os.str());
      }
    }
    if (has_process_names_) {
      for (const long long pid : used_pids_) {
        if (named_pids_.count(pid) == 0) {
          check_.Error("no process_name metadata for pid " +
                       std::to_string(pid));
        }
      }
    }
  }

  void CheckNesting() {
    for (auto& [track, spans] : spans_) {
      // Events arrive writer-sorted; re-sort defensively (ts, longer first)
      // so the lint result does not depend on prior ordering errors.
      std::stable_sort(spans.begin(), spans.end(),
                       [](const Span& a, const Span& b) {
                         if (a.ts != b.ts) {
                           return a.ts < b.ts;
                         }
                         return a.end > b.end;
                       });
      std::vector<const Span*> stack;
      for (const Span& span : spans) {
        while (!stack.empty() && stack.back()->end <= span.ts + kTsSlackUs) {
          stack.pop_back();
        }
        if (!stack.empty() && span.end > stack.back()->end + kTsSlackUs) {
          std::ostringstream os;
          os << "slice \"" << span.name << "\" [" << span.ts << ", "
             << span.end << ")us on pid " << track.first << " tid "
             << track.second << " partially overlaps \"" << stack.back()->name
             << "\" [" << stack.back()->ts << ", " << stack.back()->end
             << ")us — slices must nest or be disjoint";
          EventError(span.index, os.str());
        }
        stack.push_back(&span);
      }
    }
  }

  void CheckAsyncBalance() {
    for (const auto& [key, state] : asyncs_) {
      if (state.open != 0) {
        check_.Error("async begin without matching end (" + key + ")");
      }
    }
  }

  SchemaChecker check_;
  TraceLintResult* result_;

  bool seen_ts_ = false;
  double last_ts_ = 0.0;
  std::set<Track> thread_tracks_;
  std::set<Track> named_tracks_;
  std::set<long long> used_pids_;
  std::set<long long> named_pids_;
  bool has_process_names_ = false;
  std::map<Track, std::vector<Span>> spans_;
  std::map<std::string, AsyncState> asyncs_;
  std::map<std::string, double> cumulative_;  // (pid/name/series) -> last value
};

}  // namespace

TraceLintResult LintChromeTrace(const std::string& json_text) {
  TraceLintResult result;
  TraceLinter(&result).Lint(json_text);
  return result;
}

// ---------------------------------------------------------- profile report

namespace {

// Sums an attribution object's seven non-negative components; nullopt when
// the object is missing or a component is invalid.
std::optional<double> AttributionSum(SchemaChecker& check,
                                     const JsonValue* attribution,
                                     const std::string& ctx) {
  if (attribution == nullptr) {
    return std::nullopt;
  }
  double sum = 0.0;
  for (const char* field : {"queue_ns", "evict_ns", "pcie_ns",
                            "pcie_contention_ns", "nvlink_ns", "exec_ns",
                            "sync_ns"}) {
    const std::optional<double> v =
        check.Number(*attribution, ctx, field, Sign::kNonNegative);
    if (!v) {
      return std::nullopt;
    }
    sum += *v;
  }
  return sum;
}

}  // namespace

TraceLintResult LintProfileReport(const std::string& json_text) {
  TraceLintResult result;
  SchemaChecker check(&result);
  const JsonValue* report =
      check.Root(json_text, "profile_report", Kind::kObject);
  if (report == nullptr) {
    return result;
  }
  const std::string ctx = "profile_report";
  const std::optional<double> requests = check.Number(*report, ctx, "requests");
  check.Number(*report, ctx, "cold_requests");
  const std::optional<double> total_latency =
      check.Number(*report, ctx, "total_latency_ns");
  check.Field(*report, ctx, "bottleneck", Kind::kString);
  const std::optional<double> totals = AttributionSum(
      check, check.Field(*report, ctx, "totals", Kind::kObject), "totals");
  if (totals && total_latency && *totals != *total_latency) {
    std::ostringstream os;
    os << "totals components sum to " << *totals
       << "ns but total_latency_ns is " << *total_latency;
    check.Error(os.str());
  }
  check.Field(*report, ctx, "processes", Kind::kArray);
  if (const JsonValue* per_request =
          check.Field(*report, ctx, "per_request", Kind::kArray)) {
    if (requests &&
        static_cast<double>(per_request->items().size()) != *requests) {
      check.Error("\"requests\" disagrees with per_request length");
    }
    ForEachObject(
        check, *per_request, "per_request",
        [&check](const JsonValue& entry, const std::string& entry_ctx) {
          const std::optional<double> latency =
              check.Number(entry, entry_ctx, "latency_ns");
          const std::optional<double> sum = AttributionSum(
              check, check.Field(entry, entry_ctx, "attribution", Kind::kObject),
              entry_ctx);
          if (latency && sum && *sum != *latency) {
            std::ostringstream os;
            os << entry_ctx << ": attribution sums to " << *sum
               << "ns but latency_ns is " << *latency;
            check.Error(os.str());
          }
        });
  }
  if (const JsonValue* utilization =
          check.Field(*report, ctx, "utilization", Kind::kArray)) {
    ForEachObject(
        check, *utilization, "utilization",
        [&check](const JsonValue& entry, const std::string& entry_ctx) {
          check.Field(entry, entry_ctx, "resource", Kind::kString);
          const std::optional<double> busy =
              check.Number(entry, entry_ctx, "busy_ns");
          const std::optional<double> contended =
              check.Number(entry, entry_ctx, "contended_ns");
          const std::optional<double> span =
              check.Number(entry, entry_ctx, "span_ns");
          if (busy && contended && *contended > *busy) {
            check.Error(entry_ctx + ": contended_ns exceeds busy_ns");
          }
          if (busy && span && *busy > *span) {
            check.Error(entry_ctx + ": busy_ns exceeds span_ns");
          }
        });
  }
  return result;
}

// ---------------------------------------------------------- what-if report

namespace {

// A latency quantile object must carry all five fields, non-negative and
// ordered p50 <= p95 <= p99 <= max.
void LintQuantiles(SchemaChecker& check, const JsonValue& parent,
                   const std::string& parent_ctx, const char* key) {
  const JsonValue* q = check.Field(parent, parent_ctx, key, Kind::kObject);
  if (q == nullptr) {
    return;
  }
  const std::string ctx = parent_ctx + "." + key;
  static const char* const kOrdered[] = {"p50_ms", "p95_ms", "p99_ms",
                                         "max_ms"};
  std::optional<double> values[4];
  for (std::size_t i = 0; i < 4; ++i) {
    values[i] = check.Number(*q, ctx, kOrdered[i], Sign::kNonNegative);
  }
  check.Number(*q, ctx, "mean_ms");
  if (!values[0] || !values[1] || !values[2] || !values[3]) {
    return;
  }
  for (std::size_t i = 1; i < 4; ++i) {
    if (*values[i] < *values[i - 1]) {
      check.Error(ctx + ": quantiles not monotone (" + kOrdered[i - 1] +
                  " > " + kOrdered[i] + ")");
      return;
    }
  }
}

void LintExperiment(SchemaChecker& check, const JsonValue& exp,
                    const std::string& ctx, double expected_requests) {
  check.Field(exp, ctx, "name", Kind::kString);
  for (const char* key : {"pcie_scale", "nvlink_scale", "exec_scale"}) {
    check.Number(exp, ctx, key, Sign::kPositive);
  }
  for (const char* key : {"zero_contention", "remove_evictions"}) {
    check.Field(exp, ctx, key, Kind::kBool);
  }
  LintQuantiles(check, exp, ctx, "predicted");
  if (const JsonValue* delta = check.Field(exp, ctx, "delta", Kind::kObject)) {
    for (const char* key :
         {"p50_ms", "p95_ms", "p99_ms", "mean_ms", "max_ms"}) {
      check.Number(*delta, ctx + ".delta", key);
    }
  }
  const JsonValue* per_request =
      check.Field(exp, ctx, "per_request", Kind::kArray);
  if (per_request == nullptr) {
    return;
  }
  if (static_cast<double>(per_request->items().size()) != expected_requests) {
    check.Error(ctx + ": per_request length disagrees with \"requests\"");
  }
  ForEachObject(
      check, *per_request, ctx + ".per_request",
      [&check](const JsonValue& row, const std::string& row_ctx) {
        check.Number(row, row_ctx, "request");
        check.Number(row, row_ctx, "process");
        const std::optional<double> baseline =
            check.Number(row, row_ctx, "baseline_ns", Sign::kNonNegative);
        const std::optional<double> predicted =
            check.Number(row, row_ctx, "predicted_ns", Sign::kNonNegative);
        const std::optional<double> delta =
            check.Number(row, row_ctx, "delta_ns");
        if (baseline && predicted && delta &&
            *delta != *predicted - *baseline) {
          std::ostringstream os;
          os << row_ctx << ": delta_ns " << *delta
             << " != predicted_ns - baseline_ns (" << *predicted - *baseline
             << ")";
          check.Error(os.str());
        }
      });
}

}  // namespace

TraceLintResult LintWhatIfReport(const std::string& json_text) {
  TraceLintResult result;
  SchemaChecker check(&result);
  const JsonValue* report =
      check.Root(json_text, "whatif_report", Kind::kObject);
  if (report == nullptr) {
    return result;
  }
  const std::string ctx = "whatif_report";
  const std::optional<double> requests = check.Number(*report, ctx, "requests");
  check.Number(*report, ctx, "skipped_requests");
  const JsonValue* matches =
      check.Field(*report, ctx, "baseline_matches_journal", Kind::kBool);
  if (matches != nullptr && !matches->AsBool() && requests && *requests > 0) {
    // Predictions are only as good as the identity replay they rest on.
    check.Error(ctx + ": baseline replay does not match the journal");
  }
  LintQuantiles(check, *report, ctx, "baseline");
  check.Field(*report, ctx, "processes", Kind::kArray);
  const JsonValue* experiments =
      check.Field(*report, ctx, "experiments", Kind::kArray);
  if (experiments != nullptr && requests) {
    ForEachObject(check, *experiments, "experiments",
                  [&](const JsonValue& exp, const std::string& exp_ctx) {
                    LintExperiment(check, exp, exp_ctx, *requests);
                  });
  }
  const JsonValue* sensitivity =
      check.Field(*report, ctx, "sensitivity", Kind::kArray);
  if (sensitivity == nullptr) {
    return result;
  }
  ForEachObject(
      check, *sensitivity, "sensitivity",
      [&check](const JsonValue& row, const std::string& row_ctx) {
        const JsonValue* knob = check.Field(row, row_ctx, "knob", Kind::kString);
        if (knob != nullptr && knob->AsString() != "pcie" &&
            knob->AsString() != "nvlink" && knob->AsString() != "exec") {
          check.Error(row_ctx + ": \"knob\" must be pcie, nvlink, or exec");
        }
        for (const char* key : {"delta_p50_ms", "delta_p95_ms", "delta_p99_ms",
                                "knob_time_mean_ms", "p99_leverage"}) {
          check.Number(row, row_ctx, key);
        }
      });
  return result;
}

// --------------------------------------------------------- selfprof report

namespace {

// A phase node's counts summed by phase path ("total/sim.dispatch/
// exec.stream"), for the aggregate-equals-sum-of-lanes check.
struct PhaseTally {
  double count = 0;
  double sampled = 0;
};
using PhaseTallies = std::map<std::string, PhaseTally>;
using CounterSums = std::map<std::string, double>;

// Walks one phase node (the lane root when `parent_path` is empty) and
// accumulates its counts into `tally`.
void LintNode(SchemaChecker& check, const JsonValue& node,
              const std::string& ctx, const std::string& parent_path,
              double parent_count, PhaseTallies* tally) {
  const bool is_root = parent_path.empty();
  const JsonValue* phase = check.Field(node, ctx, "phase", Kind::kString);
  if (phase == nullptr) {
    return;
  }
  const std::string& name = phase->AsString();
  if (name.empty()) {
    check.Error(ctx + ": empty \"phase\"");
    return;
  }
  if (is_root && name != "total") {
    check.Error(ctx + ": root phase is \"" + name + "\", expected \"total\"");
  }
  const std::string path = is_root ? name : parent_path + "/" + name;
  const std::string node_ctx = ctx + " (" + path + ")";

  // A required non-negative field, or -1 when it is missing or negative.
  const auto count_field = [&](const char* key) {
    return check.Number(node, node_ctx, key, Sign::kNonNegative).value_or(-1.0);
  };
  const double count = count_field("count");
  const double sampled = count_field("sampled");
  if (count >= 0.0 && sampled >= 0.0) {
    if (sampled > count) {
      check.Error(node_ctx + ": sampled exceeds count");
    }
    if (!is_root && count > 0.0 && parent_count == 0.0) {
      check.Error(node_ctx + ": counted child under a never-entered parent");
    }
    (*tally)[path].count += count;
    (*tally)[path].sampled += sampled;
  }

  // Duration fields travel together: the full report has all three, the
  // deterministic projection none.
  const int present = (node.Find("inclusive_ns") != nullptr ? 1 : 0) +
                      (node.Find("exclusive_ns") != nullptr ? 1 : 0) +
                      (node.Find("estimated_ns") != nullptr ? 1 : 0);
  if (present != 0 && present != 3) {
    check.Error(node_ctx +
                ": inclusive_ns/exclusive_ns/estimated_ns must appear together");
  }
  const bool timed = present == 3;
  double inclusive_ns = -1.0;
  double exclusive_ns = -1.0;
  if (timed) {
    inclusive_ns = count_field("inclusive_ns");
    exclusive_ns = count_field("exclusive_ns");
    const double estimated_ns = count_field("estimated_ns");
    if (inclusive_ns >= 0.0 && exclusive_ns > inclusive_ns) {
      check.Error(node_ctx + ": exclusive_ns exceeds inclusive_ns");
    }
    if (inclusive_ns >= 0.0 && estimated_ns >= 0.0 &&
        estimated_ns < inclusive_ns) {
      check.Error(node_ctx + ": estimated_ns below measured inclusive_ns");
    }
    if (sampled == 0.0 && inclusive_ns > 0.0) {
      check.Error(node_ctx + ": inclusive_ns without any sampled entries");
    }
  }

  double children_inclusive = 0.0;
  if (const JsonValue* children = node.Find("children")) {
    if (!children->is_array()) {
      check.Error(node_ctx + ": \"children\" is not an array");
      return;
    }
    std::set<std::string> seen;
    ForEachObject(
        check, *children, node_ctx + ".children",
        [&](const JsonValue& child, const std::string& child_ctx) {
          const JsonValue* child_phase = child.Find("phase");
          if (child_phase != nullptr && child_phase->is_string() &&
              !seen.insert(child_phase->AsString()).second) {
            check.Error(node_ctx + ": duplicate child phase \"" +
                        child_phase->AsString() + "\"");
          }
          LintNode(check, child, child_ctx, path, count, tally);
          const JsonValue* child_inclusive = child.Find("inclusive_ns");
          if (child_inclusive != nullptr && child_inclusive->is_number()) {
            children_inclusive += child_inclusive->AsNumber();
          }
        });
  }
  // Exact by construction (suppression rule): measured child time always
  // nests inside measured parent time.
  if (inclusive_ns >= 0.0 && exclusive_ns >= 0.0 &&
      exclusive_ns + children_inclusive != inclusive_ns) {
    check.Error(node_ctx +
                ": exclusive_ns + sum(child inclusive_ns) != inclusive_ns");
  }
}

// Lints one lane object, adding its phase counts and counters to the sums.
void LintLane(SchemaChecker& check, const JsonValue& lane,
              const std::string& ctx, PhaseTallies* tally,
              CounterSums* counter_sums) {
  const JsonValue* name = check.Field(lane, ctx, "name", Kind::kString);
  if (name != nullptr && name->AsString().empty()) {
    check.Error(ctx + ": empty \"name\"");
  }
  if (const JsonValue* counters =
          check.Field(lane, ctx, "counters", Kind::kObject)) {
    for (const auto& [key, value] : counters->fields()) {
      if (!value.is_number() || value.AsNumber() < 0.0) {
        check.Error(ctx + ": counter \"" + key +
                    "\" is not a non-negative number");
      } else {
        (*counter_sums)[key] += value.AsNumber();
      }
    }
  }
  if (const JsonValue* tree = check.Field(lane, ctx, "tree", Kind::kObject)) {
    LintNode(check, *tree, ctx + ".tree", "", 0.0, tally);
  }
}

}  // namespace

TraceLintResult LintSelfprofReport(const std::string& json_text) {
  TraceLintResult result;
  SchemaChecker check(&result);
  const JsonValue* report =
      check.Root(json_text, "selfprof_report", Kind::kObject);
  if (report == nullptr) {
    return result;
  }
  const std::string ctx = "selfprof_report";
  const std::optional<double> version =
      check.Number(*report, ctx, "schema_version");
  if (version && *version < 1.0) {
    check.Error(ctx + ": \"schema_version\" below 1");
  }
  check.Field(*report, ctx, "label", Kind::kString);
  const JsonValue* lanes = check.Field(*report, ctx, "lanes", Kind::kArray);
  if (lanes == nullptr) {
    return result;
  }
  if (lanes->items().empty()) {
    check.Error(ctx + ": empty \"lanes\" array");
    return result;
  }
  std::set<std::string> lane_names;
  PhaseTallies lane_sum;
  CounterSums counter_sum;
  ForEachObject(check, *lanes, "lanes",
                [&](const JsonValue& lane, const std::string& lane_ctx) {
                  const JsonValue* name = lane.Find("name");
                  if (name != nullptr && name->is_string() &&
                      !lane_names.insert(name->AsString()).second) {
                    check.Error(lane_ctx + ": duplicate lane name \"" +
                                name->AsString() + "\"");
                  }
                  LintLane(check, lane, lane_ctx, &lane_sum, &counter_sum);
                });
  result.num_tracks = lanes->items().size();

  const JsonValue* aggregate =
      check.Field(*report, ctx, "aggregate", Kind::kObject);
  if (aggregate == nullptr) {
    return result;
  }
  PhaseTallies agg;
  CounterSums agg_counters;
  LintLane(check, *aggregate, "aggregate", &agg, &agg_counters);
  for (const auto& [path, sum] : lane_sum) {
    const auto it = agg.find(path);
    if (it == agg.end()) {
      check.Error("aggregate: phase \"" + path +
                  "\" missing (present in lanes)");
    } else if (it->second.count != sum.count ||
               it->second.sampled != sum.sampled) {
      check.Error("aggregate: phase \"" + path +
                  "\" counts do not equal the sum over lanes");
    }
  }
  for (const auto& [key, sum] : counter_sum) {
    const auto it = agg_counters.find(key);
    if (it == agg_counters.end()) {
      check.Error("aggregate: counter \"" + key +
                  "\" missing (present in lanes)");
    } else if (it->second != sum) {
      check.Error("aggregate: counter \"" + key +
                  "\" does not equal the sum over lanes");
    }
  }

  // The host block is optional (the deterministic projection drops it).
  const JsonValue* host = report->Find("host");
  if (host != nullptr && !host->is_object()) {
    check.Error(ctx + ": \"host\" is not an object");
  } else if (host != nullptr) {
    check.Number(*host, "host", "rss_kb", Sign::kNonNegative);
    check.Number(*host, "host", "rss_peak_kb", Sign::kNonNegative);
  }
  return result;
}

namespace {

// Reads `path` and lints its text with `lint`.
TraceLintResult LintFile(const std::string& path,
                         TraceLintResult (*lint)(const std::string&)) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    TraceLintResult result;
    SchemaChecker(&result).Error("cannot read " + path);
    return result;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return lint(buffer.str());
}

}  // namespace

TraceLintResult LintChromeTraceFile(const std::string& path) {
  return LintFile(path, LintChromeTrace);
}

TraceLintResult LintProfileReportFile(const std::string& path) {
  return LintFile(path, LintProfileReport);
}

TraceLintResult LintWhatIfReportFile(const std::string& path) {
  return LintFile(path, LintWhatIfReport);
}

TraceLintResult LintSelfprofReportFile(const std::string& path) {
  return LintFile(path, LintSelfprofReport);
}

}  // namespace check
}  // namespace deepplan
