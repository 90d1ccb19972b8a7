// selfprof_report: human-readable view of the {"selfprof_report":...} JSON a
// bench writes via --selfprof_out (src/obs/selfprof.h). Default mode prints
// every lane's phase tree — estimated wall-clock per phase (sampled phases
// projected to all entries), share of the lane's total, entry counts — plus
// counters and the host RSS block.
//
//   selfprof_report results/selfprof_scaling.json
//   selfprof_report --min_coverage=0.9 results/selfprof_scaling.json
//   selfprof_report --deterministic results/selfprof_scaling.json
//   selfprof_report --diff before.json after.json
//
// --min_coverage=F   gate: on the aggregate lane, the top-level phases'
//                    estimated time must cover at least fraction F of the
//                    root's measured wall-clock; exit 1 below (CI uses 0.9 —
//                    "where does the wall-clock go" must stay answerable).
// --deterministic    print the report's deterministic projection
//                    (selfprof::DeterministicProjection: no *_ns fields,
//                    host block or wall-dependent counters); running it on
//                    reports from different DEEPPLAN_JOBS values must produce
//                    byte-identical output (cmp-able determinism legs).
// --diff A B         per-phase-path count and estimated-time deltas between
//                    two reports' aggregate lanes (bench trajectory triage).
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/selfprof.h"
#include "src/util/flags.h"
#include "src/util/json_parse.h"

namespace {

using deepplan::JsonParseResult;
using deepplan::JsonValue;
using deepplan::ParseJson;

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

// Parses `path` and returns the "selfprof_report" object, or null (with a
// stderr diagnostic) on any failure. `doc` keeps the DOM alive.
const JsonValue* LoadReport(const std::string& path, JsonValue* doc) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return nullptr;
  }
  JsonParseResult parsed = ParseJson(text);
  if (!parsed.ok) {
    std::fprintf(stderr, "bad JSON in %s: %s\n", path.c_str(),
                 parsed.error.c_str());
    return nullptr;
  }
  *doc = std::move(parsed.value);
  const JsonValue* report =
      doc->is_object() ? doc->Find("selfprof_report") : nullptr;
  if (report == nullptr || !report->is_object()) {
    std::fprintf(stderr, "%s: no \"selfprof_report\" object\n", path.c_str());
    return nullptr;
  }
  return report;
}

double NumberOr(const JsonValue& obj, const char* key, double fallback) {
  const JsonValue* v = obj.Find(key);
  return (v != nullptr && v->is_number()) ? v->AsNumber() : fallback;
}

// Sum of the immediate children's estimated_ns (0 when untimed/leaf).
double ChildrenEstimatedNs(const JsonValue& node) {
  double sum = 0.0;
  const JsonValue* children = node.Find("children");
  if (children != nullptr && children->is_array()) {
    for (const JsonValue& child : children->items()) {
      sum += NumberOr(child, "estimated_ns", 0.0);
    }
  }
  return sum;
}

void PrintNode(const JsonValue& node, int depth, double root_ns) {
  const JsonValue* phase = node.Find("phase");
  const std::string name =
      (phase != nullptr && phase->is_string()) ? phase->AsString() : "?";
  const double count = NumberOr(node, "count", 0.0);
  const double estimated = NumberOr(node, "estimated_ns", -1.0);
  std::string label(static_cast<std::size_t>(depth) * 2, ' ');
  label += name;
  if (estimated >= 0.0) {
    // estimated-exclusive: this phase's projected time minus its children's.
    const double self = estimated - ChildrenEstimatedNs(node);
    std::printf("  %-34s %10.1fms %5.1f%%  self %8.1fms  x%.0f\n",
                label.c_str(), estimated / 1e6,
                root_ns > 0.0 ? 100.0 * estimated / root_ns : 0.0, self / 1e6,
                count);
  } else {
    std::printf("  %-34s %29s  x%.0f\n", label.c_str(), "", count);
  }
  const JsonValue* children = node.Find("children");
  if (children != nullptr && children->is_array()) {
    for (const JsonValue& child : children->items()) {
      PrintNode(child, depth + 1, root_ns);
    }
  }
}

void PrintLane(const JsonValue& lane) {
  const JsonValue* name = lane.Find("name");
  std::printf("lane \"%s\"\n",
              (name != nullptr && name->is_string()) ? name->AsString().c_str()
                                                     : "?");
  const JsonValue* tree = lane.Find("tree");
  if (tree != nullptr && tree->is_object()) {
    PrintNode(*tree, 0, NumberOr(*tree, "inclusive_ns", 0.0));
  }
  const JsonValue* counters = lane.Find("counters");
  if (counters != nullptr && counters->is_object() &&
      !counters->fields().empty()) {
    std::printf("  counters:");
    for (const auto& [key, value] : counters->fields()) {
      if (value.is_number()) {
        std::printf(" %s=%.0f", key.c_str(), value.AsNumber());
      }
    }
    std::printf("\n");
  }
}

// Fraction of the aggregate root's measured wall-clock covered by its
// top-level phases' estimates. 1.0 (vacuous pass) for untimed projections.
double AggregateCoverage(const JsonValue& report) {
  const JsonValue* aggregate = report.Find("aggregate");
  const JsonValue* tree =
      (aggregate != nullptr && aggregate->is_object()) ? aggregate->Find("tree")
                                                       : nullptr;
  if (tree == nullptr || !tree->is_object()) {
    return 0.0;
  }
  const double root_ns = NumberOr(*tree, "inclusive_ns", -1.0);
  if (root_ns < 0.0) {
    return 1.0;  // deterministic projection: no durations to cover
  }
  if (root_ns == 0.0) {
    return 1.0;
  }
  return ChildrenEstimatedNs(*tree) / root_ns;
}

// --- diff --------------------------------------------------------------------

struct PhaseStat {
  double count = 0.0;
  double estimated_ns = -1.0;  // -1: untimed report
};

void CollectPhases(const JsonValue& node, const std::string& parent_path,
                   std::map<std::string, PhaseStat>* out) {
  const JsonValue* phase = node.Find("phase");
  if (phase == nullptr || !phase->is_string()) {
    return;
  }
  const std::string path = parent_path.empty()
                               ? phase->AsString()
                               : parent_path + "/" + phase->AsString();
  PhaseStat& stat = (*out)[path];
  stat.count = NumberOr(node, "count", 0.0);
  stat.estimated_ns = NumberOr(node, "estimated_ns", -1.0);
  const JsonValue* children = node.Find("children");
  if (children != nullptr && children->is_array()) {
    for (const JsonValue& child : children->items()) {
      CollectPhases(child, path, out);
    }
  }
}

std::map<std::string, PhaseStat> AggregatePhases(const JsonValue& report) {
  std::map<std::string, PhaseStat> out;
  const JsonValue* aggregate = report.Find("aggregate");
  const JsonValue* tree =
      (aggregate != nullptr && aggregate->is_object()) ? aggregate->Find("tree")
                                                       : nullptr;
  if (tree != nullptr && tree->is_object()) {
    CollectPhases(*tree, "", &out);
  }
  return out;
}

int Diff(const std::string& path_a, const std::string& path_b) {
  JsonValue doc_a = JsonValue::Null();
  JsonValue doc_b = JsonValue::Null();
  const JsonValue* a = LoadReport(path_a, &doc_a);
  const JsonValue* b = LoadReport(path_b, &doc_b);
  if (a == nullptr || b == nullptr) {
    return 2;
  }
  std::map<std::string, PhaseStat> phases = AggregatePhases(*a);
  std::map<std::string, PhaseStat> phases_b = AggregatePhases(*b);
  // Union of phase paths, keyed alphabetically (std::map order).
  for (const auto& [path, stat] : phases_b) {
    (void)stat;
    phases.emplace(path, PhaseStat{});  // no-op when already present
  }
  std::printf("selfprof diff (aggregate lanes): %s -> %s\n", path_a.c_str(),
              path_b.c_str());
  std::printf("  %-44s %14s %14s %12s\n", "phase", "count a->b", "est ms a->b",
              "delta ms");
  for (const auto& [path, stat_a] : phases) {
    const auto it_b = phases_b.find(path);
    const PhaseStat stat_b = it_b != phases_b.end() ? it_b->second : PhaseStat{};
    const bool timed = stat_a.estimated_ns >= 0.0 || stat_b.estimated_ns >= 0.0;
    const double est_a = stat_a.estimated_ns >= 0.0 ? stat_a.estimated_ns : 0.0;
    const double est_b = stat_b.estimated_ns >= 0.0 ? stat_b.estimated_ns : 0.0;
    char counts[64];
    std::snprintf(counts, sizeof(counts), "%.0f->%.0f", stat_a.count,
                  stat_b.count);
    if (timed) {
      char est[64];
      std::snprintf(est, sizeof(est), "%.1f->%.1f", est_a / 1e6, est_b / 1e6);
      std::printf("  %-44s %14s %14s %+12.1f\n", path.c_str(), counts, est,
                  (est_b - est_a) / 1e6);
    } else {
      std::printf("  %-44s %14s %14s %12s\n", path.c_str(), counts, "-", "-");
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool deterministic = false;
  bool diff = false;
  double min_coverage = -1.0;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--deterministic") {
      deterministic = true;
    } else if (arg == "--diff") {
      diff = true;
    } else if (arg.rfind("--min_coverage=", 0) == 0) {
      if (!deepplan::ParseDouble(arg.substr(15), &min_coverage)) {
        std::fprintf(stderr, "bad --min_coverage value: %s\n", arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (diff) {
    if (files.size() != 2 || deterministic || min_coverage >= 0.0) {
      std::fprintf(stderr, "usage: %s --diff <a.json> <b.json>\n", argv[0]);
      return 2;
    }
    return Diff(files[0], files[1]);
  }
  if (files.size() != 1) {
    std::fprintf(stderr,
                 "usage: %s [--deterministic] [--min_coverage=F] "
                 "<selfprof.json>\n       %s --diff <a.json> <b.json>\n",
                 argv[0], argv[0]);
    return 2;
  }

  JsonValue doc = JsonValue::Null();
  const JsonValue* report = LoadReport(files[0], &doc);
  if (report == nullptr) {
    return 2;
  }

  if (deterministic) {
    std::printf("%s\n", deepplan::selfprof::DeterministicProjection(doc).c_str());
    return 0;
  }

  std::printf("selfprof report: %s (schema v%.0f)\n",
              files[0].c_str(), NumberOr(*report, "schema_version", 0.0));
  const JsonValue* label = report->Find("label");
  if (label != nullptr && label->is_string()) {
    std::printf("label: %s\n", label->AsString().c_str());
  }
  const JsonValue* lanes = report->Find("lanes");
  if (lanes != nullptr && lanes->is_array()) {
    for (const JsonValue& lane : lanes->items()) {
      PrintLane(lane);
    }
  }
  const JsonValue* aggregate = report->Find("aggregate");
  if (aggregate != nullptr && aggregate->is_object()) {
    PrintLane(*aggregate);
  }
  const JsonValue* host = report->Find("host");
  if (host != nullptr && host->is_object()) {
    std::printf("host: rss=%.0fMB peak=%.0fMB\n",
                NumberOr(*host, "rss_kb", 0.0) / 1024.0,
                NumberOr(*host, "rss_peak_kb", 0.0) / 1024.0);
  }

  const double coverage = AggregateCoverage(*report);
  std::printf("coverage: %.1f%% of aggregate wall-clock attributed to "
              "top-level phases\n",
              100.0 * coverage);
  if (min_coverage >= 0.0 && coverage < min_coverage) {
    std::fprintf(stderr,
                 "FAIL: coverage %.3f below --min_coverage=%.3f — the profiler "
                 "no longer explains where wall-clock goes\n",
                 coverage, min_coverage);
    return 1;
  }
  return 0;
}
