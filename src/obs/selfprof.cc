#include "src/obs/selfprof.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/util/json.h"
#include "src/util/json_parse.h"
#include "src/util/logging.h"

namespace deepplan {
namespace selfprof {

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kTotal:
      return "total";
    case Phase::kSetup:
      return "point.setup";
    case Phase::kWorkloadGen:
      return "workload.generate";
    case Phase::kWarmup:
      return "server.warmup";
    case Phase::kSimDispatch:
      return "sim.dispatch";
    case Phase::kColdStart:
      return "engine.cold_start";
    case Phase::kFairShare:
      return "fabric.fair_share";
    case Phase::kExecStream:
      return "exec.stream";
    case Phase::kValidate:
      return "check.validate";
    case Phase::kJournalSerialize:
      return "journal.serialize";
    case Phase::kTraceSerialize:
      return "trace.serialize";
    case Phase::kMetricsSnapshot:
      return "metrics.snapshot";
    case Phase::kReportRender:
      return "report.render";
  }
  return "?";
}

const char* CounterName(Counter counter) {
  switch (counter) {
    case Counter::kEventsDispatched:
      return "events_dispatched";
    case Counter::kValidatorChecks:
      return "validator_checks";
    case Counter::kHeartbeats:
      return "heartbeats";
  }
  return "?";
}

bool CounterDeterministic(Counter counter) {
  // Heartbeat cadence is a function of real time, not of the simulated run.
  return counter != Counter::kHeartbeats;
}

std::int64_t MonotonicNowNs() {
  // deepplan-lint: allow(raw-entropy, the self-profiler's one monotonic clock read; results live only under *_ns keys the determinism gates strip)
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
}

namespace {

std::int64_t ReadProcStatusKb(const char* key) {
#if defined(__linux__)
  std::ifstream status("/proc/self/status");
  if (!status) {
    return 0;
  }
  std::string line;
  const std::size_t key_len = std::strlen(key);
  while (std::getline(status, line)) {
    if (line.compare(0, key_len, key) == 0) {
      return std::strtoll(line.c_str() + key_len, nullptr, 10);
    }
  }
  return 0;
#else
  (void)key;
  return 0;
#endif
}

}  // namespace

std::int64_t CurrentRssKb() { return ReadProcStatusKb("VmRSS:"); }
std::int64_t PeakRssKb() { return ReadProcStatusKb("VmHWM:"); }

SelfProfiler::SelfProfiler() {
  Node root;
  root.phase = Phase::kTotal;
  root.parent = -1;
  root.child.fill(-1);
  nodes_.push_back(root);
}

std::int32_t SelfProfiler::FindOrAddChild(std::int32_t parent, Phase phase) {
  const auto slot = static_cast<std::size_t>(phase);
  const std::int32_t existing = nodes_[static_cast<std::size_t>(parent)].child[slot];
  if (existing >= 0) {
    return existing;
  }
  Node node;
  node.phase = phase;
  node.parent = parent;
  node.child.fill(-1);
  const auto index = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(node);
  nodes_[static_cast<std::size_t>(parent)].child[slot] = index;
  return index;
}

void SelfProfiler::MergeSubtree(std::int32_t dst, const SelfProfiler& other,
                                std::int32_t src) {
  const Node& from = other.nodes_[static_cast<std::size_t>(src)];
  Node& to = nodes_[static_cast<std::size_t>(dst)];
  to.count += from.count;
  to.sampled += from.sampled;
  to.inclusive_ns += from.inclusive_ns;
  for (int slot = 0; slot < kNumPhases; ++slot) {
    const std::int32_t child = from.child[static_cast<std::size_t>(slot)];
    if (child >= 0) {
      const std::int32_t mine =
          FindOrAddChild(dst, other.nodes_[static_cast<std::size_t>(child)].phase);
      MergeSubtree(mine, other, child);
    }
  }
}

void SelfProfiler::Merge(const SelfProfiler& other) {
  DP_CHECK(closed());
  DP_CHECK(other.closed());
  MergeSubtree(0, other, 0);
  for (int c = 0; c < kNumCounters; ++c) {
    counters_[c] += other.counters_[c];
  }
}

namespace {

std::uint64_t EstimatedNs(const SelfProfiler::Node& node) {
  if (node.sampled == 0) {
    return 0;
  }
  if (node.sampled == node.count) {
    return node.inclusive_ns;
  }
  return static_cast<std::uint64_t>(
      static_cast<double>(node.inclusive_ns) *
      (static_cast<double>(node.count) / static_cast<double>(node.sampled)));
}

std::string NodeJson(const SelfProfiler& lane, std::int32_t index) {
  const SelfProfiler::Node& node =
      lane.nodes()[static_cast<std::size_t>(index)];
  std::uint64_t children_ns = 0;
  JsonArray children;
  for (int slot = 0; slot < kNumPhases; ++slot) {
    const std::int32_t child = node.child[static_cast<std::size_t>(slot)];
    if (child >= 0) {
      children_ns += lane.nodes()[static_cast<std::size_t>(child)].inclusive_ns;
      children.AddRaw(NodeJson(lane, child));
    }
  }
  // The suppression rule (timed entries only run under timed ancestors)
  // makes this subtraction exact and non-negative; the selfprof lint
  // re-checks it on every report.
  DP_CHECK(children_ns <= node.inclusive_ns);
  JsonObject out;
  out.Set("phase", PhaseName(node.phase))
      .Set("count", static_cast<std::int64_t>(node.count))
      .Set("sampled", static_cast<std::int64_t>(node.sampled))
      .Set("inclusive_ns", static_cast<std::int64_t>(node.inclusive_ns))
      .Set("exclusive_ns",
           static_cast<std::int64_t>(node.inclusive_ns - children_ns))
      .Set("estimated_ns", static_cast<std::int64_t>(EstimatedNs(node)));
  if (!children.empty()) {
    out.SetRaw("children", children.Render());
  }
  return out.Render();
}

std::string LaneJson(const LaneView& view) {
  DP_CHECK(view.lane != nullptr);
  DP_CHECK(view.lane->closed());  // reports are built from finished lanes
  JsonObject counters;
  for (int c = 0; c < kNumCounters; ++c) {
    const auto counter = static_cast<Counter>(c);
    counters.Set(CounterName(counter),
                 static_cast<std::int64_t>(view.lane->counter(counter)));
  }
  JsonObject out;
  out.Set("name", view.name)
      .SetRaw("counters", counters.Render())
      .SetRaw("tree", NodeJson(*view.lane, 0));
  return out.Render();
}

// True for the keys the deterministic projection drops: durations, the host
// block and wall-dependent counters.
bool WallDependentKey(const std::string& key) {
  if (key == "host" ||
      (key.size() > 3 && key.compare(key.size() - 3, 3, "_ns") == 0)) {
    return true;
  }
  for (int c = 0; c < kNumCounters; ++c) {
    const auto counter = static_cast<Counter>(c);
    if (!CounterDeterministic(counter) && key == CounterName(counter)) {
      return true;
    }
  }
  return false;
}

void RenderProjection(const JsonValue& value, std::string* out) {
  if (value.is_object()) {
    out->push_back('{');
    bool first = true;
    for (const auto& [key, field] : value.fields()) {
      if (WallDependentKey(key)) {
        continue;
      }
      if (!first) {
        out->push_back(',');
      }
      first = false;
      *out += Json::Str(key);
      out->push_back(':');
      RenderProjection(field, out);
    }
    out->push_back('}');
  } else if (value.is_array()) {
    out->push_back('[');
    for (std::size_t i = 0; i < value.items().size(); ++i) {
      if (i != 0) {
        out->push_back(',');
      }
      RenderProjection(value.items()[i], out);
    }
    out->push_back(']');
  } else if (value.is_string()) {
    *out += Json::Str(value.AsString());
  } else if (value.is_number()) {
    // Surviving numbers are integral counts: no decimal point, so the
    // output is byte-stable.
    const double number = value.AsNumber();
    char buffer[32];
    if (number == std::floor(number) && std::fabs(number) < 9.0e15) {
      std::snprintf(buffer, sizeof(buffer), "%lld",
                    static_cast<long long>(number));
    } else {
      std::snprintf(buffer, sizeof(buffer), "%.12g", number);
    }
    *out += buffer;
  } else if (value.is_bool()) {
    *out += Json::Bool(value.AsBool());
  } else {
    *out += "null";
  }
}

}  // namespace

std::string ReportJson(const std::string& label,
                       const std::vector<LaneView>& lanes) {
  JsonObject body;
  body.Set("schema_version", std::int64_t{kSelfprofSchemaVersion})
      .Set("label", label);
  JsonArray lane_array;
  SelfProfiler aggregate;
  for (const LaneView& view : lanes) {
    lane_array.AddRaw(LaneJson(view));
    aggregate.Merge(*view.lane);
  }
  body.SetRaw("lanes", lane_array.Render());
  body.SetRaw("aggregate", LaneJson(LaneView{"aggregate", &aggregate}));
  body.SetRaw("host", JsonObject()
                          .Set("rss_kb", CurrentRssKb())
                          .Set("rss_peak_kb", PeakRssKb())
                          .Render());
  JsonObject top;
  top.SetRaw("selfprof_report", body.Render());
  return top.Render();
}

std::string DeterministicProjection(const JsonValue& report) {
  std::string out;
  RenderProjection(report, &out);
  return out;
}

bool WriteReport(const std::string& path, const std::string& json) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << json << "\n";
  return static_cast<bool>(out);
}

}  // namespace selfprof
}  // namespace deepplan
