#include "src/obs/profile_report.h"

#include <algorithm>
#include <utility>

#include "src/util/json.h"
#include "src/util/table.h"
#include "src/util/time.h"

namespace deepplan {

namespace {

// Attribution components in report order, paired with display names.
struct Component {
  const char* name;
  Nanos CpAttribution::* field;
};

constexpr Component kComponents[] = {
    {"queue", &CpAttribution::queue},
    {"evict", &CpAttribution::evict},
    {"pcie", &CpAttribution::pcie},
    {"pcie_contention", &CpAttribution::pcie_contention},
    {"nvlink", &CpAttribution::nvlink},
    {"exec", &CpAttribution::exec},
    {"sync", &CpAttribution::sync},
};

std::string DominantComponent(const CpAttribution& a) {
  const char* best = "";
  Nanos best_value = 0;
  for (const Component& c : kComponents) {
    // Strict > keeps the first (report-order) component on ties.
    if (a.*(c.field) > best_value) {
      best = c.name;
      best_value = a.*(c.field);
    }
  }
  return best;
}

std::string AttributionJson(const CpAttribution& a) {
  JsonObject obj;
  for (const Component& c : kComponents) {
    obj.Set(std::string(c.name) + "_ns", static_cast<std::int64_t>(a.*(c.field)));
  }
  return obj.Render();
}

}  // namespace

void ProfileReportBuilder::Add(const JournalChunk& chunk) {
  for (const std::string& name : chunk.new_processes) {
    ProcessProfile& pp = report_.processes.emplace_back();
    pp.process = static_cast<int>(report_.processes.size() - 1);
    pp.name = name;
  }
  AnalyzeCriticalPaths(chunk, &report_.summary);
  utilization_.Add(chunk);
}

ProfileReport ProfileReportBuilder::Finish() {
  ProfileReport report = std::move(report_);
  // Chunks hold requests in retirement order; the report lists them by id.
  std::sort(report.summary.requests.begin(), report.summary.requests.end(),
            [](const RequestProfile& a, const RequestProfile& b) {
              return a.request < b.request;
            });
  report.utilization = utilization_.Finish();
  for (const RequestProfile& rp : report.summary.requests) {
    if (rp.process < 0 ||
        rp.process >= static_cast<int>(report.processes.size())) {
      continue;
    }
    ProcessProfile& pp = report.processes[static_cast<std::size_t>(rp.process)];
    ++pp.requests;
    if (rp.cold) {
      ++pp.cold_requests;
    }
    pp.attribution += rp.attribution;
    pp.total_latency += rp.latency;
    pp.exec_busy += rp.exec_busy;
  }
  if (!report.summary.requests.empty()) {
    report.bottleneck = DominantComponent(report.summary.total);
  }
  return report;
}

ProfileReport BuildProfileReport(const CausalGraph& graph) {
  ProfileReportBuilder builder;
  ForEachGraphChunk(graph, [&builder](JournalChunk& chunk) { builder.Add(chunk); });
  return builder.Finish();
}

void PrintProfileReport(const ProfileReport& report, std::ostream& os) {
  const ProfileSummary& summary = report.summary;
  os << "== profile report ==\n";
  os << "requests: " << summary.requests.size() << " ("
     << summary.cold_requests << " cold), total latency "
     << Table::Num(ToMillis(summary.total_latency)) << " ms\n";
  if (summary.requests.empty()) {
    os << "(no completed requests in journal)\n";
    return;
  }
  os << "bottleneck: " << report.bottleneck << " ("
     << Table::Pct(static_cast<double>([&] {
          for (const Component& c : kComponents) {
            if (report.bottleneck == c.name) {
              return summary.total.*(c.field);
            }
          }
          return Nanos{0};
        }()) /
        static_cast<double>(std::max<Nanos>(1, summary.total_latency)))
     << " of total latency)\n\n";

  os << "-- critical-path attribution by process (ms) --\n";
  Table attribution({"process", "reqs", "cold", "queue", "evict", "pcie",
                     "pcie_cont", "nvlink", "exec", "sync", "total"});
  for (const ProcessProfile& pp : report.processes) {
    if (pp.requests == 0) {
      continue;
    }
    attribution.AddRow({pp.name, std::to_string(pp.requests),
                        std::to_string(pp.cold_requests),
                        Table::Num(ToMillis(pp.attribution.queue)),
                        Table::Num(ToMillis(pp.attribution.evict)),
                        Table::Num(ToMillis(pp.attribution.pcie)),
                        Table::Num(ToMillis(pp.attribution.pcie_contention)),
                        Table::Num(ToMillis(pp.attribution.nvlink)),
                        Table::Num(ToMillis(pp.attribution.exec)),
                        Table::Num(ToMillis(pp.attribution.sync)),
                        Table::Num(ToMillis(pp.attribution.Total()))});
  }
  attribution.Print(os);

  os << "\n-- totals across all requests (ms) --\n";
  Table totals({"component", "time", "share"});
  for (const Component& c : kComponents) {
    const Nanos value = summary.total.*(c.field);
    totals.AddRow({c.name, Table::Num(ToMillis(value)),
                   Table::Pct(static_cast<double>(value) /
                              static_cast<double>(
                                  std::max<Nanos>(1, summary.total_latency)))});
  }
  totals.Print(os);

  if (!report.utilization.resources.empty()) {
    os << "\n-- resource utilization --\n";
    Table util({"process", "resource", "kind", "busy_ms", "contended_ms",
                "span_ms", "util"});
    for (const ResourceTimeline& rt : report.utilization.resources) {
      const std::string process_name =
          rt.process >= 0 && rt.process < static_cast<int>(report.processes.size())
              ? report.processes[static_cast<std::size_t>(rt.process)].name
              : std::to_string(rt.process);
      util.AddRow({process_name, rt.resource, rt.kind,
                   Table::Num(ToMillis(rt.busy)),
                   Table::Num(ToMillis(rt.contended)),
                   Table::Num(ToMillis(rt.span)), Table::Pct(rt.utilization)});
    }
    util.Print(os);
  }
}

std::string ProfileReportJson(const ProfileReport& report) {
  const ProfileSummary& summary = report.summary;

  JsonArray processes;
  for (const ProcessProfile& pp : report.processes) {
    processes.AddRaw(
        JsonObject()
            .Set("process", pp.process)
            .Set("name", pp.name)
            .Set("requests", pp.requests)
            .Set("cold_requests", pp.cold_requests)
            .SetRaw("attribution", AttributionJson(pp.attribution))
            .Set("total_latency_ns",
                 static_cast<std::int64_t>(pp.total_latency))
            .Set("exec_busy_ns", static_cast<std::int64_t>(pp.exec_busy))
            .Render());
  }

  JsonArray per_request;
  for (const RequestProfile& rp : summary.requests) {
    JsonArray path;
    for (const CpNodeId id : rp.path) {
      path.Add(id);
    }
    per_request.AddRaw(
        JsonObject()
            .Set("request", rp.request)
            .Set("process", rp.process)
            .Set("instance", rp.instance)
            .Set("cold", rp.cold)
            .Set("arrival_ns", static_cast<std::int64_t>(rp.arrival))
            .Set("completion_ns", static_cast<std::int64_t>(rp.completion))
            .Set("latency_ns", static_cast<std::int64_t>(rp.latency))
            .SetRaw("attribution", AttributionJson(rp.attribution))
            .Set("exec_busy_ns", static_cast<std::int64_t>(rp.exec_busy))
            .SetRaw("path", path.Render())
            .Render());
  }

  JsonArray utilization;
  for (const ResourceTimeline& rt : report.utilization.resources) {
    utilization.AddRaw(
        JsonObject()
            .Set("process", rt.process)
            .Set("resource", rt.resource)
            .Set("kind", rt.kind)
            .Set("busy_ns", static_cast<std::int64_t>(rt.busy))
            .Set("contended_ns", static_cast<std::int64_t>(rt.contended))
            .Set("span_ns", static_cast<std::int64_t>(rt.span))
            .Set("utilization", rt.utilization)
            .Set("intervals", static_cast<std::int64_t>(rt.intervals.size()))
            .Render());
  }

  JsonObject body;
  body.Set("requests", static_cast<std::int64_t>(summary.requests.size()))
      .Set("cold_requests", summary.cold_requests)
      .Set("bottleneck", report.bottleneck)
      .Set("total_latency_ns", static_cast<std::int64_t>(summary.total_latency))
      .SetRaw("totals", AttributionJson(summary.total))
      .SetRaw("processes", processes.Render())
      .SetRaw("per_request", per_request.Render())
      .SetRaw("utilization", utilization.Render());

  JsonObject doc;
  doc.SetRaw("profile_report", body.Render());
  return doc.Render();
}

}  // namespace deepplan
