#include "src/obs/whatif/whatif_report.h"

#include <algorithm>
#include <utility>

#include "src/util/index.h"
#include "src/util/json.h"
#include "src/util/logging.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace deepplan {

namespace {

WhatIfQuantiles QuantilesOf(const std::vector<Nanos>& latencies) {
  Percentiles p;
  for (const Nanos v : latencies) {
    if (v >= 0) {
      p.Add(ToMillis(v));
    }
  }
  WhatIfQuantiles q;
  if (p.empty()) {
    return q;
  }
  q.p50_ms = p.Percentile(50.0);
  q.p95_ms = p.Percentile(95.0);
  q.p99_ms = p.Percentile(99.0);
  q.mean_ms = p.Mean();
  q.max_ms = p.Max();
  return q;
}

double MeanMsOf(const std::vector<Nanos>& times,
                const std::vector<Nanos>& latencies) {
  // Mean over completed requests only (latency >= 0 marks completion).
  double sum = 0.0;
  int count = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (latencies[i] >= 0) {
      sum += ToMillis(times[i]);
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / count;
}

std::string QuantilesJson(const WhatIfQuantiles& q) {
  return JsonObject()
      .Set("p50_ms", q.p50_ms)
      .Set("p95_ms", q.p95_ms)
      .Set("p99_ms", q.p99_ms)
      .Set("mean_ms", q.mean_ms)
      .Set("max_ms", q.max_ms)
      .Render();
}

}  // namespace

WhatIfReport BuildWhatIfReport(
    const CausalGraph& graph,
    const std::vector<WhatIfExperiment>& experiments) {
  WindowedJournal journal;
  std::string error;
  const bool opened = journal.OpenBytes(graph.journal(), &error);
  DP_CHECK(opened);
  return BuildWhatIfReportWindowed(journal, experiments);
}

WhatIfReport BuildWhatIfReportWindowed(
    WindowedJournal& journal,
    const std::vector<WhatIfExperiment>& experiments) {
  const std::vector<CpRequest>& requests = journal.requests();
  WhatIfReport report;
  report.processes = journal.processes();

  // Recorded latencies, indexed by request id (-1 for incomplete requests —
  // the same convention ReplayWhatIf uses).
  std::vector<Nanos> recorded(requests.size(), -1);
  for (const CpRequest& r : requests) {
    if (r.completion >= 0) {
      recorded[Idx(r.id)] = r.completion - r.arrival;
      ++report.requests;
    } else {
      ++report.skipped_requests;
    }
  }
  report.baseline = QuantilesOf(recorded);

  // Identity self-check: the replay must land every completed request on its
  // recorded latency before its perturbed predictions mean anything.
  WhatIfExperiment identity;
  identity.name = "baseline";
  const WhatIfReplay base = journal.Replay(identity);
  report.baseline_matches_journal = report.requests > 0;
  for (std::size_t i = 0; i < recorded.size(); ++i) {
    if (recorded[i] >= 0 && base.latency[i] != recorded[i]) {
      report.baseline_matches_journal = false;
    }
  }

  for (const WhatIfExperiment& exp : experiments) {
    const WhatIfReplay predicted = journal.Replay(exp);
    WhatIfOutcome outcome;
    outcome.experiment = exp;
    outcome.predicted = QuantilesOf(predicted.latency);

    std::vector<std::vector<Nanos>> by_process_base(report.processes.size());
    std::vector<std::vector<Nanos>> by_process_pred(report.processes.size());
    for (const CpRequest& r : requests) {
      if (r.completion < 0) {
        continue;
      }
      WhatIfPerRequest row;
      row.request = r.id;
      row.process = r.process;
      row.cold = r.cold;
      row.baseline_ns = recorded[Idx(r.id)];
      row.predicted_ns = predicted.latency[Idx(r.id)];
      row.delta_ns = row.predicted_ns - row.baseline_ns;
      outcome.per_request.push_back(row);
      if (r.process >= 0 && Idx(r.process) < by_process_base.size()) {
        by_process_base[Idx(r.process)].push_back(row.baseline_ns);
        by_process_pred[Idx(r.process)].push_back(row.predicted_ns);
      }
    }
    for (std::size_t p = 0; p < report.processes.size(); ++p) {
      if (by_process_base[p].empty()) {
        continue;
      }
      WhatIfProcessOutcome po;
      po.process = static_cast<int>(p);
      po.name = report.processes[p];
      po.requests = static_cast<int>(by_process_base[p].size());
      po.baseline = QuantilesOf(by_process_base[p]);
      po.predicted = QuantilesOf(by_process_pred[p]);
      outcome.processes.push_back(std::move(po));
    }
    report.outcomes.push_back(std::move(outcome));
  }

  // Sensitivity: nudge each knob by +1% and measure what the tail gives
  // back. Leverage divides the p99 shift by the measured per-request time
  // actually shaved off the knob's work, yielding an ns-per-ns exchange rate.
  struct Knob {
    const char* name;
    double WhatIfExperiment::* scale;
    const std::vector<Nanos> WhatIfReplay::* time;
  };
  constexpr Knob kKnobs[] = {
      {"pcie", &WhatIfExperiment::pcie_scale, &WhatIfReplay::pcie_time},
      {"nvlink", &WhatIfExperiment::nvlink_scale, &WhatIfReplay::nvlink_time},
      {"exec", &WhatIfExperiment::exec_scale, &WhatIfReplay::exec_time},
  };
  for (const Knob& knob : kKnobs) {
    WhatIfExperiment nudged;
    nudged.*(knob.scale) = 1.01;
    nudged.name = std::string(knob.name) + "=1.01";
    const WhatIfReplay perturbed = journal.Replay(nudged);
    const WhatIfQuantiles q = QuantilesOf(perturbed.latency);
    WhatIfSensitivity s;
    s.knob = knob.name;
    s.delta_p50_ms = report.baseline.p50_ms - q.p50_ms;
    s.delta_p95_ms = report.baseline.p95_ms - q.p95_ms;
    s.delta_p99_ms = report.baseline.p99_ms - q.p99_ms;
    s.knob_time_mean_ms = MeanMsOf(base.*(knob.time), base.latency);
    const double saved_ms = MeanMsOf(base.*(knob.time), base.latency) -
                            MeanMsOf(perturbed.*(knob.time), perturbed.latency);
    s.leverage_p99 = saved_ms > 0 ? s.delta_p99_ms / saved_ms : 0.0;
    report.sensitivity.push_back(std::move(s));
  }
  std::stable_sort(report.sensitivity.begin(), report.sensitivity.end(),
                   [](const WhatIfSensitivity& a, const WhatIfSensitivity& b) {
                     return a.delta_p99_ms > b.delta_p99_ms;
                   });

  return report;
}

void PrintWhatIfReport(const WhatIfReport& report, std::ostream& os) {
  os << "== what-if report ==\n";
  os << "requests: " << report.requests;
  if (report.skipped_requests > 0) {
    os << " (+" << report.skipped_requests << " incomplete, skipped)";
  }
  os << " across " << report.processes.size()
     << " process(es); baseline replay matches journal: "
     << (report.baseline_matches_journal ? "yes" : "NO") << "\n";
  if (report.requests == 0) {
    os << "(no completed requests in journal)\n";
    return;
  }
  os << "baseline latency (ms): p50 " << Table::Num(report.baseline.p50_ms)
     << "  p95 " << Table::Num(report.baseline.p95_ms) << "  p99 "
     << Table::Num(report.baseline.p99_ms) << "  mean "
     << Table::Num(report.baseline.mean_ms) << "  max "
     << Table::Num(report.baseline.max_ms) << "\n";

  if (!report.outcomes.empty()) {
    os << "\n-- virtual experiments (latency ms) --\n";
    Table table({"experiment", "p50", "p95", "p99", "mean", "max", "d_p99"});
    for (const WhatIfOutcome& o : report.outcomes) {
      table.AddRow({o.experiment.name, Table::Num(o.predicted.p50_ms),
                    Table::Num(o.predicted.p95_ms),
                    Table::Num(o.predicted.p99_ms),
                    Table::Num(o.predicted.mean_ms),
                    Table::Num(o.predicted.max_ms),
                    Table::Num(o.predicted.p99_ms - report.baseline.p99_ms)});
    }
    table.Print(os);
  }

  os << "\n-- knob sensitivity (per +1% hardware speed) --\n";
  Table table({"knob", "d_p50_ms", "d_p95_ms", "d_p99_ms", "knob_ms",
               "p99 ns/ns"});
  for (const WhatIfSensitivity& s : report.sensitivity) {
    table.AddRow({s.knob, Table::Num(s.delta_p50_ms, 4),
                  Table::Num(s.delta_p95_ms, 4), Table::Num(s.delta_p99_ms, 4),
                  Table::Num(s.knob_time_mean_ms),
                  Table::Num(s.leverage_p99)});
  }
  table.Print(os);
}

std::string WhatIfReportJson(const WhatIfReport& report) {
  JsonArray processes;
  for (const std::string& name : report.processes) {
    processes.Add(name);
  }

  JsonArray experiments;
  for (const WhatIfOutcome& o : report.outcomes) {
    JsonArray per_process;
    for (const WhatIfProcessOutcome& po : o.processes) {
      per_process.AddRaw(JsonObject()
                             .Set("process", po.process)
                             .Set("name", po.name)
                             .Set("requests", po.requests)
                             .SetRaw("baseline", QuantilesJson(po.baseline))
                             .SetRaw("predicted", QuantilesJson(po.predicted))
                             .Render());
    }
    JsonArray per_request;
    for (const WhatIfPerRequest& row : o.per_request) {
      per_request.AddRaw(
          JsonObject()
              .Set("request", row.request)
              .Set("process", row.process)
              .Set("cold", row.cold)
              .Set("baseline_ns", static_cast<std::int64_t>(row.baseline_ns))
              .Set("predicted_ns", static_cast<std::int64_t>(row.predicted_ns))
              .Set("delta_ns", static_cast<std::int64_t>(row.delta_ns))
              .Render());
    }
    experiments.AddRaw(
        JsonObject()
            .Set("name", o.experiment.name)
            .Set("pcie_scale", o.experiment.pcie_scale)
            .Set("nvlink_scale", o.experiment.nvlink_scale)
            .Set("exec_scale", o.experiment.exec_scale)
            .Set("zero_contention", o.experiment.zero_contention)
            .Set("remove_evictions", o.experiment.remove_evictions)
            .SetRaw("predicted", QuantilesJson(o.predicted))
            .SetRaw("delta",
                    JsonObject()
                        .Set("p50_ms",
                             o.predicted.p50_ms - report.baseline.p50_ms)
                        .Set("p95_ms",
                             o.predicted.p95_ms - report.baseline.p95_ms)
                        .Set("p99_ms",
                             o.predicted.p99_ms - report.baseline.p99_ms)
                        .Set("mean_ms",
                             o.predicted.mean_ms - report.baseline.mean_ms)
                        .Set("max_ms",
                             o.predicted.max_ms - report.baseline.max_ms)
                        .Render())
            .SetRaw("processes", per_process.Render())
            .SetRaw("per_request", per_request.Render())
            .Render());
  }

  JsonArray sensitivity;
  for (const WhatIfSensitivity& s : report.sensitivity) {
    sensitivity.AddRaw(JsonObject()
                           .Set("knob", s.knob)
                           .Set("delta_p50_ms", s.delta_p50_ms)
                           .Set("delta_p95_ms", s.delta_p95_ms)
                           .Set("delta_p99_ms", s.delta_p99_ms)
                           .Set("knob_time_mean_ms", s.knob_time_mean_ms)
                           .Set("p99_leverage", s.leverage_p99)
                           .Render());
  }

  JsonObject body;
  body.Set("requests", report.requests)
      .Set("skipped_requests", report.skipped_requests)
      .Set("baseline_matches_journal", report.baseline_matches_journal)
      .SetRaw("baseline", QuantilesJson(report.baseline))
      .SetRaw("processes", processes.Render())
      .SetRaw("experiments", experiments.Render())
      .SetRaw("sensitivity", sensitivity.Render());

  JsonObject doc;
  doc.SetRaw("whatif_report", body.Render());
  return doc.Render();
}

}  // namespace deepplan
